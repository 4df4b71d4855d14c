(* Operation logging: Engine_log's Logical format on one journal.  See
   engine_oplog.mli. *)

include Engine_log

let engine_name = "oplog"

let create ?n_keys () = create_with ?n_keys ~n_log_disks:1 ~log_format:Logical ()
