(* Operation logging: Engine_log's Logical format on one journal.  See
   engine_oplog.mli. *)

include Engine_log

let engine_name = "oplog"

let create_with ?n_keys ?keys_per_page () =
  Engine_log.create_with ?n_keys ?keys_per_page ~n_log_disks:1 ~log_format:Logical ()

let create ?n_keys () = create_with ?n_keys ()
