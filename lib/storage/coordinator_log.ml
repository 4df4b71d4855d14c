(* The 2PC coordinator's decision log.  See coordinator_log.mli. *)

type t = {
  j : Journal.t;
  (* gid -> decision, rebuilt from the durable journal on crash. *)
  table : (int, bool) Hashtbl.t;
  mutable decisions : int;
}

(* One Wal_codec small record per decision: tag 'C' (commit) or 'A'
   (abort), then the gid as a varint, then the checksum trailer. *)
let decode s =
  match Wal_codec.decode_fields s with
  | 'C', [ gid ] -> (gid, true)
  | 'A', [ gid ] -> (gid, false)
  | _ -> raise (Wal_codec.Corrupt "Coordinator_log: bad decision record")

let create () = { j = Journal.create (); table = Hashtbl.create 16; decisions = 0 }

let decide t ~gid ~commit =
  if Hashtbl.mem t.table gid then invalid_arg "Coordinator_log.decide: duplicate gid";
  (* A fresh scratch per (rare) decision: every shard's domain decides. *)
  let enc = Wal_codec.Enc.create ~size:16 () and tag = if commit then 'C' else 'A' in
  ignore (Journal.append t.j (Wal_codec.encode_fields enc ~tag [ gid ]));
  (* The decision record IS the commit point of a cross-shard
     transaction: it is forced before any participant learns the
     outcome. *)
  Journal.sync t.j;
  Hashtbl.replace t.table gid commit;
  t.decisions <- t.decisions + 1

let decision t ~gid = Hashtbl.find_opt t.table gid

let resolve t ~gid = match decision t ~gid with Some d -> d | None -> false

let decisions t = t.decisions

let log_syncs t = Journal.sync_count t.j

let crash_and_recover t =
  Journal.crash t.j;
  Hashtbl.reset t.table;
  t.decisions <- 0;
  Journal.iter_all
    (fun s ->
      let gid, commit = decode s in
      Hashtbl.replace t.table gid commit;
      t.decisions <- t.decisions + 1)
    t.j
