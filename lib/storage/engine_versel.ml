(* Slot layout: [version:8][writer txn:8][embedded 1024-byte data page].
   Logical page p owns adjacent slots 2p and 2p+1.  The commit list
   holds one Wal_codec small record per commit: tag 'C', the txn id. *)

let payload_size = 1024

let slot_size = 16 + payload_size

type store = {
  keys : Key_space.t;
  disk : Vdisk.t;
  commit_list : Journal.t;
  enc : Wal_codec.Enc.t;
  (* the committed transaction ids *)
  committed : (int, unit) Hashtbl.t;
  mutable next_txn : int;
  mutable epoch : int;
}

type t = store

type txn = { st : store; id : int; born : int; mutable finished : bool }

let engine_name = "version-selection"

let create ?n_keys () =
  let keys = Key_space.create ~engine:"Engine_versel" ?n_keys () in
  {
    keys;
    disk = Vdisk.create ~pages:(2 * keys.pages) ~page_size:slot_size ();
    commit_list = Journal.create ();
    enc = Wal_codec.Enc.create ~size:16 ();
    committed = Hashtbl.create 32;
    next_txn = 1;
    epoch = 0;
  }

let max_keys t = t.keys.Key_space.n_keys

let keys_per_page t = t.keys.Key_space.keys_per_page

let slot_version slot = Int64.to_int (Bytes.get_int64_le slot 0)

let slot_writer slot = Int64.to_int (Bytes.get_int64_le slot 8)

let slot_payload slot = Bytes.sub slot 16 payload_size

let make_slot ~version ~writer payload =
  let b = Bytes.make slot_size '\000' in
  Bytes.set_int64_le b 0 (Int64.of_int version);
  Bytes.set_int64_le b 8 (Int64.of_int writer);
  Bytes.blit payload 0 b 16 payload_size;
  b

let append_commit t id =
  ignore (Journal.append t.commit_list (Wal_codec.encode_fields t.enc ~tag:'C' [ id ]))

let decode_commit r =
  match Wal_codec.decode_fields r with
  | 'C', [ txn ] -> txn
  | _ -> raise (Wal_codec.Corrupt "Engine_versel: bad commit record")

let begin_txn t =
  let id = t.next_txn in
  t.next_txn <- id + 1;
  { st = t; id; born = t.epoch; finished = false }

let check txn = if txn.finished || txn.born <> txn.st.epoch then raise Kv.Txn_finished

(* The version-selection algorithm: read BOTH slots, keep those whose
   writer is durable-committed (writer 0 is the initial empty state) or
   is the asking transaction, select the highest version. *)
(* Slots are borrowed views of the disk buffers: callers copy the
   payload (slot_payload is a Bytes.sub) before mutating, and never hold
   a slot across a write/sync of the same disk. *)
let select t ~own p =
  let s0 = Vdisk.read_ro t.disk (2 * p) and s1 = Vdisk.read_ro t.disk ((2 * p) + 1) in
  let valid s =
    let w = slot_writer s in
    w = 0 || Hashtbl.mem t.committed w || w = own
  in
  match valid s0, valid s1 with
  | true, true -> if slot_version s0 >= slot_version s1 then (0, s0, s1) else (1, s1, s0)
  | true, false -> (0, s0, s1)
  | false, true -> (1, s1, s0)
  | false, false -> (0, make_slot ~version:0 ~writer:0 (Page.empty ~page_size:payload_size), s1)

let get txn k =
  check txn;
  Key_space.check txn.st.keys k;
  let _, current, _ = select txn.st ~own:txn.id (Key_space.page_of txn.st.keys k) in
  Page.lookup (slot_payload current) ~key:k

let update_key txn k value =
  check txn;
  let t = txn.st in
  Key_space.check t.keys k;
  let p = Key_space.page_of t.keys k in
  let current_idx, current, _ = select t ~own:txn.id p in
  let payload = slot_payload current in
  ignore (Page.update payload ~key:k ~value);
  let next_version =
    1
    + max
        (slot_version (Vdisk.read_ro t.disk (2 * p)))
        (slot_version (Vdisk.read_ro t.disk ((2 * p) + 1)))
  in
  (* Overwrite our own earlier uncommitted version in place; otherwise
     take the slot not holding the current committed copy. *)
  let target =
    if slot_writer current = txn.id then current_idx else 1 - current_idx
  in
  Vdisk.write t.disk ((2 * p) + target) (make_slot ~version:next_version ~writer:txn.id payload)

let put txn k v = update_key txn k (Some v)

let delete txn k = update_key txn k None

let finish txn = txn.finished <- true

let commit txn =
  check txn;
  let t = txn.st in
  (* Data slots first, then the committed list: a crash between the two
     leaves the writes invisible (the txn is simply not committed). *)
  Vdisk.sync t.disk;
  append_commit t txn.id;
  Journal.sync t.commit_list;
  Hashtbl.replace t.committed txn.id ();
  finish txn

(* Group commit: append the commit id but force nothing.  The
   transaction is committed in memory (its slots select) and becomes
   durable at the next [force_commits] — or any eager [commit], whose
   disk + commit-list syncs cover every pending slot and id; a crash
   before that loses it (the group-commit durability window). *)
let commit_group txn =
  check txn;
  let t = txn.st in
  append_commit t txn.id;
  Hashtbl.replace t.committed txn.id ();
  finish txn

(* Slots before ids, as in eager commit: a durable commit id must never
   precede the slots it promises. *)
let force_commits t =
  Vdisk.sync t.disk;
  Journal.sync t.commit_list

let abort txn =
  check txn;
  (* Nothing to undo: the uncommitted slots are never selected. *)
  finish txn

let recover t =
  Hashtbl.reset t.committed;
  Journal.iter_all (fun r -> Hashtbl.replace t.committed (decode_commit r) ()) t.commit_list;
  (* Transaction ids must never be reused: a recycled id would make a
     crashed transaction's garbage slot look live.  Scan every slot. *)
  let max_tag = ref 0 in
  for s = 0 to (2 * t.keys.pages) - 1 do
    max_tag := max !max_tag (slot_writer (Vdisk.read_ro t.disk s))
  done;
  Hashtbl.iter (fun id _ -> max_tag := max !max_tag id) t.committed;
  t.next_txn <- !max_tag + 1

let crash_and_recover t =
  Vdisk.crash t.disk;
  Journal.crash t.commit_list;
  t.epoch <- t.epoch + 1;
  recover t

let checkpoint _ = ()

let slot_versions t ~page =
  if page < 0 || page >= t.keys.pages then invalid_arg "Engine_versel.slot_versions";
  ( slot_version (Vdisk.read t.disk (2 * page)),
    slot_version (Vdisk.read t.disk ((2 * page) + 1)) )

let stats t =
  [
    ("disk_reads", Vdisk.reads t.disk);
    ("disk_writes", Vdisk.writes t.disk);
  ]
