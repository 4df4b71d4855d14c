(* Slot layout: [version:8][writer txn:8][embedded 1024-byte data page].
   Logical page p owns adjacent slots 2p and 2p+1.  The commit list
   holds one Wal_codec small record per commit: tag 'C', the txn id. *)

let payload_size = 1024

let slot_size = 16 + payload_size

(* An old committed slot image displaced by an overwrite while some
   live snapshot could still need it.  [rv_shadow] is the commit seq of
   the version that displaced it: a snapshot pinned at horizon [h]
   needs this entry only while [h < rv_shadow] (at [h >= rv_shadow] the
   displacing version is visible and newer). *)
type retained_version = {
  rv_version : int;
  rv_writer : int;
  rv_payload : Bytes.t;
  rv_shadow : int;
}

type store = {
  keys : Key_space.t;
  disk : Vdisk.t;
  commit_list : Journal.t;
  enc : Wal_codec.Enc.t;
  (* txn id -> commit sequence number (commit-list append order) *)
  committed : (int, int) Hashtbl.t;
  registry : Snapshots.t;
  (* logical page -> displaced committed versions live snapshots may
     still select; pruned as snapshots release *)
  retained : (int, retained_version list) Hashtbl.t;
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
    registry = Snapshots.create ();
    retained = Hashtbl.create 16;
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

(* The commit seq of a writer tag: the initial writer 0 predates every
   commit (seq 0); an id missing from the committed list is uncommitted
   garbage. *)
let seq_of t w = if w = 0 then Some 0 else Hashtbl.find_opt t.committed w

(* About to overwrite slot [idx] of page [p]: if it holds a committed
   version some live snapshot can still select — its displacing version
   (the current committed slot) commits past the watermark — copy it
   into the retained side-table before it is destroyed.  This is the
   only copy on the write path, and it happens at most once per
   displaced committed version while snapshots are live. *)
let retain_displaced t p ~target_idx ~shadow_writer =
  if Snapshots.live t.registry > 0 then begin
    let old_slot = Vdisk.read_ro t.disk ((2 * p) + target_idx) in
    let tw = slot_writer old_slot in
    if tw <> 0 then
      match (Hashtbl.find_opt t.committed tw, seq_of t shadow_writer) with
      | Some _, Some shadow when shadow > Snapshots.watermark t.registry ->
        let entry =
          {
            rv_version = slot_version old_slot;
            rv_writer = tw;
            rv_payload = slot_payload old_slot;
            rv_shadow = shadow;
          }
        in
        let prior = Option.value (Hashtbl.find_opt t.retained p) ~default:[] in
        Hashtbl.replace t.retained p (entry :: prior)
      | _ -> ()
  end

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
  if target <> current_idx then
    retain_displaced t p ~target_idx:target ~shadow_writer:(slot_writer current);
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
  Hashtbl.replace t.committed txn.id (Snapshots.commit t.registry);
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
  Hashtbl.replace t.committed txn.id (Snapshots.commit t.registry);
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
  (* Commit seqs rebuild from durable commit-list order — the order
     they were assigned in (appends happen at commit). *)
  Journal.iter_all
    (fun r -> Hashtbl.replace t.committed (decode_commit r) (Snapshots.commit t.registry))
    t.commit_list;
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
  Snapshots.crash t.registry;
  Hashtbl.reset t.retained;
  t.epoch <- t.epoch + 1;
  recover t

let checkpoint _ = ()

(* --- MVCC snapshots ------------------------------------------------- *)

type snapshot = store Snapshots.handle

let snapshot t = Snapshots.pin t.registry t

(* Drop retained versions no remaining snapshot can need: an entry is
   needed only by horizons strictly below its displacing commit. *)
let prune_retained t =
  if Snapshots.live t.registry = 0 then Hashtbl.reset t.retained
  else begin
    let wm = Snapshots.watermark t.registry in
    let stale = ref [] in
    Hashtbl.iter
      (fun p entries ->
        let kept = List.filter (fun rv -> rv.rv_shadow > wm) entries in
        if kept = [] then stale := p :: !stale
        else if List.length kept < List.length entries then Hashtbl.replace t.retained p kept)
      t.retained;
    List.iter (Hashtbl.remove t.retained) !stale
  end

let snapshot_release s = Snapshots.release s ~reclaim:prune_retained

let live_snapshots t = Snapshots.live t.registry

(* Version selection pinned to the horizon: among both disk slots plus
   the page's retained versions, those whose writer committed at or
   before the pin (writer 0 = the initial empty state, seq 0), the
   highest version wins.  Nothing visible = the page was empty at the
   pin. *)
let snapshot_get s k =
  let t = Snapshots.owner s in
  Key_space.check t.keys k;
  let horizon = Snapshots.horizon s in
  let p = Key_space.page_of t.keys k in
  let best_v = ref (-1) in
  let best = ref None in
  let consider ~version ~writer payload =
    if version > !best_v then
      match seq_of t writer with
      | Some seq when seq <= horizon ->
        best_v := version;
        best := Some payload
      | Some _ | None -> ()
  in
  let slot i =
    let sl = Vdisk.read_ro t.disk ((2 * p) + i) in
    consider ~version:(slot_version sl) ~writer:(slot_writer sl) (slot_payload sl)
  in
  slot 0;
  slot 1;
  List.iter
    (fun rv -> consider ~version:rv.rv_version ~writer:rv.rv_writer rv.rv_payload)
    (Option.value (Hashtbl.find_opt t.retained p) ~default:[]);
  match !best with
  | Some payload -> Page.lookup payload ~key:k
  | None -> Page.lookup (Page.empty ~page_size:payload_size) ~key:k

let slot_versions t ~page =
  if page < 0 || page >= t.keys.pages then invalid_arg "Engine_versel.slot_versions";
  ( slot_version (Vdisk.read t.disk (2 * page)),
    slot_version (Vdisk.read t.disk ((2 * page) + 1)) )

let stats t =
  [
    ("disk_reads", Vdisk.reads t.disk);
    ("disk_writes", Vdisk.writes t.disk);
  ]
