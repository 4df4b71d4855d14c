(* Records ride the shared codec framing (Wal_codec): tag byte, varint
   fields, FNV-64 checksum trailer.  The differential files hold one
   record type, a key and its [version]: 'A' add/update (stamp, txn,
   key, value) in A, 'D' delete (stamp, txn, key) in D.  The commits
   journal holds one small record, 'C' commit (txn).  Stamps are
   globally ordered so (B u A) - D resolves by newest-wins. *)

(* One differential record as the reads see it: an A record carries
   [Some value], a D record [None]. *)
type version = { stamp : int; writer : int; value : string option }

type store = {
  keys : Key_space.t;
  base : Vdisk.t;
  a_file : Journal.t;
  d_file : Journal.t;
  commits : Journal.t;
  enc : Wal_codec.Enc.t;
  (* txn id -> commit sequence number.  Seqs order commits totally (the
     order of the commit-journal records), which is what pins a
     snapshot: a record is visible to a snapshot iff its writer's seq
     is at or below the snapshot's horizon. *)
  committed : (int, int) Hashtbl.t;
  registry : Snapshots.t;
  mutable next_txn : int;
  mutable next_stamp : int;
  (* Volatile per-key index of the retained A/D records, newest first:
     what a scan of both files finds for the key.  A crash or a merge
     only marks it stale; the next read rebuilds it in one pass. *)
  chains : version list array;
  mutable chains_stale : bool;
  mutable epoch : int;
  mutable live : int;
  mutable merge_count : int;
}

type t = store

type txn = { st : store; id : int; born : int; mutable finished : bool }

let engine_name = "differential-file"

let page_size = 1024

let corrupt what = raise (Wal_codec.Corrupt ("Engine_diff: corrupt " ^ what ^ " record"))

(* The one encoder of both differential files: tag 'A' for a value,
   'D' for a deletion. *)
let encode_record enc ~key { stamp; writer; value } =
  let open Wal_codec.Enc in
  reset enc ~tag:(match value with Some _ -> 'A' | None -> 'D');
  varint enc stamp;
  varint enc writer;
  varint enc key;
  (match value with Some v -> string enc v | None -> ());
  finish enc

(* The one decoder of both differential files: the key and its version. *)
let decode_record r =
  let open Wal_codec.Dec in
  let d = start r in
  let stamp = varint d in
  let writer = varint d in
  let key = varint d in
  let value = match tag r with 'A' -> Some (string d) | 'D' -> None | _ -> corrupt "A/D" in
  if not (finished d) then corrupt "A/D";
  (key, { stamp; writer; value })

(* The one decoder of the commits journal: a committed txn id. *)
let decode_commits_record r =
  match Wal_codec.decode_fields r with 'C', [ txn ] -> txn | _ -> corrupt "commits journal"

let create ?n_keys () =
  let keys = Key_space.create ~engine:"Engine_diff" ?n_keys () in
  {
    keys;
    base = Vdisk.create ~pages:keys.pages ~page_size ();
    a_file = Journal.create ();
    d_file = Journal.create ();
    commits = Journal.create ();
    enc = Wal_codec.Enc.create ~size:256 ();
    committed = Hashtbl.create 32;
    registry = Snapshots.create ();
    next_txn = 1;
    next_stamp = 1;
    chains = Array.make keys.n_keys [];
    chains_stale = false;
    epoch = 0;
    live = 0;
    merge_count = 0;
  }

let max_keys t = t.keys.Key_space.n_keys

(* A and D records are appended per key, so the locking granule is the
   key itself even though the base file is paged. *)
let keys_per_page _ = 1

let begin_txn t =
  let id = t.next_txn in
  t.next_txn <- id + 1;
  t.live <- t.live + 1;
  { st = t; id; born = t.epoch; finished = false }

let check h = if h.finished || h.born <> h.st.epoch then raise Kv.Txn_finished

let push t key v = t.chains.(key) <- v :: t.chains.(key)

(* The one walk over both differential files, A then D, through the
   one decoder: the durable records, or with [iter:Journal.iter_live]
   the unsynced tail too. *)
let iter_records ?(iter = Journal.iter_all) t f =
  List.iter (iter (fun r -> f (decode_record r))) [ t.a_file; t.d_file ]

(* One pass over the live records of both files.  Each file is
   stamp-ordered, so a chain comes out as two newest-first runs, one
   per file; the sort interleaves them. *)
let rebuild_chains t =
  Array.fill t.chains 0 (Array.length t.chains) [];
  iter_records ~iter:Journal.iter_live t (fun (key, v) -> push t key v);
  Array.map_inplace (List.sort (fun a b -> Int.compare b.stamp a.stamp)) t.chains;
  t.chains_stale <- false

(* The view (B u A) - D for one key: the newest retained record whose
   writer [visible] accepts decides; otherwise the base file does. *)
let resolve t k visible =
  if t.chains_stale then rebuild_chains t;
  let rec walk = function
    | [] -> Page.lookup (Vdisk.read_ro t.base (Key_space.page_of t.keys k)) ~key:k
    | v :: older -> if visible v.writer then v.value else walk older
  in
  walk t.chains.(k)

(* A transaction sees its own records and the committed ones. *)
let get h k =
  check h;
  let t = h.st in
  Key_space.check t.keys k;
  resolve t k (fun txn -> txn = h.id || Hashtbl.mem t.committed txn)

let append_commit t id =
  ignore (Journal.append t.commits (Wal_codec.encode_fields t.enc ~tag:'C' [ id ]))

let write h k value =
  check h;
  let t = h.st in
  Key_space.check t.keys k;
  let v = { stamp = t.next_stamp; writer = h.id; value } in
  t.next_stamp <- v.stamp + 1;
  let file = match value with Some _ -> t.a_file | None -> t.d_file in
  ignore (Journal.append file (encode_record t.enc ~key:k v));
  push t k v

let put h k v = write h k (Some v)

let delete h k = write h k None

let finish h =
  h.finished <- true;
  h.st.live <- h.st.live - 1

(* Records before commits: the A/D files are forced before the commits
   journal so a durable commit id can never precede the records it
   promises. *)
let force_commits t =
  Journal.sync t.a_file;
  Journal.sync t.d_file;
  Journal.sync t.commits

(* Merge the committed differential records into the base file and
   truncate A and D — the periodic reorganization the paper notes must
   bound the differential files' size.  Requires quiescence so no
   uncommitted record is lost by the truncation. *)
let checkpoint t =
  if t.live > 0 then failwith "Engine_diff.checkpoint: merge requires no live transactions";
  (* Everything durable first.  The fold and the truncation below walk
     the durable records only, and the fold takes every committed
     transaction, group-committed ones too: with their commit records
     still pending, a crash after the base force would keep their
     writes and lose their commits. *)
  force_commits t;
  (* Snapshot fence: the merge may fold into the base — and drop — only
     records every live snapshot can already see.  Stamps are issued
     monotonically and records appended immediately, so each file is
     stamp-ordered and the droppable set is the stamp prefix strictly
     before the earliest-stamped record whose writer committed past the
     watermark.  (A prefix cut per stamp, not per seq: a snapshot must
     keep finding the newest visible record for a key in the journals
     whenever any journal record for that key survives, so no record
     may be dropped while an older-stamped one for the same key is
     retained.)  With no live snapshots the fence is infinite and this
     is the full merge. *)
  let fence = ref max_int in
  if Snapshots.live t.registry > 0 then begin
    let wm = Snapshots.watermark t.registry in
    iter_records t (fun (_, v) ->
        match Hashtbl.find_opt t.committed v.writer with
        | Some seq when seq > wm -> if v.stamp < !fence then fence := v.stamp
        | Some _ | None -> ())
  end;
  let fence = !fence in
  (* One pass over both files builds key -> newest committed version;
     stamps are unique and monotonically issued, so newest-wins per key
     is order-independent and matches the old per-key re-scan exactly. *)
  let winners : (int, version) Hashtbl.t = Hashtbl.create 64 in
  iter_records t (fun (key, v) ->
      if v.stamp < fence && Hashtbl.mem t.committed v.writer then
        match Hashtbl.find_opt winners key with
        | Some w when w.stamp >= v.stamp -> ()
        | _ -> Hashtbl.replace winners key v);
  let { Key_space.n_keys; keys_per_page; pages } = t.keys in
  for p = 0 to pages - 1 do
    let page = Vdisk.read t.base p in
    let changed = ref false in
    for k = p * keys_per_page to min ((p + 1) * keys_per_page) n_keys - 1 do
      match Hashtbl.find_opt winners k with
      | None -> ()
      | Some v ->
        ignore (Page.update page ~key:k ~value:v.value);
        changed := true
    done;
    if !changed then Vdisk.write t.base p page
  done;
  (* Base durable first; replaying the (idempotent) records after a
     badly-timed crash is harmless, losing base pages is not. *)
  Vdisk.sync t.base;
  (* Drop each file's sub-fence stamp prefix; with no live snapshots
     that is every durable record, exactly the old full truncation. *)
  List.iter
    (fun journal ->
      let raw = Journal.to_array journal in
      let n = Array.length raw in
      let i = ref 0 in
      while !i < n && (snd (decode_record raw.(!i))).stamp < fence do
        incr i
      done;
      Journal.truncate journal ~keep_from:(Journal.synced journal - n + !i))
    [ t.a_file; t.d_file ];
  (* Reads through the old chains would still be right — a dropped
     record is invisible, folded into the base, or shadowed by one that
     is — but the chains would keep every version the files let go. *)
  t.chains_stale <- true;
  t.merge_count <- t.merge_count + 1

let commit h =
  check h;
  let t = h.st in
  (* The differential files ARE the recovery data: force them, then the
     commit record. *)
  Journal.sync t.a_file;
  Journal.sync t.d_file;
  append_commit t h.id;
  Journal.sync t.commits;
  Hashtbl.replace t.committed h.id (Snapshots.commit t.registry);
  finish h

(* Group commit: the commit record is appended but not forced, and the
   differential files are not forced either — the whole transaction
   becomes durable at the next [force_commits] (or any eager [commit],
   whose three syncs cover every pending record: the A/D/commits files
   are single shared journals, so one force is inherently global).
   Until then the transaction is committed in memory (visible to
   readers) but a crash loses it — the group-commit durability
   window. *)
let commit_group h =
  check h;
  let t = h.st in
  append_commit t h.id;
  Hashtbl.replace t.committed h.id (Snapshots.commit t.registry);
  finish h

let abort h =
  check h;
  (* Appended records of an uncommitted transaction are never visible:
     nothing to undo. *)
  finish h

(* Lose everything volatile, then rebuild the committed set from the
   commit records and restart the counters past every durable record
   and every committed id: a new transaction must not take the id of a
   loser whose records the files still hold.  The read index is only
   marked stale; the first read rebuilds it. *)
let crash_and_recover t =
  Vdisk.crash t.base;
  Journal.crash t.a_file;
  Journal.crash t.d_file;
  Journal.crash t.commits;
  Snapshots.crash t.registry;
  t.epoch <- t.epoch + 1;
  t.chains_stale <- true;
  Hashtbl.reset t.committed;
  (* Commit seqs rebuild from durable commit-record order — the order
     they were assigned in (appends happen at commit). *)
  Journal.iter_all
    (fun r -> Hashtbl.replace t.committed (decode_commits_record r) (Snapshots.commit t.registry))
    t.commits;
  let stamp = ref 0 and txn = ref (Hashtbl.fold (fun id _ acc -> max acc id) t.committed 0) in
  iter_records t (fun (_, v) ->
      if v.stamp > !stamp then stamp := v.stamp;
      if v.writer > !txn then txn := v.writer);
  t.next_stamp <- !stamp + 1;
  t.next_txn <- !txn + 1;
  t.live <- 0

(* Digest of everything recovery is responsible for: base pages,
   retained differential records, the committed set and the re-seeded
   counters.  Journal sequence positions are included via the synced
   counts so a truncation-shifted-but-equal state cannot alias. *)
let state_fingerprint t =
  let d = Dbm_util.Digest.create () in
  for p = 0 to t.keys.pages - 1 do
    Dbm_util.Digest.string d (Bytes.to_string (Vdisk.read_ro t.base p))
  done;
  let feed_journal j =
    Dbm_util.Digest.int d (Journal.synced j);
    Journal.iter_all (Dbm_util.Digest.string d) j
  in
  feed_journal t.a_file;
  feed_journal t.d_file;
  Hashtbl.fold (fun id _ acc -> id :: acc) t.committed []
  |> List.sort Int.compare
  |> List.iter (Dbm_util.Digest.int d);
  Dbm_util.Digest.int d t.next_stamp;
  Dbm_util.Digest.int d t.next_txn;
  Dbm_util.Digest.hex d

(* --- MVCC snapshots ------------------------------------------------- *)

(* A snapshot is just a pinned horizon: the commit seq of the newest
   commit at pin time.  Reads decide visibility per record against it —
   no copies, no locks.  The store tracks live horizons so the merge
   never folds away (and the truncation never drops) a version
   some live snapshot can still see. *)

type snapshot = store Snapshots.handle

let snapshot t = Snapshots.pin t.registry t

(* Nothing to reclaim at release: the next merge folds what the
   advanced watermark frees. *)
let snapshot_release s = Snapshots.release s ~reclaim:ignore

let live_snapshots t = Snapshots.live t.registry

(* Same (B u A) - D resolution as [get], with visibility pinned to the
   horizon: a record counts iff its writer committed at or before the
   pin.  The base is always visible — merges only ever fold records
   every live snapshot could see (and any snapshot taken later can see
   everything the merge folded). *)
let snapshot_get s k =
  let t = Snapshots.owner s in
  Key_space.check t.keys k;
  let horizon = Snapshots.horizon s in
  resolve t k (fun txn ->
      match Hashtbl.find t.committed txn with
      | seq -> seq <= horizon
      | exception Not_found -> false)

let a_size t = Journal.length t.a_file

let d_size t = Journal.length t.d_file

let merges t = t.merge_count

let stats t =
  [
    ("disk_reads", Vdisk.reads t.base);
    ("disk_writes", Vdisk.writes t.base);
    ("a_records", a_size t);
    ("d_records", d_size t);
    ("merges", t.merge_count);
  ]
