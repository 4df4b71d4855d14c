type log_format = Physical | Delta | Logical

(* Volatile state of a live transaction.  [firsts]: page -> before
   image of the transaction's first update of the page — the undo an
   abort performs.  [first_lsn]: LSN of the transaction's first record
   (its first update, or an update-less prepare), [max_int] before one,
   and lowered to an aborted transaction's (see [abort]) — a
   checkpoint's replay start never passes it. *)
type live = { firsts : (int, bytes) Hashtbl.t; mutable first_lsn : int }

type store = {
  keys : Key_space.t;
  page_size : int;
  data : Vdisk.t;
  logs : Journal.t array;
  mutable next_lsn : int;
  mutable next_txn : int;
  mutable cyclic : int;
  mutable epoch : int;
  active : (int, live) Hashtbl.t;
  dirty_rec : (int, int) Hashtbl.t;
      (* The dirty-page table: page -> recovery LSN, i.e. the LSN of the
         earliest record replay needs for the page: the first update its
         durable image is missing, or an aborted loser's first record.
         An entry appears when a volatile write first moves a page ahead
         of its durable image and disappears when the data disk is
         synced. *)
  log_format : log_format;
  (* Reusable scratch for record encoding: fields are blitted straight
     into it and the journal's string is the only per-append
     allocation.  Engines are single-domain, so one scratch is safe. *)
  enc : Wal_codec.Enc.t;
  (* Reusable scratch for the after image an update or an abort's
     restore builds: the record is encoded from it and [Vdisk.write]
     copies it into the page. *)
  scratch : bytes;
  (* A delta record is emitted only when both slices together fit in
     this many bytes; past it a full image costs less bookkeeping. *)
  delta_threshold : int;
  mutable recovery_pool : Dbm_util.Pool.t option;
  mutable records_logged : int;
}

type t = store

type txn = { st : store; id : int; born : int; live : live; mutable finished : bool }

let engine_name = "logging"

let create_with ?n_keys ?(n_log_disks = 2) ?(log_format = Physical) () =
  let keys = Key_space.create ~engine:"Engine_log" ?n_keys () in
  if n_log_disks <= 0 then invalid_arg "Engine_log.create: need a log disk";
  let page_size = 1024 in
  {
    keys;
    page_size;
    data = Vdisk.create ~pages:keys.pages ~page_size ();
    logs = Array.init n_log_disks (fun _ -> Journal.create ());
    next_lsn = 1;
    next_txn = 1;
    cyclic = 0;
    epoch = 0;
    active = Hashtbl.create 8;
    dirty_rec = Hashtbl.create 32;
    log_format;
    enc = Wal_codec.Enc.create ~size:(2 * page_size + 64) ();
    scratch = Bytes.create page_size;
    delta_threshold = page_size;
    recovery_pool = None;
    records_logged = 0;
  }

let create ?n_keys () = create_with ?n_keys ()

let max_keys t = t.keys.Key_space.n_keys

let keys_per_page t = t.keys.Key_space.keys_per_page

let log_disks t = Array.length t.logs

let records_logged t = t.records_logged

(* Durable log volume in bytes — what the format head-to-head meters. *)
let log_bytes t =
  let total = ref 0 in
  Array.iter (Journal.iter_all (fun s -> total := !total + String.length s)) t.logs;
  !total

(* Only formats that log before images may make uncommitted pages
   durable (steal): replay peels them back off.  [Logical] logs no
   images, so the data disk is forced only while no live transaction
   has uncommitted page writes — restart recovery is then REDO-only. *)
let may_force_data t =
  match t.log_format with
  | Physical | Delta -> true
  | Logical -> Hashtbl.fold (fun _ lt ok -> ok && Hashtbl.length lt.firsts = 0) t.active true

(* The paper's cyclic fragment selection: each record goes to the next
   log disk in turn. *)
let select_log t =
  let i = t.cyclic in
  t.cyclic <- (t.cyclic + 1) mod Array.length t.logs;
  i

let append_log t ~disk record =
  ignore (Journal.append t.logs.(disk) (Wal.encode_with t.enc record));
  t.records_logged <- t.records_logged + 1

(* A live transaction's own record: remember the first one's LSN. *)
let append_for txn ~disk record =
  append_log txn.st ~disk record;
  if txn.live.first_lsn = max_int then txn.live.first_lsn <- Wal.lsn record

let fresh_lsn t =
  let l = t.next_lsn in
  t.next_lsn <- l + 1;
  l

let begin_txn t =
  let id = t.next_txn in
  t.next_txn <- id + 1;
  let live = { firsts = Hashtbl.create 4; first_lsn = max_int } in
  Hashtbl.replace t.active id live;
  { st = t; id; born = t.epoch; live; finished = false }

let check txn = if txn.finished || txn.born <> txn.st.epoch then raise Kv.Txn_finished

let get txn k =
  check txn;
  Key_space.check txn.st.keys k;
  (* Borrowed page view: Page.lookup only reads, so skip the 1 KB copy. *)
  Page.lookup (Vdisk.read_ro txn.st.data (Key_space.page_of txn.st.keys k)) ~key:k

(* In-place update with write-ahead logging: append the format's record
   to a log disk, then update the data page (volatile). *)
let update_key txn k value =
  check txn;
  let t = txn.st in
  Key_space.check t.keys k;
  let p = Key_space.page_of t.keys k in
  (* Whether the durable image is current, read before this update
     dirties the page: a delta-mode clean->dirty transition logs a full
     image, anchoring the page's record chain for replay. *)
  let was_clean = not (Hashtbl.mem t.dirty_rec p) in
  (* A borrowed view: the record is encoded and the undo state takes
     its copy before the write overwrites the page's buffer in place. *)
  let before = Vdisk.read_ro t.data p in
  let after = t.scratch in
  Bytes.blit before 0 after 0 t.page_size;
  (* [lo, hi): the only body bytes this update rewrote, so the only
     ones the delta diff needs to scan. *)
  let lo, hi = Page.update after ~key:k ~value in
  let lsn = fresh_lsn t in
  Page.set_lsn after lsn;
  let disk = select_log t in
  let record =
    match t.log_format with
    | Delta when not was_clean ->
      Wal.delta_update ~threshold:t.delta_threshold ~lsn ~txn:txn.id ~page:p ~before ~after ~lo
        ~hi
    | Physical | Delta ->
      let borrow = Wal_codec.View.borrow in
      Wal.Update { lsn; txn = txn.id; page = p; before = borrow before; after = borrow after }
    | Logical ->
      (* Which operation ran, under which LSN: replay re-executes it. *)
      Wal.Op { lsn; txn = txn.id; key = k; value }
  in
  append_for txn ~disk record;
  if not (Hashtbl.mem txn.live.firsts p) then
    Hashtbl.replace txn.live.firsts p (Bytes.copy before);
  (* The page becomes dirty at the LSN of the first update its durable
     image misses. *)
  if was_clean then Hashtbl.replace t.dirty_rec p lsn;
  Vdisk.write t.data p after

let put txn k v = update_key txn k (Some v)

let delete txn k = update_key txn k None

let finish txn =
  txn.finished <- true;
  Hashtbl.remove txn.st.active txn.id

(* --- commit, group commit, 2PC vote, abort -------------------------- *)

(* Force every log disk: everything appended anywhere is durable now,
   pending group commits included. *)
let sync_all_logs t = Array.iter Journal.sync t.logs

(* The WAL commit rule: pick the disk the decision record goes to,
   force every other log disk, append the record and force its own disk
   last, so every record appended before the decision is durable before
   it.  Like every other force here, it leaves nothing appended
   unforced: a crash loses exactly the records appended since the last
   force, never an earlier record while keeping a later one (a
   group-commit record without its updates, or a loser's later before
   image without the record of the update it holds). *)
let force_decision txn record =
  let t = txn.st in
  let disk = select_log t in
  Array.iteri (fun d j -> if d <> disk then Journal.sync j) t.logs;
  append_for txn ~disk (record (fresh_lsn t));
  Journal.sync t.logs.(disk)

let commit txn =
  check txn;
  force_decision txn (fun lsn -> Wal.Commit { lsn; txn = txn.id });
  finish txn

(* Group commit: the commit record is appended but the force is left
   to the next force of the log disks ([force_commits], an eager
   decision, a flush or a checkpoint); until then the transaction is
   committed in memory but not durable. *)
let commit_group txn =
  check txn;
  let t = txn.st in
  let disk = select_log t in
  append_log t ~disk (Wal.Commit { lsn = fresh_lsn t; txn = txn.id });
  finish txn

let force_commits t = sync_all_logs t

(* Two-phase commit, participant side.  The prepare is the durable vote,
   forced exactly as an eager commit record would be.  The transaction
   stays active — its undo state and locks survive — until the
   coordinator's decision arrives: [commit_group] (the decision record
   may stay unforced, recovery resolves in-doubt transactions from the
   coordinator log) or [abort]. *)
let prepare txn ~gid =
  check txn;
  force_decision txn (fun lsn -> Wal.Prepare { lsn; txn = txn.id; gid })

(* Prepared-but-undecided transactions in the durable logs. *)
let in_doubt t = Replay.in_doubt (Array.map Journal.to_array t.logs)

let abort txn =
  check txn;
  let t = txn.st in
  (* Undo in place from the saved before images; recovery would reach
     the same state from the log. *)
  Hashtbl.iter
    (fun p before ->
      let lsn = fresh_lsn t in
      let restored = t.scratch in
      Bytes.blit before 0 restored 0 t.page_size;
      Page.set_lsn restored lsn;
      (* Delta replay reconstructs page images by chaining slices, so
         every volatile page change must be logged — including this
         restore.  Physical full images make the fold order-insensitive
         without it, and logical replay ignores loser operations.  The
         record reuses the LSN the restore burns in every format,
         keeping the formats' LSN streams — and hence their recovered
         fingerprints — identical. *)
      (match t.log_format with
      | Physical | Logical -> ()
      | Delta ->
        let current = Vdisk.read_ro t.data p in
        let disk = select_log t in
        append_log t ~disk
          (Wal.delta_update ~threshold:t.delta_threshold ~lsn ~txn:txn.id ~page:p
             ~before:current ~after:restored ~lo:Page.header_bytes ~hi:t.page_size));
      Vdisk.write t.data p restored;
      (* A mid-log replay must still scan back to the loser's first
         record to reproduce the undo — the dirty entry keeps (or
         regains) that LSN, never the restore's fresh one. *)
      let rec_ =
        match Hashtbl.find_opt t.dirty_rec p with
        | Some existing -> min existing txn.live.first_lsn
        | None -> txn.live.first_lsn
      in
      Hashtbl.replace t.dirty_rec p rec_)
    txn.live.firsts;
  (* The loser's later before images hold its earlier updates, so a
     replay start between its records would reinstate them.  The dirty
     entries above hold the start back until the next data force; after
     it, every live transaction that has logged does, by its [first_lsn]. *)
  Hashtbl.iter
    (fun _ lt -> if lt.first_lsn < max_int then lt.first_lsn <- min lt.first_lsn txn.live.first_lsn)
    t.active;
  let disk = select_log t in
  append_log t ~disk (Wal.Abort { lsn = fresh_lsn t; txn = txn.id });
  finish txn

let flush t =
  sync_all_logs t;
  if may_force_data t then begin
    Vdisk.sync t.data;
    (* Every page image is durable now; nothing is dirty. *)
    Hashtbl.reset t.dirty_rec
  end

(* --- checkpoints ------------------------------------------------------ *)

(* Append a fuzzy checkpoint record to disk 0 and return its start, the
   LSN a later replay may start from:

     start_lsn = min( next_lsn,
                      every live transaction's first record LSN,
                      every dirty page's recovery LSN )

   Every record below start_lsn belongs to a finished transaction, and
   each of its updates sits on a page whose durable image already
   includes it, so replay loses nothing by skipping it; DESIGN.md B.2
   has the full argument. *)
let write_checkpoint ~sync t =
  let start = ref t.next_lsn in
  Hashtbl.iter (fun _ lt -> if lt.first_lsn < !start then start := lt.first_lsn) t.active;
  Hashtbl.iter (fun _ rec_ -> if rec_ < !start then start := rec_) t.dirty_rec;
  append_log t ~disk:0 (Wal.Fuzzy_checkpoint { lsn = fresh_lsn t; start_lsn = !start });
  if sync then Journal.sync t.logs.(0);
  !start

(* Sharp checkpoint: [flush], a forced fuzzy checkpoint record, then
   every log disk truncated below the record's start — through the
   suffix search recovery uses to skip records, so the log keeps
   exactly what replay reads.  Under [Logical] a live writer blocks the
   data force (no steal), and the dirty pages hold the start back to
   the committed operations the durable image lacks. *)
let checkpoint t =
  flush t;
  let start_lsn = write_checkpoint ~sync:true t in
  let lo = Replay.suffix_starts (Replay.scan (Array.map Journal.to_array t.logs)) ~start_lsn in
  Array.iteri
    (fun d j -> Journal.truncate j ~keep_from:(Journal.synced j - Journal.length j + lo.(d)))
    t.logs

(* Fuzzy checkpoint (the paper's low-interference flavor): no data-disk
   force, no truncation, no quiescing — one log force and one record.
   [sync:false] leaves the record volatile — the crash-during-checkpoint
   tests use it to check that a lost checkpoint record merely falls back
   to the previous start point. *)
let checkpoint_fuzzy ?(sync = true) t =
  sync_all_logs t;
  ignore (write_checkpoint ~sync t)

(* --- restart recovery --------------------------------------------- *)

(* The crash itself: unforced log tails, volatile pages and live
   transaction handles are lost. *)
let crash t =
  Vdisk.crash t.data;
  Array.iter Journal.crash t.logs;
  t.epoch <- t.epoch + 1

(* Shared epilogue of every recovery path: force the rebuilt data disk,
   re-seed the LSN/txn counters past everything the log has seen and
   clear the volatile transaction state. *)
let finish_recovery t (meta : Replay.meta) =
  Vdisk.sync t.data;
  t.next_lsn <- meta.max_lsn + 1;
  (* From the log alone, not [max ... t.next_txn]: ids the volatile
     counter handed to transactions that never logged a record are dead
     after a crash and safe to reuse, and deriving both counters purely
     from durable state makes repeated recovery idempotent — which is
     what lets the bench fingerprint-compare recoveries run back to
     back. *)
  t.next_txn <- meta.max_txn + 1;
  Hashtbl.reset t.active;
  Hashtbl.reset t.dirty_rec

let recover_with ~resolve t =
  let pool = t.recovery_pool in
  let raws = Array.map Journal.to_array t.logs in
  let meta = Replay.scan raws in
  (* In-doubt transactions (durably prepared, no durable decision) are
     resolved from the coordinator: committed iff [resolve ~gid] says
     so, presumed abort without a resolver.  Resolution records are
     appended after replay so the next restart needs no coordinator. *)
  let doubt = Replay.in_doubt raws in
  let decide ~gid = match resolve with Some f -> f ~gid | None -> false in
  let also_committed = List.filter_map (fun (txn, gid) -> if decide ~gid then Some txn else None) doubt in
  (* Borrowed bases: replay copies one before changing it, and uses none past its first write. *)
  let read ~page = Vdisk.read_ro t.data page in
  let write ~page image = Vdisk.write t.data page image in
  (* The partitioned parallel path.  The newest durable fuzzy
     checkpoint is located by tag peek, each journal is binary-searched
     for its replay suffix, and only that suffix is decoded — the
     skipped prefix never pays the checksum pass, which is where the
     checkpoint's saving lives (counter maxima come from the peeked
     [meta] instead).  With no pool (or a 1-job pool) this is the
     serial replay, record for record. *)
  let start_lsn = Replay.replay_start_raw raws in
  let records = Replay.decode_from ?pool raws ~lo:(Replay.suffix_starts meta ~start_lsn) in
  (match t.log_format with
  | Logical ->
    Replay.recover_logical ?pool ~also_committed ~records ~start_lsn
      ~page_of:(Key_space.page_of t.keys) ~read ~write ()
  | Physical | Delta ->
    Replay.recover_sorted ?pool ~read ~also_committed ~records ~start_lsn ~write ());
  finish_recovery t meta;
  if doubt <> [] then begin
    List.iter
      (fun (txn, gid) ->
        let disk = select_log t in
        let lsn = fresh_lsn t in
        append_log t ~disk
          (if decide ~gid then Wal.Commit { lsn; txn } else Wal.Abort { lsn; txn }))
      doubt;
    sync_all_logs t
  end

let crash_and_recover t =
  crash t;
  recover_with ~resolve:None t

(* Crash, then recover with in-doubt transactions resolved from the
   coordinator's decision log. *)
let crash_and_recover_resolved ~resolve t =
  crash t;
  recover_with ~resolve:(Some resolve) t

(* Crash, then recover along the preserved pre-parallelization path
   (Naive.Log_replay): single-threaded decode, from-zero replay,
   fuzzy-checkpoint records ignored.  The epilogue is the same
   [finish_recovery], so [state_fingerprint] after this must equal the
   fingerprint after [crash_and_recover] on the same durable state —
   the equivalence the property tests and the bench gate on. *)
let crash_and_recover_reference t =
  crash t;
  let records =
    List.concat_map (fun j -> List.map Wal.decode (Journal.read_all j)) (Array.to_list t.logs)
  in
  let read ~page = Vdisk.read t.data page in
  let write ~page image = Vdisk.write t.data page image in
  (match t.log_format with
  | Physical -> Naive.Log_replay.recover_sorted ~records ~read ~write
  | Delta -> Naive.Log_replay.recover_sorted_delta ~records ~read ~write
  | Logical ->
    Naive.Log_replay.recover_logical ~records ~page_of:(Key_space.page_of t.keys) ~read ~write);
  finish_recovery t (Replay.scan (Array.map Journal.to_array t.logs))

let set_recovery_pool t pool = t.recovery_pool <- pool

(* Injective digest of everything restart recovery is responsible for:
   every data page image plus the re-seeded LSN/txn counters.  Disk
   operation counters are deliberately excluded — checkpoint-aware
   replay legitimately touches fewer pages than full-log replay; that
   saving is the feature, not a divergence. *)
let state_fingerprint t =
  let d = Dbm_util.Digest.create () in
  for p = 0 to Vdisk.pages t.data - 1 do
    Dbm_util.Digest.string d (Bytes.to_string (Vdisk.read_ro t.data p))
  done;
  Dbm_util.Digest.int d t.next_lsn;
  Dbm_util.Digest.int d t.next_txn;
  Dbm_util.Digest.hex d

let dump_log t ~disk = List.map Wal.decode (Journal.read_all t.logs.(disk))

let stats t =
  [
    ("disk_reads", Vdisk.reads t.data);
    ("disk_writes", Vdisk.writes t.data);
    ("durable_records", Array.fold_left (fun acc j -> acc + Journal.length j) 0 t.logs);
    ("log_syncs", Array.fold_left (fun acc j -> acc + Journal.sync_count j) 0 t.logs);
  ]
