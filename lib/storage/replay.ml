(* Page-partitioned parallel log replay.  See replay.mli for the phase
   breakdown and the equivalence argument; DESIGN.md B.2 carries the
   full correctness discussion. *)

module Pool = Dbm_util.Pool

let pieces_of_pool = function None -> 1 | Some p -> Pool.jobs p

(* [map_list] is the one parallel primitive every phase uses: input
   order in, result order out, so a 1-job pool (or no pool) IS the
   serial path — Pool.map_ordered with jobs = 1 is documented to be a
   plain left-to-right List.map. *)
let map_list ?pool xs ~f =
  match pool with None -> List.map f xs | Some p -> Pool.map_ordered p xs ~f

(* Contiguous [lo, hi) ranges covering [0, len), at most [pieces] of
   them, sizes differing by at most one. *)
let chunk_ranges ~len ~pieces =
  if len <= 0 then []
  else begin
    let pieces = max 1 (min pieces len) in
    let base = len / pieces and extra = len mod pieces in
    let rec go i lo acc =
      if i = pieces then List.rev acc
      else
        let hi = lo + base + (if i < extra then 1 else 0) in
        go (i + 1) hi ((lo, hi) :: acc)
    in
    go 0 0 []
  end

(* The filler of a record array's slots before they are set. *)
let no_record = Wal.Commit { lsn = 0; txn = 0 }

(* Decode-phase work list: contiguous chunks of each disk's raw suffix
   [lo.(disk), len), oversplit 4x so a chunk of cheap records (commits)
   does not leave a domain idle behind a chunk of update records with
   full page images.  Each chunk decodes straight into its own slots of
   the disk's output array: chunks never share a slot. *)
let decode_from ?pool (raws : string array array) ~(lo : int array) : Wal.record array array =
  let pieces = 4 * pieces_of_pool pool in
  let out = Array.mapi (fun disk raw -> Array.make (Array.length raw - lo.(disk)) no_record) raws in
  let work =
    List.concat
      (List.init (Array.length raws) (fun disk ->
           List.map (fun (l, h) -> (disk, l, h)) (chunk_ranges ~len:(Array.length out.(disk)) ~pieces)))
  in
  ignore
    (map_list ?pool work ~f:(fun (disk, l, h) ->
         let raw = raws.(disk) and dst = out.(disk) and lo = lo.(disk) in
         for i = l to h - 1 do
           dst.(i) <- Wal.decode raw.(lo + i)
         done));
  out

(* --- peeked metadata ------------------------------------------------ *)

type meta = { raws : string array array; max_lsn : int; max_txn : int }

(* Journal LSNs strictly increase, so each journal's newest LSN is its
   last record's; txn ids do not, so every record's is peeked.  Even
   that pass is cheap next to decoding one page image. *)
let scan raws =
  let max_lsn = ref 0 and max_txn = ref 0 in
  Array.iter
    (fun raw ->
      let n = Array.length raw in
      if n > 0 then max_lsn := max !max_lsn (Wal.peek_lsn raw.(n - 1));
      Array.iter
        (fun s -> match Wal.peek_txn s with Some t when t > !max_txn -> max_txn := t | _ -> ())
        raw)
    raws;
  { raws; max_lsn = !max_lsn; max_txn = !max_txn }

let replay_start_raw raws =
  let best = ref 0 and best_lsn = ref (-1) in
  Array.iter
    (Array.iter (fun s ->
         if Wal.peek_is_fuzzy_checkpoint s then begin
           let lsn = Wal.peek_lsn s in
           if lsn > !best_lsn then
             (* Only checkpoint candidates pay for a checked decode. *)
             match Wal.decode s with
             | Wal.Fuzzy_checkpoint { start_lsn; _ } ->
               best_lsn := lsn;
               best := start_lsn
             | _ -> ()
         end))
    raws;
  !best

(* LSNs are issued globally and appended in issue order, so they
   strictly increase within each journal: binary search finds the first
   retained record at or past the replay start. *)
let suffix_starts meta ~start_lsn =
  Array.map
    (fun raw ->
      let lo = ref 0 and hi = ref (Array.length raw) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if Wal.peek_lsn raw.(mid) >= start_lsn then hi := mid else lo := mid + 1
      done;
      !lo)
    meta.raws

let committed ?(also = []) ~start_lsn records =
  (* Sized for a commit per four records: a typical log never resizes it. *)
  let committed = Hashtbl.create (Array.fold_left (fun n r -> n + Array.length r) 64 records / 4) in
  Array.iter
    (Array.iter (fun r ->
         match r with
         | Wal.Commit { lsn; txn } when lsn >= start_lsn -> Hashtbl.replace committed txn ()
         | _ -> ()))
    records;
  (* Externally-resolved transactions (2PC in-doubt winners whose local
     commit record was lost): replay treats them as committed even
     though no Commit record survives. *)
  List.iter (fun txn -> Hashtbl.replace committed txn ()) also;
  committed

(* --- in-doubt detection --------------------------------------------- *)

(* Prepared-but-undecided transactions, straight off the raw encodings
   ([Wal.peek_vote] decodes only the prepares).  Decisions are read
   only when some transaction is prepared, and only for those. *)
let in_doubt (raws : string array array) : (int * int) list =
  let prepared : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let each f = Array.iter (Array.iter (fun s -> f (Wal.peek_vote s))) raws in
  each (function `Prepared (txn, gid) -> Hashtbl.replace prepared txn gid | _ -> ());
  if Hashtbl.length prepared > 0 then
    each (function `Decided txn -> Hashtbl.remove prepared txn | _ -> ());
  List.sort compare (Hashtbl.fold (fun txn gid acc -> (txn, gid) :: acc) prepared [])

(* --- the replay pipeline ---------------------------------------------- *)

(* A format's route sends each record to an int code: [skip], or its
   page shifted left one bit, the low bit set when the page's fold
   needs the durable base image. *)
let skip = -1
let to_page page = page lsl 1
let to_based page = (page lsl 1) lor 1

(* A fold's decision for its page: nothing, an image always due, or a
   loser-only restore, due only when the durable base holds [lsn]. *)
type outcome = Keep | Write of bytes | Restore of { image : bytes; lsn : int }

(* One slot array holding every routed record, page [p]'s slice at
   [starts.(p), starts.(p + 1)): a k-way merge by LSN across the log
   disks drops each record at its page's cursor, so every slice comes
   out oldest first.  The merge needs each disk's LSNs to ascend, as
   [suffix_starts] does; a disk whose LSNs do not is corrupt. *)
let place records codes starts =
  let npages = Array.length starts - 1 in
  let slots = Array.make starts.(npages) no_record and next = Array.sub starts 0 npages in
  let disks = Array.length records in
  let head = Array.make disks 0 and head_lsn = Array.make disks min_int in
  (* Move disk [d]'s head to its first routed record at or after [i]. *)
  let advance d i =
    let codes = codes.(d) in
    let i = ref i in
    while !i < Array.length codes && codes.(!i) < 0 do incr i done;
    head.(d) <- !i;
    let lsn = if !i < Array.length codes then Wal.lsn records.(d).(!i) else max_int in
    if lsn <= head_lsn.(d) then raise (Wal.Corrupt "journal LSNs out of order");
    head_lsn.(d) <- lsn
  in
  for d = 0 to disks - 1 do advance d 0 done;
  for _ = 1 to Array.length slots do
    let d = ref 0 in
    for e = 1 to disks - 1 do
      if head_lsn.(e) < head_lsn.(!d) then d := e
    done;
    let d = !d in
    let i = head.(d) in
    let p = codes.(d).(i) asr 1 in
    slots.(next.(p)) <- records.(d).(i);
    next.(p) <- next.(p) + 1;
    advance d (i + 1)
  done;
  slots

(* The one pipeline every log format replays through (replay.mli's
   phases), given the format's [route] and per-page [fold].  Workers
   never touch the disk (or its counters): bases are read before the
   fan-out, and the calling domain writes the outcomes in ascending
   page order, reading a restore's page for its due check first.  So
   images, reads and writes are the same for any job count. *)
let replay ~pool ~read ~records ~start_lsn ~route ~fold ~write =
  let code r = if Wal.lsn r < start_lsn then skip else route r in
  let codes = Array.map (Array.map code) records in
  let npages = Array.fold_left (Array.fold_left (fun n c -> max n ((c asr 1) + 1))) 0 codes in
  let starts = Array.make (npages + 1) 0 and based = Array.make npages false in
  Array.iter
    (Array.iter (fun c ->
         if c >= 0 then begin
           let p = c asr 1 in
           starts.(p + 1) <- starts.(p + 1) + 1;
           if c land 1 = 1 then based.(p) <- true
         end))
    codes;
  for p = 1 to npages do
    starts.(p) <- starts.(p) + starts.(p - 1)
  done;
  let slots = place records codes starts in
  let bases =
    Array.init npages (fun page ->
        match read with
        | _ when not based.(page) -> Bytes.empty
        | Some read -> read ~page
        | None ->
          raise (Wal.Corrupt "a record needs its page's base image but no reader was given"))
  in
  (* The slots, the bases and the format's tables are frozen before the
     fan-out, so concurrent reads are safe. *)
  let outcomes = Array.make npages Keep and jobs = pieces_of_pool pool in
  ignore
    (map_list ?pool (List.init jobs Fun.id) ~f:(fun j ->
         let p = ref j in
         while !p < npages do
           let lo = starts.(!p) and hi = starts.(!p + 1) in
           if hi > lo then outcomes.(!p) <- fold ~base:bases.(!p) slots lo hi;
           p := !p + jobs
         done));
  Array.iteri
    (fun page -> function
      | Keep -> ()
      | Write image -> write ~page image
      | Restore { image; lsn } -> (
        match read with
        | Some read when Page.get_lsn (read ~page) < lsn -> ()
        | _ -> write ~page image))
    outcomes

(* --- sorted (physical and delta) replay ------------------------------ *)

module View = Wal_codec.View

(* A page's changes are its full images ([Wal.Update]) and changed byte
   ranges ([Wal.Delta]).  A slice chains off the page state before it,
   so a page with one asks for its base image. *)
let route_sorted = function
  | Wal.Update { page; _ } -> to_page page
  | Wal.Delta { page; _ } -> to_based page
  | _ -> skip

(* Delta-mode engines log {e every} volatile change to a page — updates
   and abort restores alike — so a page's retained changes form an
   unbroken chain of states s_0 -> s_1 -> ... -> s_n, and the durable
   base image is one of them (the one at its header LSN, written by the
   last data sync).  Rewinding copies the borrowed base and walks the
   changes at or below that LSN, newest first, backward from it to s_0.
   Slices never cover the page-header LSN: the change restores it —
   [prev_lsn] rewinding, its own LSN going forward.  DESIGN.md B.3
   carries the full argument. *)
let rewind base slots lo hi =
  let s = Bytes.copy base in
  let plsn = Page.get_lsn s in
  for i = hi - 1 downto lo do
    match slots.(i) with
    | Wal.Update { lsn; before; _ } when lsn <= plsn -> View.blit before s
    | Wal.Delta { lsn; off; before_slice; prev_lsn; _ } when lsn <= plsn ->
      Wal.apply_slice s ~off before_slice;
      Page.set_lsn s prev_lsn
    | _ -> ()
  done;
  s

(* Patch [img] forward through the slices in [lo, hi), oldest first. *)
let patch img slots lo hi =
  for i = lo to hi - 1 do
    match slots.(i) with
    | Wal.Delta { lsn; off; after_slice; _ } ->
      Wal.apply_slice img ~off after_slice;
      Page.set_lsn img lsn
    | _ -> ()
  done;
  img

(* The newest index in [lo, i] whose record [p] accepts, or [lo - 1]. *)
let rec newest p slots lo i = if i < lo || p slots.(i) then i else newest p slots lo (i - 1)

let is_update = function Wal.Update _ -> true | _ -> false

(* The sorted fold (the serial algorithm, preserved as Naive.Log_replay):
   the newest committed change's after image wins, and a page touched
   only by losers reverts to the before image of its oldest retained
   change.  That restore is due only when the durable base holds the
   change.  A base that predates it holds no loser effect (every update
   a base holds was forced to the log first, so its record is retained
   and would be the oldest), and neither does the before image: every
   force covers every log disk, so a crash loses only records appended
   after every record it keeps.  Base and before image then hold the
   same keys; the rule keeps the base as it is, page-header LSN
   included, instead of writing the before image.

   The one image written is the only one copied: a winner's state is
   the newest full after image at or before it (a view), or s_0 when
   there is none, patched forward by the slices in between.  Without a
   slice every state comes from a full image, and s_0 is never
   needed. *)
let fold_sorted committed =
  let won = function
    | Wal.Update { txn; _ } | Wal.Delta { txn; _ } -> Hashtbl.mem committed txn
    | _ -> false
  in
  fun ~base slots lo hi ->
    let w = newest won slots lo (hi - 1) in
    if w >= lo then begin
      let a = newest is_update slots lo w in
      let img =
        match if a >= lo then slots.(a) else no_record with
        | Wal.Update { after; _ } -> View.to_bytes after
        | _ -> rewind base slots lo hi
      in
      Write (patch img slots (a + 1) (w + 1))
    end
    else
      match slots.(lo) with
      | Wal.Update { lsn; before; _ } -> Restore { image = View.to_bytes before; lsn }
      | Wal.Delta { lsn; _ } -> Restore { image = rewind base slots lo hi; lsn }
      | _ -> Keep

let recover_sorted ?pool ?read ?(also_committed = []) ~(records : Wal.record array array)
    ~start_lsn ~write () =
  let committed = committed ~also:also_committed ~start_lsn records in
  replay ~pool ~read ~records ~start_lsn ~route:route_sorted ~fold:(fold_sorted committed) ~write

(* --- logical (operation-log) replay --------------------------------- *)

(* REDO-only re-execution for the no-steal operation-logging engine:
   committed operations, per page (the key -> page map is static),
   re-executed in LSN order onto a copy of the durable page image behind
   its header LSN, so operations the image already holds are skipped
   (idempotence).  Loser operations are never routed: no-steal means an
   uncommitted change never reached the durable image, so there is
   nothing to undo. *)
let recover_logical ?pool ?(also_committed = []) ~(records : Wal.record array array) ~start_lsn
    ~page_of ~read ~write () =
  let committed = committed ~also:also_committed ~start_lsn records in
  let route = function
    | Wal.Op { txn; key; _ } when Hashtbl.mem committed txn -> to_based (page_of key)
    | _ -> skip
  in
  let fold ~base slots lo hi =
    (* Every routed operation asks for its page's base.  The slice is
       oldest first, so the operations past the header LSN are a
       suffix: they are what the durable image is missing. *)
    let plsn = Page.get_lsn base in
    let m = ref hi in
    while !m > lo && Wal.lsn slots.(!m - 1) > plsn do decr m done;
    if !m = hi then Keep
    else begin
      let img = Bytes.copy base in
      for i = !m to hi - 1 do
        match slots.(i) with
        | Wal.Op { lsn; key; value; _ } ->
          ignore (Page.update img ~key ~value);
          Page.set_lsn img lsn
        | _ -> ()
      done;
      Write img
    end
  in
  replay ~pool ~read:(Some read) ~records ~start_lsn ~route ~fold ~write
