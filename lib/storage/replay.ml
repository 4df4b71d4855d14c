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

(* Decode-phase work list: contiguous chunks of each disk's raw suffix
   [lo.(disk), len), oversplit 4x so a chunk of cheap records (commits)
   does not leave a domain idle behind a chunk of update records with
   full page images. *)
let decode_from ?pool (raws : string array array) ~(lo : int array) : Wal.record array array =
  let pieces = 4 * pieces_of_pool pool in
  let work =
    List.concat
      (List.init (Array.length raws) (fun disk ->
           List.map
             (fun (o, h) -> (disk, lo.(disk) + o, lo.(disk) + h))
             (chunk_ranges ~len:(Array.length raws.(disk) - lo.(disk)) ~pieces)))
  in
  let out =
    Array.mapi
      (fun disk raw ->
        Array.make (Array.length raw - lo.(disk)) (Wal.Commit { lsn = 0; txn = 0 }))
      raws
  in
  let chunks =
    map_list ?pool work ~f:(fun (disk, l, h) ->
        let raw = raws.(disk) in
        (disk, l, Array.init (h - l) (fun i -> Wal.decode raw.(l + i))))
  in
  List.iter
    (fun (disk, l, decoded) -> Array.blit decoded 0 out.(disk) (l - lo.(disk)) (Array.length decoded))
    chunks;
  out

(* --- peeked metadata ------------------------------------------------ *)

type meta = { lsns : int array array; txns : int array array }

(* Two fixed-offset loads per record and no checksum pass, so even a
   full-log scan is cheap next to decoding one page image; recovery
   takes its epilogue maxima from this instead of from the decoded
   prefix it no longer has. *)
let scan raws =
  {
    lsns = Array.map (Array.map Wal.peek_lsn) raws;
    txns =
      Array.map
        (Array.map (fun s -> match Wal.peek_txn s with Some t -> t | None -> -1))
        raws;
  }

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
    (fun lsns ->
      let lo = ref 0 and hi = ref (Array.length lsns) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if lsns.(mid) >= start_lsn then hi := mid else lo := mid + 1
      done;
      !lo)
    meta.lsns

let committed ?(also = []) ~start_lsn records =
  let committed = Hashtbl.create 64 in
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

(* Prepared-but-undecided transactions, straight off the raw encodings:
   a Prepare record whose transaction has no later Commit/Abort record
   anywhere in the logs ([Wal.peek_vote] decodes only the prepares). *)
let in_doubt (raws : string array array) : (int * int) list =
  let prepared : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let decided : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (Array.iter (fun s ->
         match Wal.peek_vote s with
         | `Prepared (txn, gid) -> Hashtbl.replace prepared txn gid
         | `Decided txn -> Hashtbl.replace decided txn ()
         | `Other -> ()))
    raws;
  Hashtbl.fold
    (fun txn gid acc -> if Hashtbl.mem decided txn then acc else (txn, gid) :: acc)
    prepared []
  |> List.sort compare

(* The per-page fold, verbatim from the serial algorithm (preserved as
   Naive.Log_replay): last committed after-image wins; a page touched
   only by losers reverts to the before image of its earliest retained
   update, guarded by that update's LSN (see [restore_due]).  LSNs are
   globally unique, so the sort is a total order. *)
let page_state committed updates =
  let ordered = List.sort (fun (a, _, _, _) (b, _, _, _) -> Int.compare a b) updates in
  List.fold_left
    (fun acc (lsn, txn, before, after) ->
      if Hashtbl.mem committed txn then Some (after, None)
      else match acc with None -> Some (before, Some lsn) | Some _ -> acc)
    None ordered

(* A loser-only page's restore is due only when the durable base holds
   the guarding update (base LSN >= guard).  A base that predates it
   holds no loser effect at all: every update a base holds was forced
   to the log before the data disk, so its record is retained and would
   be the earliest.  The before image, though, may hold a loser update
   whose record a partial force left volatile on another log disk. *)
let restore_due ~read ~page = function
  | None -> true
  | Some lsn -> Page.get_lsn (read ~page) >= lsn

(* --- delta expansion ------------------------------------------------ *)

(* Reconstruct full (lsn, txn, before, after) images for one page's
   mixed Update/Delta record chain, [recs] ascending by LSN.

   Delta-mode engines log {e every} volatile change to a page — updates
   and abort restores alike — so the retained records for a page form an
   unbroken chain of states s_0 -> s_1 -> ... -> s_n, and the durable
   disk image [base] is one of those states (the one at the page's
   header LSN, written by the last data sync).  Records at or below
   that LSN are walked {e backward} from the base (patching each
   before-slice over the image) to recover s_0; the forward pass then
   rebuilds every record's full images, resetting the chain at any full
   Update record it meets (the engine logs one whenever a page turns
   dirty, anchoring every replay window).  Delta slices never cover the
   page-header LSN: it is restored from the record itself — [prev_lsn]
   rewinding, [lsn] going forward.  DESIGN.md B.3 carries the full
   argument. *)
let expand_page ~base recs =
  let plsn = Page.get_lsn base in
  let img = Bytes.copy base in
  (* Backward to s_0 over the records the disk image already holds. *)
  let covered = List.filter (fun r -> Wal.lsn r <= plsn) recs in
  List.iter
    (fun r ->
      match r with
      | Wal.Update { before; _ } -> Bytes.blit before 0 img 0 (Bytes.length before)
      | Wal.Delta { off; before_slice; prev_lsn; _ } ->
        Wal.apply_slice img ~off before_slice;
        Page.set_lsn img prev_lsn
      | _ -> ())
    (List.rev covered);
  (* Forward, snapshotting each state exactly once: entry i's after
     image IS entry i+1's before image, never mutated after creation. *)
  let cur = ref img in
  List.map
    (fun r ->
      match r with
      | Wal.Update { lsn; txn; before; after; _ } ->
        cur := after;
        (lsn, txn, before, after)
      | Wal.Delta { lsn; txn; off; after_slice; _ } ->
        let before = !cur in
        let after = Bytes.copy before in
        Wal.apply_slice after ~off after_slice;
        Page.set_lsn after lsn;
        cur := after;
        (lsn, txn, before, after)
      | _ -> assert false)
    recs

let recover_sorted ?pool ?read ?(also_committed = []) ~(records : Wal.record array array)
    ~start_lsn ~write () =
  let committed = committed ~also:also_committed ~start_lsn records in
  let nparts = pieces_of_pool pool in
  let buckets = Array.make nparts [] in
  let delta_pages = Hashtbl.create 16 in
  Array.iter
    (Array.iter (fun r ->
         match r with
         | Wal.Update { lsn; page; _ } when lsn >= start_lsn ->
           let b = page mod nparts in
           buckets.(b) <- (page, r) :: buckets.(b)
         | Wal.Delta { lsn; page; _ } when lsn >= start_lsn ->
           let b = page mod nparts in
           buckets.(b) <- (page, r) :: buckets.(b);
           Hashtbl.replace delta_pages page ()
         | _ -> ()))
    records;
  (* Pages with delta records need their durable base image; snapshot
     them serially on the calling domain, before the fan-out, so worker
     domains never touch the disk (or its operation counters). *)
  let bases : (int, bytes) Hashtbl.t = Hashtbl.create (Hashtbl.length delta_pages) in
  (match read with
  | Some read -> Hashtbl.iter (fun page () -> Hashtbl.replace bases page (read ~page)) delta_pages
  | None ->
    if Hashtbl.length delta_pages > 0 then
      raise (Wal.Corrupt "delta records in the log but no base-image reader"));
  let images =
    map_list ?pool (List.init nparts Fun.id) ~f:(fun b ->
        (* Group this partition's records per page; the committed and
           base tables are frozen before the fan-out, so concurrent
           reads are safe. *)
        let by_page : (int, Wal.record list) Hashtbl.t = Hashtbl.create 64 in
        List.iter
          (fun (page, r) ->
            let prev = Option.value (Hashtbl.find_opt by_page page) ~default:[] in
            Hashtbl.replace by_page page (r :: prev))
          buckets.(b);
        let pages =
          Hashtbl.fold
            (fun page recs acc ->
              let ordered =
                List.sort (fun a b -> Int.compare (Wal.lsn a) (Wal.lsn b)) recs
              in
              let updates =
                if List.exists (function Wal.Delta _ -> true | _ -> false) ordered then
                  expand_page ~base:(Hashtbl.find bases page) ordered
                else
                  List.map
                    (function
                      | Wal.Update { lsn; txn; before; after; _ } -> (lsn, txn, before, after)
                      | _ -> assert false)
                    ordered
              in
              match page_state committed updates with
              | Some (image, guard) -> (page, image, guard) :: acc
              | None -> acc)
            by_page []
        in
        List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) pages)
  in
  (* Partitions hold disjoint page sets, so a merge by ascending page is
     a plain sort; each page is written at most once, and read (for a
     restore guard) before it is written. *)
  List.concat images
  |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
  |> List.iter (fun (page, image, guard) ->
         let due = match read with Some read -> restore_due ~read ~page guard | None -> true in
         if due then write ~page image)

(* --- logical (operation-log) replay --------------------------------- *)

(* REDO-only re-execution for the no-steal operation-logging engine:
   committed operations, grouped per page (the key -> page map is
   static), re-executed in global LSN order onto the durable page image,
   guarded by the page header LSN so already-applied operations are
   skipped (idempotence).  Loser operations are ignored outright —
   no-steal means an uncommitted change never reached the durable image,
   so there is nothing to undo. *)
let recover_logical ?pool ?(also_committed = []) ~(records : Wal.record array array) ~start_lsn
    ~page_of ~read ~write () =
  let committed = committed ~also:also_committed ~start_lsn records in
  let nparts = pieces_of_pool pool in
  let buckets = Array.make nparts [] in
  let touched = Hashtbl.create 64 in
  Array.iter
    (Array.iter (fun r ->
         match r with
         | Wal.Op { lsn; txn; key; value } when lsn >= start_lsn && Hashtbl.mem committed txn ->
           let page = page_of key in
           let b = page mod nparts in
           buckets.(b) <- (page, lsn, key, value) :: buckets.(b);
           Hashtbl.replace touched page ()
         | _ -> ()))
    records;
  let bases : (int, bytes) Hashtbl.t = Hashtbl.create (Hashtbl.length touched) in
  Hashtbl.iter (fun page () -> Hashtbl.replace bases page (read ~page)) touched;
  let images =
    map_list ?pool (List.init nparts Fun.id) ~f:(fun b ->
        let by_page : (int, (int * int * string option) list) Hashtbl.t = Hashtbl.create 64 in
        List.iter
          (fun (page, lsn, key, value) ->
            let prev = Option.value (Hashtbl.find_opt by_page page) ~default:[] in
            Hashtbl.replace by_page page ((lsn, key, value) :: prev))
          buckets.(b);
        let pages =
          Hashtbl.fold
            (fun page ops acc ->
              let img = Hashtbl.find bases page in
              let plsn = Page.get_lsn img in
              let ordered = List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) ops in
              let applied = ref false in
              (* [ordered] ascends, so [lsn > plsn] holds for a suffix:
                 the first re-executed operation is the first one the
                 durable image is missing. *)
              List.iter
                (fun (lsn, key, value) ->
                  if lsn > plsn then begin
                    Page.update img ~key ~value;
                    Page.set_lsn img lsn;
                    applied := true
                  end)
                ordered;
              if !applied then (page, img) :: acc else acc)
            by_page []
        in
        List.sort (fun (a, _) (b, _) -> Int.compare a b) pages)
  in
  List.concat images
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.iter (fun (page, image) -> write ~page image)
