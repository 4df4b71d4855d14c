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

(* --- the replay pipeline ---------------------------------------------- *)

(* Where a format's route sends one decoded record: to its page, to its
   page with a read of the page's durable base image, or nowhere. *)
type 'a dest = Skip | To of int * 'a | To_based of int * 'a

(* The one pipeline every log format replays through.  The format
   supplies [route] and the per-page [fold]:
   1. each decoded record at or past [start_lsn] is routed to its page
      and grouped with the page's other changes; pages are partitioned
      by [page mod jobs], so partitions own disjoint pages;
   2. the base images routes ask for are read on the calling domain,
      before the fan-out, so workers never touch the disk (or its
      operation counters);
   3. partitions fan out across the pool;
   4. [fold ~base changes] folds one page's changes, ascending by LSN
      (LSNs are globally unique, a total order), into the image to
      write and the base LSN that write needs ([None]: always due), or
      nothing to write;
   5. each image is written at most once, in ascending page order: a
      page is read for its due check before it is written.
   Folds are per page and pages do not straddle partitions, so images,
   reads and writes are the same for any job count. *)
let replay ~pool ~read ~records ~start_lsn ~route ~fold ~write =
  let nparts = pieces_of_pool pool in
  let parts = Array.init nparts (fun _ -> Hashtbl.create 64) and based = Hashtbl.create 16 in
  let add page lsn x =
    let part = parts.(page mod nparts) in
    match Hashtbl.find_opt part page with
    | Some changes -> changes := (lsn, x) :: !changes
    | None -> Hashtbl.add part page (ref [ (lsn, x) ])
  in
  Array.iter
    (Array.iter (fun r ->
         let lsn = Wal.lsn r in
         if lsn >= start_lsn then
           match route r with
           | Skip -> ()
           | To (page, x) -> add page lsn x
           | To_based (page, x) ->
             add page lsn x;
             Hashtbl.replace based page ()))
    records;
  let bases = Hashtbl.create (Hashtbl.length based) in
  Hashtbl.iter
    (fun page () ->
      match read with
      | Some read -> Hashtbl.replace bases page (read ~page)
      | None -> raise (Wal.Corrupt "a record needs its page's base image but no reader was given"))
    based;
  (* The bases and the format's tables are frozen before the fan-out, so
     concurrent reads are safe. *)
  map_list ?pool (Array.to_list parts) ~f:(fun part ->
      Hashtbl.fold
        (fun page changes acc ->
          let changes = List.sort (fun (a, _) (b, _) -> Int.compare a b) !changes in
          match fold ~base:(Hashtbl.find_opt bases page) changes with
          | Some (image, due) -> (page, image, due) :: acc
          | None -> acc)
        part [])
  |> List.concat
  |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
  |> List.iter (fun (page, image, due) ->
         match (due, read) with
         | Some lsn, Some read when Page.get_lsn (read ~page) < lsn -> ()
         | _ -> write ~page image)

(* --- sorted (physical and delta) replay ------------------------------ *)

(* One retained change to a page: full images ([Wal.Update]) or a
   changed byte range ([Wal.Delta]). *)
type change =
  | Image of { txn : int; before : bytes; after : bytes }
  | Slice of { txn : int; off : int; prev_lsn : int; before_slice : string; after_slice : string }

(* A slice chains off the page state before it, so a page with one asks
   for its base image. *)
let route_sorted = function
  | Wal.Update { txn; page; before; after; _ } -> To (page, Image { txn; before; after })
  | Wal.Delta { txn; page; off; prev_lsn; before_slice; after_slice; _ } ->
    To_based (page, Slice { txn; off; prev_lsn; before_slice; after_slice })
  | _ -> Skip

(* Delta-mode engines log {e every} volatile change to a page — updates
   and abort restores alike — so a page's retained changes form an
   unbroken chain of states s_0 -> s_1 -> ... -> s_n, and the durable
   base image is one of them (the one at its header LSN, written by the
   last data sync).  Rewinding walks the changes at or below that LSN
   {e backward} from the base to s_0.  Slices never cover the page-header
   LSN: the change restores it — [prev_lsn] rewinding, its own LSN going
   forward.  DESIGN.md B.3 carries the full argument. *)
let rewind base changes =
  let plsn = Page.get_lsn base and img = Bytes.copy base in
  List.iter
    (fun (lsn, c) ->
      if lsn <= plsn then
        match c with
        | Image { before; _ } -> Bytes.blit before 0 img 0 (Bytes.length before)
        | Slice { off; before_slice; prev_lsn; _ } ->
          Wal.apply_slice img ~off before_slice;
          Page.set_lsn img prev_lsn)
    (List.rev changes);
  img

(* The sorted fold (the serial algorithm, preserved as Naive.Log_replay):
   walking forward from s_0 rebuilds each change's before and after
   images, re-anchoring at every full image; the last committed after
   image wins, and a page touched only by losers reverts to the before
   image of its earliest retained change.  That restore is due only
   when the durable base holds the change.  A base that predates it
   holds no loser effect (every update a base holds was forced to the
   log first, so its record is retained and would be the earliest), and
   neither does the before image: every force covers every log disk, so
   a crash loses only records appended after every record it keeps.
   Base and before image then hold the same keys; the rule keeps the
   base as it is, page-header LSN included, instead of writing the
   before image. *)
let fold_sorted committed ~base changes =
  (* Without a slice every state comes from a full image: no s_0. *)
  let cur = ref (match base with Some base -> rewind base changes | None -> Bytes.empty) in
  List.fold_left
    (fun acc (lsn, c) ->
      let txn, before, after =
        match c with
        | Image { txn; before; after } -> (txn, before, after)
        | Slice { txn; off; after_slice; _ } ->
          let after = Bytes.copy !cur in
          Wal.apply_slice after ~off after_slice;
          Page.set_lsn after lsn;
          (txn, !cur, after)
      in
      cur := after;
      if Hashtbl.mem committed txn then Some (after, None)
      else match acc with None -> Some (before, Some lsn) | Some _ -> acc)
    None changes

let recover_sorted ?pool ?read ?(also_committed = []) ~(records : Wal.record array array)
    ~start_lsn ~write () =
  let committed = committed ~also:also_committed ~start_lsn records in
  replay ~pool ~read ~records ~start_lsn ~route:route_sorted ~fold:(fold_sorted committed) ~write

(* --- logical (operation-log) replay --------------------------------- *)

(* REDO-only re-execution for the no-steal operation-logging engine:
   committed operations, per page (the key -> page map is static),
   re-executed in LSN order onto the durable page image behind its
   header LSN, so operations the image already holds are skipped
   (idempotence).  Loser operations are never routed: no-steal means an
   uncommitted change never reached the durable image, so there is
   nothing to undo. *)
let recover_logical ?pool ?(also_committed = []) ~(records : Wal.record array array) ~start_lsn
    ~page_of ~read ~write () =
  let committed = committed ~also:also_committed ~start_lsn records in
  let route = function
    | Wal.Op { txn; key; value; _ } when Hashtbl.mem committed txn ->
      To_based (page_of key, (key, value))
    | _ -> Skip
  in
  let fold ~base ops =
    (* Every routed operation asks for its page's base. *)
    let img = Option.get base in
    let plsn = Page.get_lsn img in
    (* [ops] ascends, so the operations past the header LSN are a
       suffix: the first one is the first the durable image is
       missing. *)
    match List.filter (fun (lsn, _) -> lsn > plsn) ops with
    | [] -> None
    | missing ->
      List.iter
        (fun (lsn, (key, value)) ->
          Page.update img ~key ~value;
          Page.set_lsn img lsn)
        missing;
      Some (img, None)
  in
  replay ~pool ~read:(Some read) ~records ~start_lsn ~route ~fold ~write
