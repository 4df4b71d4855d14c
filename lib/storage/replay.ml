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
   full page images.  Each chunk decodes straight into its own slots of
   the disk's output array: chunks never share a slot. *)
let decode_from ?pool (raws : string array array) ~(lo : int array) : Wal.record array array =
  let pieces = 4 * pieces_of_pool pool in
  let out =
    Array.mapi
      (fun disk raw ->
        Array.make (Array.length raw - lo.(disk)) (Wal.Commit { lsn = 0; txn = 0 }))
      raws
  in
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
type dest = Skip | To of int | To_based of int

(* The one pipeline every log format replays through.  The format
   supplies [route] and the per-page [fold]:
   1. each decoded record at or past [start_lsn] is routed to its page
      and grouped with the page's other records; pages are partitioned
      by [page mod jobs], so partitions own disjoint pages;
   2. the base images routes ask for are read on the calling domain,
      before the fan-out, so workers never touch the disk (or its
      operation counters);
   3. partitions fan out across the pool;
   4. [fold ~base records] folds one page's records, newest first (LSNs
      are globally unique, a total order), into the image to write and
      the base LSN that write needs ([None]: always due), or nothing to
      write.  [base] is the fold's own copy;
   5. each image is written at most once, in ascending page order: a
      page is read for its due check before it is written.
   Folds are per page and pages do not straddle partitions, so images,
   reads and writes are the same for any job count. *)
let replay ~pool ~read ~records ~start_lsn ~route ~fold ~write =
  let nparts = pieces_of_pool pool in
  let parts = Array.init nparts (fun _ -> Hashtbl.create 64) and based = Hashtbl.create 16 in
  let add page r =
    let part = parts.(page mod nparts) in
    match Hashtbl.find_opt part page with
    | Some changes -> changes := r :: !changes
    | None -> Hashtbl.add part page (ref [ r ])
  in
  Array.iter
    (Array.iter (fun r ->
         if Wal.lsn r >= start_lsn then
           match route r with
           | Skip -> ()
           | To page -> add page r
           | To_based page ->
             add page r;
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
          let newest_first = List.sort (fun a b -> Int.compare (Wal.lsn b) (Wal.lsn a)) !changes in
          match fold ~base:(Hashtbl.find_opt bases page) newest_first with
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

module View = Wal_codec.View

(* A page's changes are its full images ([Wal.Update]) and changed byte
   ranges ([Wal.Delta]).  A slice chains off the page state before it,
   so a page with one asks for its base image. *)
let route_sorted = function
  | Wal.Update { page; _ } -> To page
  | Wal.Delta { page; _ } -> To_based page
  | _ -> Skip

(* Delta-mode engines log {e every} volatile change to a page — updates
   and abort restores alike — so a page's retained changes form an
   unbroken chain of states s_0 -> s_1 -> ... -> s_n, and the durable
   base image is one of them (the one at its header LSN, written by the
   last data sync).  Rewinding walks the changes at or below that LSN,
   newest first, backward from the base to s_0, in place.  Slices never
   cover the page-header LSN: the change restores it — [prev_lsn]
   rewinding, its own LSN going forward.  DESIGN.md B.3 carries the
   full argument. *)
let rewind base changes =
  let plsn = Page.get_lsn base in
  List.iter
    (function
      | Wal.Update { lsn; before; _ } when lsn <= plsn -> View.blit before base
      | Wal.Delta { lsn; off; before_slice; prev_lsn; _ } when lsn <= plsn ->
        Wal.apply_slice base ~off before_slice;
        Page.set_lsn base prev_lsn
      | _ -> ())
    changes;
  base

(* Patch [img] forward through [slices], oldest first. *)
let patch img slices =
  List.iter
    (function
      | Wal.Delta { lsn; off; after_slice; _ } ->
        Wal.apply_slice img ~off after_slice;
        Page.set_lsn img lsn
      | _ -> ())
    slices;
  img

let rec oldest = function [ r ] -> Some r | _ :: older -> oldest older | [] -> None

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
let fold_sorted committed ~base changes =
  let s0 () = rewind (Option.get base) changes in
  let rec winner = function
    | ((Wal.Update { txn; _ } | Wal.Delta { txn; _ }) :: _) as from when Hashtbl.mem committed txn ->
      Some from
    | _ :: older -> winner older
    | [] -> None
  in
  let rec build slices = function
    | Wal.Update { after; _ } :: _ -> patch (View.to_bytes after) slices
    | (Wal.Delta _ as d) :: older -> build (d :: slices) older
    | _ :: older -> build slices older
    | [] -> patch (s0 ()) slices
  in
  match winner changes with
  | Some from -> Some (build [] from, None)
  | None -> (
    match oldest changes with
    | Some (Wal.Update { lsn; before; _ }) -> Some (View.to_bytes before, Some lsn)
    | Some (Wal.Delta { lsn; _ }) -> Some (s0 (), Some lsn)
    | _ -> None)

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
    | Wal.Op { txn; key; _ } when Hashtbl.mem committed txn -> To_based (page_of key)
    | _ -> Skip
  in
  let fold ~base ops =
    (* Every routed operation asks for its page's base. *)
    let img = Option.get base in
    let plsn = Page.get_lsn img in
    (* [ops] is newest first, so the operations past the header LSN are
       a prefix: gathered oldest first, they are what the durable image
       is missing. *)
    let rec missing acc = function
      | (Wal.Op { lsn; _ } as op) :: older when lsn > plsn -> missing (op :: acc) older
      | _ -> acc
    in
    match missing [] ops with
    | [] -> None
    | ops ->
      List.iter
        (function
          | Wal.Op { lsn; key; value; _ } ->
            ignore (Page.update img ~key ~value);
            Page.set_lsn img lsn
          | _ -> ())
        ops;
      Some (img, None)
  in
  replay ~pool ~read:(Some read) ~records ~start_lsn ~route ~fold ~write
