type arrivals = Batch | Poisson of float

type scratch_placement = Adjacent | Far_end

type t = {
  n_query_processors : int;
  n_cache_frames : int;
  n_data_disks : int;
  disk : Dbm_disk.Params.t;
  layout : Dbm_disk.Layout.t;
  data_scramble : int option;
  cpu_ms_per_page : float;
  mpl : int;
  read_batch : int;
  db_pages : int;
  page_size_bytes : int;
  scratch_placement : scratch_placement;
  drive_coalesce : bool;
  arrivals : arrivals;
  seed : int;
}

let paper_base =
  {
    n_query_processors = 25;
    n_cache_frames = 100;
    n_data_disks = 2;
    disk = Dbm_disk.Params.ibm_3350;
    layout = Dbm_disk.Layout.Sequential;
    data_scramble = None;
    cpu_ms_per_page = 40.0;
    mpl = 3;
    read_batch = 16;
    db_pages = 16384;
    page_size_bytes = 4096;
    scratch_placement = Far_end;
    drive_coalesce = true;
    arrivals = Batch;
    seed = 7;
  }

let with_parallel_disks t = { t with disk = Dbm_disk.Params.parallel_access }

let with_scramble seed t = { t with data_scramble = Some seed }

let table3_machine =
  {
    paper_base with
    n_query_processors = 75;
    n_cache_frames = 150;
    disk = Dbm_disk.Params.parallel_access;
    mpl = 4;
    read_batch = 32;
  }

(* Canonical serialization for content-addressed run caching: every
   field that can influence a simulation result is fed, in declaration
   order, with variant constructors reduced to tags. *)
let feed_digest d t =
  let module D = Dbm_util.Digest in
  D.string d "machine-config";
  D.int d t.n_query_processors;
  D.int d t.n_cache_frames;
  D.int d t.n_data_disks;
  Dbm_disk.Params.feed_digest d t.disk;
  Dbm_disk.Layout.feed_digest d t.layout;
  (match t.data_scramble with
  | None -> D.tag d 0
  | Some s ->
    D.tag d 1;
    D.int d s);
  D.float d t.cpu_ms_per_page;
  D.int d t.mpl;
  D.int d t.read_batch;
  D.int d t.db_pages;
  D.int d t.page_size_bytes;
  D.tag d (match t.scratch_placement with Adjacent -> 0 | Far_end -> 1);
  D.bool d t.drive_coalesce;
  (match t.arrivals with
  | Batch -> D.tag d 0
  | Poisson mean ->
    D.tag d 1;
    D.float d mean);
  D.int d t.seed

(* Size of the data zone on each disk: whole cylinder-sized chunks, so
   the last (possibly partial) stripe chunk still fits. *)
let data_zone_pages t =
  let chunk = Dbm_disk.Params.pages_per_cylinder t.disk in
  let total_chunks = (t.db_pages + chunk - 1) / chunk in
  let chunks_per_disk = (total_chunks + t.n_data_disks - 1) / t.n_data_disks in
  chunks_per_disk * chunk

let validate t =
  if t.n_query_processors <= 0 then invalid_arg "Config: need at least one query processor";
  if t.n_cache_frames <= 0 then invalid_arg "Config: need at least one cache frame";
  if t.n_data_disks <= 0 then invalid_arg "Config: need at least one data disk";
  if t.mpl <= 0 then invalid_arg "Config: multiprogramming level must be positive";
  if t.read_batch <= 0 then invalid_arg "Config: read batch must be positive";
  if t.cpu_ms_per_page < 0.0 then invalid_arg "Config: negative cpu cost";
  if t.db_pages <= 0 then invalid_arg "Config: empty database";
  (match t.arrivals with
  | Poisson mean when mean <= 0.0 -> invalid_arg "Config: non-positive interarrival mean"
  | Poisson _ | Batch -> ());
  (* Leave headroom on each disk for the scratch and differential zones. *)
  let capacity = Dbm_disk.Params.total_pages t.disk * t.n_data_disks in
  if t.db_pages * 2 > capacity then
    invalid_arg "Config: database does not fit in half the disk capacity"

let locate t ~page =
  if page < 0 || page >= t.db_pages then invalid_arg "Config.locate: page out of range";
  let chunk_pages = Dbm_disk.Params.pages_per_cylinder t.disk in
  let chunk = page / chunk_pages in
  let within = page mod chunk_pages in
  let disk = chunk mod t.n_data_disks in
  let local_chunk = chunk / t.n_data_disks in
  let local = (local_chunk * chunk_pages) + within in
  match t.data_scramble with
  | None -> (disk, local)
  | Some seed ->
    (* Scatter within the disk's data zone only: the scratch and
       differential zones keep their physical sequentiality. *)
    (disk, Dbm_disk.Layout.permutation ~seed ~n:(data_zone_pages t) local)

(* The same mapping as {!locate}, resolved once into a pair of
   allocation-free closures for per-page loops: no result tuple, and
   for scrambled configurations no trip through the shared permutation
   coefficient cache. *)
let locate_fns t =
  let chunk_pages = Dbm_disk.Params.pages_per_cylinder t.disk in
  let n_disks = t.n_data_disks in
  let db_pages = t.db_pages in
  let check page =
    if page < 0 || page >= db_pages then invalid_arg "Config.locate: page out of range"
  in
  let disk_of page =
    check page;
    page / chunk_pages mod n_disks
  in
  let plain page =
    check page;
    let chunk = page / chunk_pages in
    ((chunk / n_disks) * chunk_pages) + (page mod chunk_pages)
  in
  let local_of =
    match t.data_scramble with
    | None -> plain
    | Some seed ->
      let perm = Dbm_disk.Layout.permutation_fn ~seed ~n:(data_zone_pages t) in
      fun page -> perm (plain page)
  in
  (disk_of, local_of)
