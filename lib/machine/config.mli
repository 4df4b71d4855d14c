(** Database machine configuration.

    The paper's baseline machine has 25 query processors (VAX 11/750
    class), 100 cache frames of 4 KB, and 2 data disks (IBM 3350 or
    parallel-access); Table 3 uses a larger machine with 75 query
    processors and 150 frames. *)

type arrivals =
  | Batch  (** the paper's closed model: all transactions queued at t=0 *)
  | Poisson of float
      (** open model (extension): exponential interarrival times with
          the given mean in ms; completion times then measure response
          time from arrival, including any admission wait *)

type scratch_placement =
  | Adjacent  (** scratch ring right above the data zone (short seeks) *)
  | Far_end  (** scratch ring at the far end of the disk (long seeks) *)

type t = {
  n_query_processors : int;
  n_cache_frames : int;
  n_data_disks : int;
  disk : Dbm_disk.Params.t;
  layout : Dbm_disk.Layout.t;  (** physical layout of the drives *)
  data_scramble : int option;
      (** when set, data pages are scattered (by a seeded permutation)
          within each disk's data zone instead of staying physically
          clustered — the shadow-mechanism drift of Table 7 *)
  cpu_ms_per_page : float;  (** query-processor time to process one page *)
  mpl : int;  (** multiprogramming level (concurrent transactions) *)
  read_batch : int;  (** max pages per anticipatory read batch *)
  db_pages : int;  (** database size in pages, striped over the disks *)
  page_size_bytes : int;
  scratch_placement : scratch_placement;
      (** where the overwriting architectures' scratch ring lives; the
          paper's arm-travel penalty assumes {!Far_end} (the default) —
          {!Adjacent} is the ablation *)
  drive_coalesce : bool;
      (** whether parallel-access data drives absorb queued same-kind
          same-cylinder requests into one access (Section 4.1.2);
          disabling it is an ablation *)
  arrivals : arrivals;
  seed : int;  (** seed for machine-internal randomness *)
}

val paper_base : t
(** 25 QPs, 100 frames, 2 conventional (IBM 3350) disks, 16,384-page
    database. *)

val with_parallel_disks : t -> t
(** Swap the data disks for parallel-access drives. *)

val with_scramble : int -> t -> t
(** Scatter the data pages within each disk's data zone using the given
    permutation seed. *)

val table3_machine : t
(** The Section 4.1.2 machine: 75 QPs, 150 frames, 2 parallel-access
    disks. *)

val validate : t -> unit
(** @raise Invalid_argument when the configuration is inconsistent
    (e.g. database larger than the disks, non-positive counts). *)

val feed_digest : Dbm_util.Digest.t -> t -> unit
(** Feed every result-affecting field into a run digest, in declaration
    order (canonical-serialization contract of {!Dbm_util.Digest}). *)

val data_zone_pages : t -> int
(** Pages reserved for the data zone on each disk: [db_pages] striped in
    cylinder-sized chunks, rounded up to whole chunks. *)

val locate : t -> page:int -> int * int
(** [locate t ~page] is [(disk_index, disk_local_page)].  The database
    is striped across the disks in cylinder-sized chunks so that
    sequential runs stay physically sequential on each disk while both
    disks share the load. *)

val locate_fns : t -> (int -> int) * (int -> int)
(** [locate_fns t] is [(disk_of, local_of)] such that
    [locate t ~page = (disk_of page, local_of page)], with the
    geometry (and any scramble coefficients) resolved once so the
    per-page calls allocate nothing.  Partially apply outside loops. *)
