(** Transaction workload generator.

    Follows Section 4 of the paper: a transaction is modelled by the
    pages it accesses; the number of pages is uniform on
    [\[min_pages, max_pages\]] (1 to 250 in the paper); the reference
    string is either random (distinct pages drawn uniformly from the
    database) or sequential (a run of consecutive pages from a random
    starting point); and the write set is a random subset of the read
    set, [write_fraction] (20 %) of the pages read. *)

type pattern =
  | Random_access
  | Sequential
  | Hotspot of { hot_fraction : float; hot_access_prob : float }
      (** extension beyond the paper: a [hot_fraction] of the database
          receives [hot_access_prob] of the accesses (e.g. 0.05/0.8 for
          a 5%% region drawing 80%% of references), producing the page
          lock contention a uniform reference string never shows *)
  | Zipfian of { theta : float }
      (** extension beyond the paper: page [p] is referenced with
          probability proportional to [1/(p+1)^theta] (page 0 hottest),
          the skew standard benchmarks use ([theta] ~ 0.99 for
          YCSB-like traffic).  Larger [theta] = sharper skew. *)

type txn = {
  id : int;
  pages : int array;  (** logical page numbers, in reference order *)
  writes : bool array;  (** [writes.(i)] - [pages.(i)] is updated *)
}

type config = {
  n_transactions : int;
  min_pages : int;
  max_pages : int;
  write_fraction : float;
  pattern : pattern;
  db_pages : int;  (** database size in pages *)
  seed : int;
}

val default : config
(** The paper's workload: 1-250 pages uniform, 20 % writes, random
    pattern, 50 transactions over a 16,384-page database, seed 42. *)

val feed_config : Dbm_util.Digest.t -> config -> unit
(** Feed every field of the generator configuration into a run digest,
    in declaration order (canonical-serialization contract of
    {!Dbm_util.Digest}). *)

val generate : config -> txn array
(** Deterministic in [config.seed].
    @raise Invalid_argument on nonsensical configurations (empty
    database, [max_pages > db_pages], bad hotspot parameters,
    negative sizes, ...). *)

(** {2 Transaction-size distributions}

    The paper's workload draws transaction sizes uniformly; real
    transaction mixes are heavy-tailed — mostly small transactions with
    a long tail of big batch jobs.  A {!size_dist} replaces the uniform
    draw; the page-count range of the {!config} still clips every draw,
    so the tail mass accumulates at [max_pages]. *)

type size_dist =
  | Uniform_size  (** the paper's draw: uniform on [\[min_pages, max_pages\]] *)
  | Pareto_size of { alpha : float }
      (** power-law sizes: [min_pages * U^(-1/alpha)] clamped to the
          range.  Smaller [alpha] = heavier tail; [alpha ~ 1.5] gives
          the classic mostly-small / occasionally-huge mix *)

val validate_size_dist : size_dist -> unit
(** @raise Invalid_argument on a non-positive or non-finite [alpha]. *)

val generate_with : ?size_dist:size_dist -> config -> txn array
(** {!generate} with the uniform size draw replaced by [size_dist]
    (default {!Uniform_size}, which makes [generate_with] and
    {!generate} identical streams).
    @raise Invalid_argument as {!generate}, or on a bad [size_dist]. *)

val apply_read_fraction :
  Dbm_util.Prng.t -> read_frac:float -> txn array -> txn array
(** Carve a read-only transaction class out of a workload: each
    transaction independently has its whole write set cleared with
    probability [read_frac] (the rest keep their writes).  Returns a
    fresh array; the input is not modified.
    @raise Invalid_argument if [read_frac] is outside [\[0,1\]]. *)

val apply_cross_fraction :
  Dbm_util.Prng.t ->
  cross_frac:float ->
  classes:int ->
  class_of:(int -> int) ->
  db_pages:int ->
  txn array ->
  txn array
(** Carve an exact cross-class transaction mix out of a workload for
    the sharded server.  [class_of] maps a page to its class in
    [\[0, classes)] (in practice {!Dbm_storage.Shard_router.shard_of_page}); each
    transaction is independently selected cross-class with probability
    [cross_frac] and remapped so that selected transactions span at
    least two classes while unselected ones are confined to the class
    of their first page (pages are re-homed by linear probing from
    their original value, preserving sizes and write positions).
    Transactions with fewer than two pages, or with [classes = 1],
    can never be cross-class.  With [cross_frac = 0.] the output has
    zero cross-class transactions — the property that keeps a sharded
    run deterministic.  Returns a fresh array.
    @raise Invalid_argument on [cross_frac] outside [\[0,1\]], a
    non-positive [classes]/[db_pages], or a class with too few pages to
    re-home into. *)

val read_set_size : txn -> int

val write_set_size : txn -> int

val write_pages : txn -> int list
(** Pages updated by the transaction, in reference order. *)

val total_pages : txn array -> int
(** Sum of read-set sizes: the "total number of pages processed by the
    machine" used as the denominator of execution time per page. *)

val total_writes : txn array -> int

val to_string : txn array -> string
(** Text serialization (one transaction per line: id, then
    [page] / [page!] tokens, [!] marking the write set).  Lets a
    workload be saved, inspected, diffed, and replayed exactly. *)

val of_string : string -> txn array
(** Inverse of {!to_string}.  @raise Invalid_argument on malformed
    input. *)

(** {2 Open-loop arrivals}

    Closed-loop scripts (the scheduler's world) admit the next
    transaction when the previous one finishes; an {e open-loop} server
    receives arrivals on a clock that does not care how busy the
    server is — the regime where queueing delay and tail latency
    appear.  Times are in seconds; all randomness flows through
    {!Dbm_util.Prng}, so an arrival trace is exactly reproducible from
    its seed. *)

type arrival =
  | Poisson of { rate : float }
      (** memoryless arrivals at [rate] per second (exponential
          interarrivals with mean [1/rate]) *)

val validate_arrival : arrival -> unit
(** @raise Invalid_argument on a non-positive or non-finite rate. *)

val gen_arrival_times : Dbm_util.Prng.t -> arrival -> n:int -> float array
(** The first [n] arrival instants, in seconds, strictly increasing
    from 0.  Deterministic in the generator state.
    @raise Invalid_argument on a bad process or negative [n]. *)
