(** Storage-half throughput benchmark.

    Measures the recovery engines and their substrate the same way the
    simulation half is measured by bench/main, in nine sections run in
    this order: a head-to-head of the pre-overhaul polling scheduler
    ({!Naive}) against the wakeup scheduler on a contended workload;
    per-engine committed transactions per second under the 2PL
    scheduler at low and high contention; logging-engine restart
    recovery wall at two log lengths (linearity); restart recovery
    against worker-domain count and against fuzzy checkpoint age (each
    point fingerprint-checked against the serial reference replay); a
    log-format head-to-head (physical full-image vs delta vs operation
    logging); the open-loop transaction server (an offered-load sweep
    and a grouped-vs-eager head-to-head, simulated time); the read-heavy
    MVCC snapshot sweep (exclusive-lock vs shared-lock vs snapshot
    reads, simulated time); sharded execution (tps against shard count
    and a cross-shard two-phase-commit sweep, simulated time); and
    buffer-pool / journal microbenchmarks.

    Each section yields its lines of the report, its fields of the
    [storage] JSON object and its gate rows.  A row is a {!Check} or a
    {!Floor}; see {!kind}.

    The caller supplies the wall clock so this library stays free of a
    unix dependency; pass [Unix.gettimeofday]. *)

type t

type kind =
  | Check
      (** holds for every argument list {!run} accepts: an equivalence,
          a count that must be zero, or a measurement that must come
          back finite *)
  | Floor
      (** a claim about the default sweep, or a threshold on a
          wall-clock ratio: only the full benchmark (bench/main) gates
          it *)

val default_read_fracs : float list
(** [[0.5; 0.9; 0.99]] — the read fractions the snapshot sweep visits
    by default. *)

val default_shard_counts : int list
(** [[1; 2; 4]] — the shard counts the sharded sweep visits by
    default.  Counts should divide the largest one: the router's class
    at the top count then refines its class at every other, so the
    zero-cross workload stays single-shard at every point. *)

val default_cross_fracs : float list
(** [[0.; 0.05; 0.2]] — the cross-shard fractions swept at the top
    shard count. *)

val run :
  ?scale:int ->
  ?jobs:int list ->
  ?allow_oversubscribe:bool ->
  ?log_formats:string list ->
  ?read_fracs:float list ->
  ?shard_counts:int list ->
  ?cross_fracs:float list ->
  now:(unit -> float) ->
  unit ->
  t
(** Run every section.  [scale] multiplies workload sizes (default 1,
    used by CI smoke runs).  [jobs] (default [[1; 2; 4]]) lists the
    domain counts for the recovery-vs-cores curve; counts beyond the
    host's cores are skipped unless [allow_oversubscribe] (default
    false), and a jobs = 1 point is always included.  On a 1-core host
    an oversubscribed 2-domain point stands in so the curve never comes
    back empty.  [log_formats] (default all of ["physical"], ["delta"],
    ["oplog"]) restricts the log-format head-to-head; the physical
    baseline is always measured (it is the reference the others are
    fingerprint-checked against), and an excluded format reports an
    infinite (JSON [null]) reduction.  [read_fracs] (default
    {!default_read_fracs}) lists the read fractions of the snapshot
    sweep; a Pareto-size heavy-tail point at read fraction 0.9 is always
    appended.  [shard_counts] (default {!default_shard_counts}) lists
    the shard counts of the sharded sweep (a shards = 1 baseline is
    always included); [cross_fracs] (default {!default_cross_fracs}) the
    cross-shard fractions swept at the largest count.
    @raise Invalid_argument before reading the clock if [scale <= 0],
    any job count is [< 1], a log format name is unknown, [read_fracs]
    is empty, a read or cross fraction is outside [0,1], or
    [shard_counts] is empty or holds a count [< 1]. *)

val print : t -> unit
(** Print the report on stdout — the one rendering both [dbmsim
    storage-bench] and bench/main show, every equivalence check spelled
    out beside its numbers. *)

val to_json : t -> Dbm_util.Json.t
(** The [storage] object of the benchmark record. *)

val failed : t -> (kind * string) list
(** Every gate row that did not hold, in report order, each with a
    message naming the row, its kind and the measured value.  Empty
    when every row held. *)
