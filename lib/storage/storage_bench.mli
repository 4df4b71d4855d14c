(** Storage-half throughput benchmark.

    Measures the recovery engines the same way the simulation half is
    measured by bench/main, in eight sections run in this order: a
    head-to-head of the pre-overhaul polling scheduler ({!Naive})
    against the wakeup scheduler on a contended workload; per-engine
    committed transactions per second under the 2PL scheduler at low
    and high contention; logging-engine restart recovery wall at two
    log lengths (linearity); restart recovery against worker-domain
    count and against fuzzy checkpoint age (each point
    fingerprint-checked against the serial reference replay); a
    log-format head-to-head (physical full-image vs delta vs operation
    logging); the open-loop transaction server (an offered-load sweep
    and a grouped-vs-eager head-to-head, simulated time); the read-heavy
    MVCC snapshot sweep (exclusive-lock vs shared-lock vs snapshot
    reads, simulated time); and sharded execution (tps against shard
    count and a cross-shard two-phase-commit sweep, simulated time).

    The simulated server charges fixed costs per scheduler turn and per
    force, and every workload key sits alone on its lock page whatever
    the engine's page size, so its figures do not depend on the engine:
    the server sweep runs once, on the logging engine, and the
    read-heavy sweep once, on the differential-file engine, each
    standing for every engine (test_server and test_snapshot pin the
    equality).  The server section's group-commit crash check still
    runs on the logging, logging-delta and differential-file engines.

    The three recovery sections read one measurement: six logs built
    once (physical, delta and oplog at L transactions, physical at 2L,
    physical checkpointed after 50% and after 90% of its commits), each
    timed best of five: all six serially in round-robin rounds, then
    the three formats under one pool per parallel domain count.  So
    the L log's serial wall is one number wherever the report shows
    it, and the physical format's parallel wall is the jobs curve's
    best.  A best parallel wall, its speedup and the shard scaling
    ratio count only points where every domain had a core; with none,
    the report prints [\[unverified\]] and the JSON value is [null],
    beside a false [<key>_verified].

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

val random_access_workload :
  ?read_frac:float ->
  ?cross:float * int ->
  n:int ->
  seed:int ->
  unit ->
  Scheduler.script array * bool array
(** The open-loop workload of the server and sharded sections, and of
    [dbmsim serve-bench]: [n] transactions drawn from [seed], each
    touching 2-8 uniformly random pages of 1024 (one key per page, key
    [4p] for page [p]; 70% of them written).  Each transaction is made read-only with
    probability [read_frac] (default 0); [cross = (f, shards)] re-homes
    pages so that a fraction [f] of the transactions spans two of
    [shards] shards ({!Shard_router.shard_of_page}) and the rest stay on
    one.  Returns the scripts and each transaction's read-only mark.
    @raise Invalid_argument on a fraction outside [0,1] or [shards < 1]. *)

val arrivals_us : seed:int -> Dbm_workload.Workload.arrival -> n:int -> float array
(** The first [n] arrival instants of a process drawn from [seed], in
    microseconds: the [arrivals_us] of {!Server.Make.run}. *)

val run :
  ?scale:int ->
  ?jobs:int list ->
  ?allow_oversubscribe:bool ->
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
    back empty.  The log-format head-to-head always writes and replays
    all three formats (physical, delta, oplog), serially and at every
    parallel count of that curve, each checked against the physical
    log's serial reference replay.  [read_fracs]
    (default {!default_read_fracs}) lists the read fractions of the
    snapshot sweep; a Pareto-size heavy-tail point at read fraction 0.9
    is always appended.  [shard_counts] (default
    {!default_shard_counts}) lists the shard counts of the sharded sweep
    (a shards = 1 baseline is always included); [cross_fracs] (default
    {!default_cross_fracs}) the cross-shard fractions swept at the
    largest count.
    @raise Invalid_argument before reading the clock if [scale <= 0],
    any job count is [< 1], [read_fracs] is empty, a read or cross
    fraction is outside [0,1], or [shard_counts] is empty or holds a
    count [< 1]. *)

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
