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
    equality) — except the read-heavy snapshot rows, which are the
    differential-file engine's own: it is the one snapshot engine.
    The server section's group-commit crash check still runs on the
    logging, logging-delta and differential-file engines.

    The three recovery sections read one measurement: six logs built
    once (physical, delta and oplog at L transactions, physical at 2L,
    physical checkpointed after 50% and after 90% of its commits), each
    timed best of five, every timed replay starting from a finished
    major cycle: all six serially in round-robin rounds, then the three
    formats under one pool per parallel domain count.  So
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
      (** holds on every run on every host: an equivalence, a count
          that must be zero, a measurement that must come back finite,
          or a threshold on a ratio of log bytes or of simulated time *)
  | Floor
      (** a threshold that depends on the host: a wall-clock ratio, or
          the shard scaling, which counts only where every shard had a
          core.  Only the full benchmark (bench/main) gates it *)

val random_access_workload :
  ?cross:float * int -> n:int -> seed:int -> unit -> Scheduler.script array
(** The open-loop workload of the server and sharded sections: [n]
    transactions drawn from [seed], each touching 2-8 uniformly random
    pages of 1024 (one key per page, key [4p] for page [p]; 70% of them
    written).  [cross = (f, shards)] re-homes pages so that a fraction
    [f] of the transactions spans two of [shards] shards
    ({!Shard_router.shard_of_page}) and the rest stay on one.
    @raise Invalid_argument on a fraction outside [0,1] or [shards < 1]. *)

val arrivals_us : seed:int -> Dbm_workload.Workload.arrival -> n:int -> float array
(** The first [n] arrival instants of a process drawn from [seed], in
    microseconds: the [arrivals_us] of {!Server.Make.run}. *)

val run : ?scale:int -> ?allow_oversubscribe:bool -> now:(unit -> float) -> unit -> t
(** Run every section on its one fixed sweep.  [scale] multiplies
    workload sizes (default 1).  The recovery-vs-cores curve runs 1, 2
    and 4 domains; counts beyond the host's cores are skipped unless
    [allow_oversubscribe] (default false).  On a 1-core host an
    oversubscribed 2-domain point stands in so the curve never comes
    back empty.  The log-format head-to-head writes and replays all
    three formats (physical, delta, oplog), serially and at every
    parallel count of that curve, each checked against the physical
    log's serial reference replay.  The snapshot sweep visits read
    fractions 0.5, 0.9 and 0.99, then a Pareto-size heavy-tail point at
    0.9; the sharded sweep runs 1, 2 and 4 shards on a zero-cross
    workload, then cross-shard fractions 0, 0.05 and 0.2 at 4 shards.
    @raise Invalid_argument before reading the clock if [scale <= 0]. *)

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
