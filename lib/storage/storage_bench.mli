(** Storage-half throughput benchmark.

    Measures the recovery engines and their substrate the same way the
    simulation half is measured by bench/main: per-engine committed
    transactions per second under the 2PL scheduler at low and high
    contention, a head-to-head of the pre-overhaul polling scheduler
    ({!Naive}) against the wakeup scheduler on a contended workload
    (with an equivalence check on the reports), logging-engine restart
    recovery wall time at two log lengths (linearity check), restart
    recovery wall against worker-domain count and against fuzzy
    checkpoint age (each point fingerprint-checked against the serial
    reference replay), a log-format head-to-head (physical full-image
    vs delta vs operation logging: log bytes per committed transaction,
    append cost, replay wall, cross-format fingerprint equivalence),
    and buffer-pool / journal microbenchmarks.

    The caller supplies the wall clock so this library stays free of a
    unix dependency; pass [Unix.gettimeofday]. *)

type engine_tps = {
  engine : string;
  low_tps : float;  (** committed txns/sec, disjoint key blocks *)
  low_restarts : int;
  high_tps : float;  (** committed txns/sec, hot key set *)
  high_restarts : int;
}

type recovery_jobs_point = {
  rj_jobs : int;  (** worker domains used for restart recovery *)
  rj_oversubscribed : bool;  (** pool larger than the host's cores *)
  rj_wall_ms : float;  (** best-of-five crash-and-recover wall *)
  rj_equivalent : bool;
      (** restart state fingerprint equals the serial reference replay *)
}

type recovery_ckpt_point = {
  ck_fraction : float;
      (** fraction of commits preceding the fuzzy checkpoint; [0.] = no
          checkpoint, full-log replay *)
  ck_records : int;  (** durable log records at crash *)
  ck_wall_ms : float;
  ck_equivalent : bool;
}

type log_format_point = {
  lf_format : string;  (** ["physical"], ["delta"] or ["oplog"] *)
  lf_committed_txns : int;
  lf_records : int;  (** durable log records after the load *)
  lf_log_bytes : int;  (** durable log volume in bytes *)
  lf_bytes_per_txn : float;
  lf_append_ns_per_record : float;
      (** load wall over records logged — the whole append path (page
          update, diff/encode, journal append, commit force), not the
          codec alone *)
  lf_replay_wall_ms : float;  (** best-of-five serial crash-and-recover *)
  lf_replay_parallel_ms : float;
      (** best wall across the parallel job counts (the same list as
          the recovery-vs-cores curve); [infinity] when none ran *)
  lf_equivalent : bool;
      (** recovered fingerprint equals the physical engine's serial
          reference replay — serially and at every job count *)
}

type server_point = {
  sv_offered_tps : float;  (** open-loop Poisson arrival rate *)
  sv_sustained_tps : float;  (** completed / makespan, simulated time *)
  sv_completed : int;
  sv_p50_us : float;  (** arrival-to-durable-ack latency percentiles *)
  sv_p99_us : float;
  sv_p999_us : float;
  sv_mean_us : float;
  sv_max_us : float;
  sv_restarts : int;
  sv_forces : int;
  sv_max_queued : int;  (** peak admission-queue depth *)
}

type server_engine = {
  sv_engine : string;
  sv_sweep : server_point list;  (** group-commit pipeline, rising load *)
  sv_eager_tps : float;  (** per-txn-sync sustained tps at the top load *)
  sv_grouped_tps : float;  (** group-commit sustained tps at the top load *)
  sv_speedup : float;  (** grouped / eager *)
  sv_eager_p99_us : float;
  sv_grouped_p99_us : float;
  sv_equivalent : bool;
      (** recovered fingerprint of a grouped commit sequence (with a
          crash between append and force) equals the eager reference *)
}

type read_mode_point = {
  rm_mode : string;
      (** ["xlock"] — every Get takes an exclusive page lock (the
          reads-block-reads baseline); ["slock"] — S/X locking, reads
          share; ["snapshot"] — S/X plus the lock-free read-only class
          over pinned MVCC views *)
  rm_sustained_tps : float;
  rm_restarts : int;  (** deadlock-victim restarts, all classes *)
  rm_ro_restarts : int;  (** restarts of read-only transactions *)
  rm_lock_acquires : int;
  rm_ro_p50_us : float;  (** read-only class latency percentiles *)
  rm_ro_p99_us : float;
  rm_rw_p50_us : float;  (** read-write class latency percentiles *)
  rm_rw_p99_us : float;
}

type read_frac_point = {
  rf_read_frac : float;  (** fraction of transactions made read-only *)
  rf_heavy_tail : bool;
      (** Pareto transaction sizes at this point (the heavy-tailed
          generator), uniform sizes otherwise *)
  rf_modes : read_mode_point list;  (** xlock, slock, snapshot *)
  rf_snapshot_speedup : float;  (** snapshot tps over xlock tps *)
  rf_equivalent : bool;
      (** all three modes crash-recover to the same full-scan data
          digest, and no mode leaked an open snapshot *)
}

type read_engine = { re_engine : string; re_points : read_frac_point list }

type shard_point = {
  sh_shards : int;
  sh_oversubscribed : bool;
      (** more shard domains than host cores (wall time suffered;
          simulated results did not) *)
  sh_sustained_tps : float;  (** simulated time; machine-independent *)
  sh_makespan_us : float;
  sh_p99_us : float;
  sh_restarts : int;
  sh_serial_identical : bool;
      (** shards = 1 only: every {!Shard.result} field, the latency
          histograms and the engine fingerprint matched the plain
          {!Server.Make.run} (vacuously true at other counts) *)
  sh_scan_equal : bool;
      (** crash-recovered full-scan digest equals the serial server's *)
  sh_in_doubt : int;
      (** prepared-but-unresolved transactions left after
          coordinator-resolved restart recovery; must be 0 *)
}

type cross_point = {
  cf_cross_frac : float;  (** requested cross-shard transaction fraction *)
  cf_cross_txns : int;  (** transactions actually spanning >= 2 shards *)
  cf_sustained_tps : float;
  cf_p99_cross_us : float;
      (** cross-shard class arrival-to-decision tail (0 when none ran) *)
  cf_scan_equal : bool;  (** against this fraction's own serial reference *)
  cf_in_doubt : int;
}

type shard_bench = {
  sb_points : shard_point list;
      (** zero-cross workload at each swept shard count (always
          includes the shards = 1 serial baseline) *)
  sb_scaling : float;  (** top-shard-count tps over 1-shard tps *)
  sb_cross : cross_point list;
      (** top shard count at each swept cross-shard fraction, every
          transaction committed via two-phase commit when it spans
          shards *)
  sb_equivalent : bool;
      (** every scan matched its serial reference, shards = 1 was
          bit-identical to {!Server.Make.run}, and no transaction
          stayed in doubt after resolved recovery *)
}

type t = {
  scale : int;
  sched_txns : int;  (** scripts in the contended comparison *)
  sched_naive_ms : float;
  sched_opt_ms : float;
  sched_speedup : float;
  sched_equivalent : bool;
      (** the two schedulers agreed on commit order, restarts and steps *)
  engines : engine_tps list;
  recovery_txns_l : int;
  recovery_records_l : int;
  recovery_wall_l_ms : float;
  recovery_records_2l : int;
  recovery_wall_2l_ms : float;
  recovery_wall_ratio : float;  (** wall(2L) / wall(L); ~2 when linear *)
  recovery_jobs : recovery_jobs_point list;
      (** one fixed uncheckpointed log replayed at each domain count;
          always includes the jobs = 1 serial baseline *)
  recovery_parallel_speedup : float;
      (** serial wall / best parallel wall (infinite on hosts where no
          parallel point ran, which cannot happen: a 1-core host gets an
          oversubscribed 2-domain point instead) *)
  recovery_ckpt : recovery_ckpt_point list;
      (** same committed work per point, serial replay; the saving at
          [ck_fraction > 0] is the log prefix recovery never decodes *)
  recovery_ckpt_speedup : float;
      (** full-replay wall / wall with the newest checkpoint *)
  recovery_equivalent : bool;
      (** every recovery point fingerprint-matched the serial reference *)
  log_formats : log_format_point list;
      (** the same committed workload through the three logging
          granularities — full page images ({!Engine_log} physical),
          changed-byte-range deltas ({!Engine_log} delta) and operation
          logging ({!Engine_oplog}) — metering durable log volume,
          append cost and replay wall; all three recover to the
          physical engine's reference fingerprint *)
  log_delta_reduction : float;
      (** physical log bytes per committed txn over delta's *)
  log_oplog_reduction : float;  (** same, over the operation log's *)
  log_format_equivalent : bool;  (** every format point passed *)
  server : server_engine list;
      (** open-loop transaction server ({!Server}) on the logging
          engine (physical and delta log formats) and the differential
          engine: a Poisson offered-load sweep through the group-commit
          pipeline, plus an eager-vs-grouped head-to-head at the top
          load.  Entirely simulated time — deterministic and
          machine-independent. *)
  server_speedup : float;  (** worst grouped/eager ratio across engines *)
  server_equivalent : bool;  (** every engine's equivalence check passed *)
  read_heavy : read_engine list;
      (** MVCC snapshot reads: a read-heavy open-loop sweep over
          Zipfian pages for every snapshot-capable engine
          ({!Engine_diff}, {!Engine_versel}, {!Engine_oplog}).  At each
          read fraction the same workload runs under three read-lock
          regimes — exclusive-lock reads, S/X shared reads, and the
          snapshot read-only class — plus one heavy-tailed
          (Pareto-size) point at read fraction 0.9.  Simulated time:
          deterministic and machine-independent. *)
  read_speedup : float;
      (** worst snapshot-over-xlock throughput ratio across engines at
          the uniform-size point nearest read fraction 0.9 (a CI gate
          holds this at >= 2) *)
  read_ro_restarts : int;
      (** snapshot-mode read-only restarts summed over every point —
          the lock-free path makes this identically 0 (CI gate) *)
  read_equivalent : bool;  (** every point's cross-mode scan check *)
  shard : shard_bench;
      (** sharded multicore execution ({!Shard} on {!Engine_log}): a
          tps-vs-shard-count sweep on a fully partitionable (zero
          cross-shard) workload, plus a cross-shard-fraction sweep at
          the top shard count through the two-phase commit path.  All
          simulated time; every point gated on crash-recovered scan
          equality with the serial server. *)
  pool_hit_ns : float;
  pool_miss_ns : float;
  journal_append_per_sec : float;
  journal_append_sync_per_sec : float;  (** with a sync every 64 appends *)
}

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
    [infinity] reduction.  [read_fracs] (default {!default_read_fracs})
    lists the read fractions of the snapshot sweep; a Pareto-size
    heavy-tail point at read fraction 0.9 is always appended.
    [shard_counts] (default {!default_shard_counts}) lists the shard
    counts of the sharded sweep (a shards = 1 baseline is always
    included); [cross_fracs] (default {!default_cross_fracs}) the
    cross-shard fractions swept at the largest count.
    @raise Invalid_argument if [scale <= 0], any job count is [< 1], a
    log format name is unknown, a read or cross fraction is outside
    [0,1], or a shard count is [< 1]. *)

val print : t -> unit
(** Print the report on stdout — the one rendering both [dbmsim
    storage-bench] and bench/main show, every equivalence check spelled
    out beside its numbers. *)

val equivalence_failures : t -> string list
(** One message per failed equivalence gate: scheduler reports,
    recovery fingerprints, grouped-vs-eager recovery, log formats,
    read-lock regimes, snapshot-path read-only restarts, and the
    sharded sweep (scan digests, 1-shard identity, nothing in doubt).
    Empty when every gate held; the front ends exit non-zero
    otherwise. *)
