(** The parallel-logging recovery engine (Section 3.1, functional).

    An update-in-place page store: each update appends a log record to
    one of [N] log disks (write-ahead rule) and then changes the data
    page in memory; a commit forces every log disk, the one holding its
    commit record last; restart recovery rebuilds each page from the
    distributed logs {e without merging them into one physical log} —
    global LSNs order every record, the property the paper's companion
    algorithm [13] exploits.

    One engine serves all three record granularities ({!log_format}).
    The format decides exactly three things: the record an update or an
    abort restore logs; whether a data-disk force may {e steal} (make
    uncommitted pages durable), which only the formats logging before
    images allow; and the replay routine.  Everything else — LSN issue,
    commit and group commit under one force rule, the 2PC vote and
    in-doubt resolution, checkpoints, the recovery epilogue and the
    fingerprint — is shared, so the formats issue identical LSN streams
    and recover to identical fingerprints.

    Pages are updated in place and no old version is kept, so there are
    no snapshot reads: {!Engine_diff} is the one {!Kv.SNAPSHOT} engine.

    Satisfies {!Kv.S}; extras below. *)

include Kv.S

type log_format =
  | Physical
      (** full before/after page images per update (the paper's
          logging); steal allowed, abort restores not logged *)
  | Delta
      (** {!Wal.Delta} records carrying only each update's changed byte
          range (common-prefix/suffix diff), with full images logged at
          every clean->dirty page transition (the chain anchor replay
          needs) and past the size threshold.  Abort restores are
          logged too, under the LSN the restore burns in every format.
          Steal allowed.  Replay's sorted fold ({!Replay.recover_sorted})
          rebuilds each page's slice chain to full images against the
          durable base and folds winners and losers as for [Physical]. *)
  | Logical
      (** operation logging: a {!Wal.Op} record per update names the
          key and the value written, no images at all; abort restores
          are not logged.  No steal: {!flush} and the sharp
          [checkpoint] force the data disk only while no live
          transaction has uncommitted page writes (the checkpoint's
          start then stays at the dirty pages' recovery LSNs), so an
          uncommitted change never becomes durable and restart recovery
          is REDO-only ({!Replay.recover_logical}): committed operations
          re-execute in LSN order onto the durable images behind the
          page-header LSN guard. *)

val create_with : ?n_keys:int -> ?n_log_disks:int -> ?log_format:log_format -> unit -> t
(** [create] is [create_with] with 2 log disks and [Physical] log
    records.  Each transaction record goes to the next log disk in turn
    (the paper's cyclic fragment selection); checkpoint records go to
    disk 0. *)

val log_bytes : t -> int
(** Total durable log volume in bytes across all log disks — what the
    physical / delta / logical head-to-head meters. *)

val commit_group : txn -> unit
(** Group commit: append the commit record but do {e not} force the
    log.  The transaction becomes durable at the next force of the log
    disks — {!force_commits}, an eager commit or prepare, {!flush} or a
    checkpoint, each of which forces every disk; a crash before that
    loses it — exactly the group-commit durability window.  Amortizes
    the per-commit log force across a batch of transactions. *)

val force_commits : t -> unit
(** Force every log disk: all group-committed transactions become
    durable.  Every force the engine makes covers every log disk, so a
    crash loses exactly the records appended since the last one. *)

(** {2 Two-phase commit (participant side)}

    The hooks the {!Shard} layer drives.  A cross-shard transaction
    runs [prepare] on every participant (each makes its effects and
    vote durable), the coordinator logs the decision
    ({!Coordinator_log}), and each participant then applies it:
    {!commit_group} — the local decision record may stay unforced
    because restart recovery resolves in-doubt transactions from the
    coordinator — or {!Kv.S.abort}. *)

val prepare : txn -> gid:int -> unit
(** Durable vote for global transaction [gid], forced exactly as an
    eager commit record: pick the vote's disk, force every other log
    disk, append a {!Wal.Prepare} record and force the vote disk last.
    The transaction stays active — undo state and locks survive — until
    the decision, and takes no further updates. *)

val in_doubt : t -> (int * int) list
(** [(txn, gid)] for every durably prepared transaction with no durable
    decision record, ascending by txn id.  Empty after a
    [crash_and_recover_resolved] (resolution records are appended), and
    always empty for an engine that never prepared. *)

val crash_and_recover_resolved : resolve:(gid:int -> bool) -> t -> unit
(** {!Kv.S.crash_and_recover} with in-doubt transactions resolved from
    the coordinator: an in-doubt transaction replays as committed iff
    [resolve ~gid] holds (plain [crash_and_recover] presumes abort).
    After replay a Commit/Abort resolution record is appended and
    forced for each, so the next restart needs no coordinator. *)

val flush : t -> unit
(** Force the log disks and then the data disk: the "steal" path (a
    dirty page may reach disk before commit, but never before its log
    records — the WAL rule).  Under [Logical] the data force is skipped
    while a live transaction has uncommitted page writes (no steal). *)

val set_recovery_pool : t -> Dbm_util.Pool.t option -> unit
(** Domain pool for restart recovery (default [None] = serial).  With a
    pool, log decoding fans contiguous record chunks across the domains
    and page-hash partitions replay in parallel (see {!Replay}); the
    rebuilt state is bit-identical for any pool size — [None] and a
    1-job pool are literally the serial path.  The engine does not own
    the pool; the caller shuts it down. *)

val checkpoint_fuzzy : ?sync:bool -> t -> unit
(** Fuzzy checkpoint: force the log disks and append one
    {!Wal.Fuzzy_checkpoint} record naming the LSN a future replay may
    start from (the minimum over every live transaction's first record
    LSN and every dirty page's recovery LSN).
    The sharp {!checkpoint} is {!flush}, this record forced, and every
    log disk truncated below its start; the fuzzy one forces no data,
    truncates nothing and does not care who is running — its cost is
    one log force regardless of the data state.  [sync] (default [true])
    forces the checkpoint record itself; [sync:false] leaves it in the
    volatile tail, where a crash simply loses it (recovery falls back
    to the previous checkpoint or to record 0 — never to a wrong
    state). *)

val state_fingerprint : t -> string
(** 128-bit hex digest of every data page image plus the LSN/txn
    counters — the state restart recovery is responsible for.  Disk
    operation counters are excluded: checkpoint-aware replay writes
    fewer pages by design.  Equal fingerprints after
    [crash_and_recover] and [crash_and_recover_reference] are the
    parallel path's correctness gate. *)

val crash_and_recover_reference : t -> unit
(** Crash, then recover along the preserved pre-parallelization path
    ({!Naive.Log_replay}): serial decode, from-zero replay (sorted, or
    re-execution for [Logical]), fuzzy-checkpoint records ignored.  Reference for equivalence tests
    and the bench baseline; same counter-reset epilogue as
    [crash_and_recover]. *)

val log_disks : t -> int

val records_logged : t -> int

val dump_log : t -> disk:int -> Wal.record list
(** Durable records of one log disk, for inspection and tests. *)
