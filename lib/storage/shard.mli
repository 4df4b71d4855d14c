(** Sharded multicore execution: domain-parallel transaction shards
    with two-phase group commit.

    The open-loop {!Server} runs one scheduler, one commit pipeline and
    one engine on one domain.  This layer partitions the key space
    page-wise across [N] engine shards ({!Shard_router}) and runs the
    server's driver loop ({!Server.Make.drive}: scheduler core,
    group-commit pipeline, simulated clock) once per shard on its own
    domain, so single-shard transactions (the common case under a
    well-partitioned workload) execute fully in parallel with no
    coordination beyond their own shard's log.

    A transaction whose script touches pages of several shards is split
    into per-shard slices and committed with lightweight two-phase
    commit: each participant slice runs under its shard's ordinary 2PL,
    and where a single-shard transaction would commit, the slice
    instead writes a {e durable prepare} ({!ENGINE.prepare}) and keeps
    its page locks.  The last participant to prepare forces the
    decision record into the shared {!Coordinator_log} — that force is
    the transaction's commit point.  Each participant then applies the
    decision: an {e unforced} local decision record ([commit_group]),
    lock release, and an ack stamped at the decision time.  Restart
    recovery resolves prepared-but-undecided slices from the
    coordinator's table with presumed abort
    ({!Engine_log.crash_and_recover_resolved},
    {!Coordinator_log.resolve}); DESIGN.md B.5 argues correctness.

    Simulated time stays per-shard: each shard's clock advances exactly
    as the serial server's would, and cross-shard commits synchronize
    the clocks — the decision time is the maximum participant prepare
    time plus one [sync_cost_us] (the coordinator force), and a shard
    applying a decision advances its clock to at least that instant.
    Makespan is the maximum over all shard clocks and decision times.

    Admission per shard is strictly FIFO in arrival order with at most
    one cross-shard slice in flight at a time.  Global ids are issued
    in arrival order, so every shard meets its cross-shard slices in
    the same global order; the smallest undecided gid's participants
    never have earlier cross-shard work pending, so that transaction
    always reaches its decision — the 2PC wait graph cannot cycle.

    That participant role — the prepare vote, the admission gate, the
    decision apply and the blocking wait for a decision — is all a
    shard adds to the driver ({!Server.Make.participant}).  With one
    shard no transaction votes, so a 1-shard run is the plain
    {!Server.Make.run}, field for field. *)

module type ENGINE = sig
  include Server.ENGINE

  val prepare : txn -> gid:int -> unit
  (** The participant's durable vote (see {!Engine_log.prepare}): force
      the slice's updates and a Prepare record carrying [gid], keeping
      the transaction open.  Commit-side of the decision is
      [commit_group] (unforced — the coordinator record is the durable
      truth); abort-side would be [abort]. *)
end

type result = {
  completed : int;  (** transactions acknowledged (= arrivals) *)
  makespan_us : float;
      (** max over shard clocks and cross-shard decision times *)
  sustained_tps : float;  (** completed per second of simulated time *)
  restarts : int;  (** deadlock-victim restarts, all shards *)
  forces : int;
      (** log forces: per-shard pipeline forces + prepare forces +
          coordinator decision forces *)
  lock_acquires : int;  (** lock acquisition attempts, all shards *)
  cross_committed : int;  (** cross-shard transactions committed *)
  oversubscribed : bool;
      (** shard count exceeded the host's cores, so the domains shared
          cores — wall time suffers; simulated results do not *)
  latency_us : Dbm_util.Stats.Histogram.t;
      (** arrival-to-ack latency of every transaction, µs *)
  single_latency_us : Dbm_util.Stats.Histogram.t;
      (** single-shard transactions only *)
  cross_latency_us : Dbm_util.Stats.Histogram.t;
      (** cross-shard transactions only: arrival to decision force *)
}

module Make (E : ENGINE) : sig
  val run :
    ?mpl:int ->
    ?op_cost_us:float ->
    ?sync_cost_us:float ->
    mode:Commit_pipeline.mode ->
    arrivals_us:float array ->
    scripts:Scheduler.script array ->
    coordinator:Coordinator_log.t ->
    E.t array ->
    result
  (** Serve [scripts.(i)] arriving at [arrivals_us.(i)] (finite,
      non-negative, non-decreasing) to completion over
      [Array.length engines] shards.  Routing is
      {!Shard_router.split} at the first engine's [keys_per_page];
      every engine must be created with the same geometry, and the
      caller owns pre-partitioning any initial data.  Defaults match
      {!Server.Make.run} ([mpl] 64 per shard, [op_cost_us] 1.0,
      [sync_cost_us] 100.0).

      Runs one domain per shard ({!Dbm_util.Pool}, oversubscription
      allowed — see [oversubscribed]).  Deterministic in its arguments
      when no transaction is cross-shard (each shard is then the serial
      loop on its own key subset); with cross-shard transactions the
      final engine states and the set of committed transactions are
      deterministic, but simulated latencies and sustained throughput
      vary across runs with the OS interleaving of decision waits.
      @raise Invalid_argument on bad parameters — {!Server.Make.drive}'s checks
      ([mpl], [op_cost_us], arrival times) included, at every shard
      count.
      @raise Failure on livelock, or when a peer shard's loop fails. *)
end
