(** The open-loop transaction server.

    The closed-loop {!Scheduler.Make.run} admits the next script when a
    previous one finishes, so it can never build a queue; this server
    is the open-loop counterpart the paper's throughput discussion
    implies: transactions {e arrive} on a simulated clock
    (microseconds) that does not care how busy the server is, an
    admission front end bounds the multiprogramming level, and all
    commits flow through one shared {!Commit_pipeline}.  Offered load
    beyond capacity shows up as queueing delay and tail latency — the
    regime where group commit pays.

    Decomposition: {!Scheduler.Make.Exec} executes operations under
    strict 2PL (admission-independent core); this module owns the
    clock, the arrival queue and the admission bound — the library's
    one open-loop driver loop, {!Make.drive}, which {!Shard} also runs
    once per shard with a two-phase-commit {!Make.participant} hook;
    the pipeline owns durability.  Costs are simulated — [op_cost_us]
    per executed operation (or rollback, or commit append),
    [sync_cost_us] per log force — so runs are deterministic and
    machine-independent.

    Backpressure never drops work: an arrival that finds [mpl]
    transactions in flight waits in an unbounded FIFO, and a
    transaction is in flight from admission until its durable ack, so
    [completed] always reaches the arrival count.  Per-transaction
    latency is measured arrival → durable ack (admission wait, lock
    waits, restarts, and the group-commit window all included). *)

module type ENGINE = sig
  include Kv.S

  val commit_group : txn -> unit

  val force_commits : t -> unit
end

type result = {
  completed : int;  (** transactions acknowledged (= arrivals) *)
  makespan_us : float;  (** clock instant of the last ack *)
  sustained_tps : float;  (** completed per second of simulated time *)
  restarts : int;  (** deadlock-victim restarts *)
  ro_restarts : int;
      (** restarts suffered by read-only transactions (always 0 on the
          snapshot path — they never touch the lock manager) *)
  forces : int;  (** log forces (eager commits count one each) *)
  max_inflight : int;  (** peak concurrent in-flight transactions *)
  max_queued : int;  (** peak admission-queue depth *)
  lock_acquires : int;
      (** lock acquisition attempts issued.  A parked script retries
          only after a release touched its page or while the waits-for
          graph may hold a cycle no acquire has reported, so repeat
          blocks that a wake-everyone deadlock audit would re-run are
          not issued. *)
  latency_us : Dbm_util.Stats.Histogram.t;
      (** arrival-to-ack latency of every transaction, µs (the merge of
          the two class histograms below) *)
  ro_latency_us : Dbm_util.Stats.Histogram.t;
      (** read-only transactions only *)
  rw_latency_us : Dbm_util.Stats.Histogram.t;
      (** read-write transactions only *)
}

module Make (E : ENGINE) : sig
  val run :
    ?mpl:int ->
    ?op_cost_us:float ->
    ?sync_cost_us:float ->
    ?snapshot:(unit -> Scheduler.view) ->
    ?read_mode:Lock_mgr.mode ->
    ?read_only:bool array ->
    mode:Commit_pipeline.mode ->
    arrivals_us:float array ->
    scripts:Scheduler.script array ->
    E.t ->
    result
  (** Serve [scripts.(i)] arriving at [arrivals_us.(i)] (finite,
      non-negative, non-decreasing) to completion.  Defaults: [mpl] 64,
      [op_cost_us] 1.0, [sync_cost_us] 100.0 — a log force two orders
      of magnitude above an in-memory operation, the ratio that makes
      the force the dominant latency term.  Deterministic in its
      arguments.

      [read_only.(i)] marks script [i] as a read-only transaction (all
      Gets; default none).  With [snapshot] installed (see
      {!Scheduler.Make.Exec.create}) read-only transactions execute
      lock-free over pinned MVCC views, bypass the commit pipeline
      (nothing to make durable — the ack is the final step), and can
      never restart; without it they run the ordinary locked path and
      commit through the pipeline.  [read_mode] sets the lock mode of
      Gets on the locked path ({!Lock_mgr.X} = the exclusive-only
      baseline the snapshot bench compares against).
      @raise Invalid_argument on bad parameters, and on a script key
      outside the engine's key space when its operation runs.
      @raise Failure on livelock (no progress for a bounded number of
      scheduler passes). *)

  type participant = {
    votes : int -> bool;
        (** the transactions whose commit is a two-phase-commit vote:
            the driver charges one [sync_cost_us] force, calls [vote],
            and keeps the transaction's locks held until its decision *)
    vote : now:float -> id:int -> E.txn -> unit;
        (** make transaction [id]'s vote durable; [now] is the clock
            after the vote's force *)
    admit : int -> bool;
        (** admission gate, asked about the transaction at the head of
            the FIFO: [false] stalls admission until a later pass *)
    decided : unit -> (int * E.txn * float) option;
        (** a voted transaction whose decision has landed, with the
            decision instant.  Between passes the driver applies it: an
            unforced [commit_group], lock release, the clock moved to at
            least that instant plus [op_cost_us], and the ack. *)
    await : unit -> bool;
        (** nothing can run and no event is due: block until a pending
            decision lands and return [true], or return [false] at once
            when no vote is pending *)
  }
  (** How {!Shard} plays a two-phase-commit participant inside the
      driver loop. *)

  val drive :
    ?mpl:int ->
    ?op_cost_us:float ->
    ?sync_cost_us:float ->
    ?snapshot:(unit -> Scheduler.view) ->
    ?read_mode:Lock_mgr.mode ->
    ?read_only:bool array ->
    ?participant:participant ->
    mode:Commit_pipeline.mode ->
    arrivals_us:float array ->
    ids:int array ->
    scripts:Scheduler.script array ->
    E.t ->
    result
  (** The driver loop: serve transaction [ids.(j)] — script
      [scripts.(j)], arriving at [arrivals_us.(ids.(j))] — for every
      [j].  [ids] must be strictly increasing indices into
      [arrivals_us], so they are in arrival order and no two tasks
      share a lock-manager transaction.  [arrivals_us] and [read_only]
      are indexed by transaction id and validated whole.  {!run} is
      [drive] over [ids = [|0; ...; n-1|]] with no participant.  A
      voted transaction is acknowledged at its decision and enters no
      latency histogram.
      @raise Invalid_argument on bad parameters.
      @raise Failure on livelock. *)
end
