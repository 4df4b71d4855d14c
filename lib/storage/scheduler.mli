(** Concurrent transaction execution with strict two-phase locking.

    The paper assumes a page-level-locking scheduler in the back-end
    controller (Section 3); this module is its functional counterpart:
    it interleaves a set of transaction {e scripts} over any recovery
    engine, acquiring page locks (at the engine's {!Kv.S.keys_per_page} granule) through {!Lock_mgr} as operations
    execute, parking scripts that would block, and resolving deadlocks
    by aborting and restarting the requester (strict 2PL: all locks are
    held until commit).

    Because acquisition is incremental and the victim restarts from the
    beginning, every run is serializable: the committed scripts are
    equivalent to executing them serially in commit order (a property
    the test suite checks against the model).

    The module is split into an execution core ({!Make.Exec}: tasks,
    locks, single-step advance, pluggable commit sink) and the
    closed-loop driver {!Make.run} built on it.  The open-loop
    {!Server} drives the same core with arrivals from a clock and
    commits routed through a {!Commit_pipeline}. *)

type op =
  | Get of int
  | Put of int * string
  | Delete of int

type script = op list

type report = {
  commit_order : int list;  (** script ids, in commit order *)
  restarts : int;  (** deadlock-victim restarts *)
  steps : int;  (** scheduler steps taken *)
}

(** A pinned read-only view of an engine, as the scheduler consumes it:
    how to read a key and how to close the view.  Engine-agnostic so
    the execution core does not require {!Kv.SNAPSHOT}; {!snapshot_view}
    builds the factory for any engine that has snapshots. *)
type view = {
  view_get : int -> string option;
  view_close : unit -> unit;
}

val snapshot_view : (module Kv.SNAPSHOT with type t = 'e) -> 'e -> unit -> view
(** [snapshot_view (module E) e] is the view factory over engine [e]:
    each call pins [E.snapshot e], reads through [E.snapshot_get] and
    closes with [E.snapshot_release].  Pass it as [~snapshot] to
    {!Make.Exec.create} or {!Server.Make.run}. *)

module Make (E : Kv.S) : sig
  (** The admission-independent execution core: who holds which page
      lock, who is parked on what, and how one scheduler turn advances
      one task.  Callers own the driving loop — which tasks exist, in
      what order they get turns, and what time a turn costs. *)
  module Exec : sig
    type t

    type task

    type outcome =
      | Skipped  (** backoff ticked down, or parked and not woken *)
      | Blocked  (** ran the lock acquire and parked on the page *)
      | Advanced  (** executed one operation *)
      | Restarted  (** deadlock victim: rolled back, will retry *)
      | Committed

    val create :
      ?commit:(id:int -> E.txn -> unit) ->
      ?hold:(id:int -> bool) ->
      ?snapshot:(unit -> view) ->
      ?read_mode:Lock_mgr.mode ->
      E.t ->
      t
    (** [commit] is the commit sink, called exactly once per finishing
        task with the script id and the open transaction; it must
        commit (eagerly or via {!Kv} group commit).  Default:
        [E.commit].  Locks are released right after the sink returns —
        strict 2PL ends when the commit record is appended; a deferred
        force does not extend lock hold times.

        [hold] (default: never) is consulted at that point: a held task
        keeps its page locks after the sink returns — the {!Shard}
        layer holds 2PC participant slices, whose sink {e prepares}
        rather than commits, until the coordinator's decision; the
        driver then calls {!release_locks}.  A held task never requests
        another lock (its script is exhausted), so it can never be a
        deadlock victim.

        [snapshot] is the MVCC view factory.  When present, tasks
        spawned [~read_only:true] execute lock-free: a view is pinned
        at the task's first read and every Get goes through it, so the
        task never touches {!Lock_mgr} — it cannot block, cannot
        deadlock, never restarts.  Absent (the default), read-only
        tasks run the ordinary locked path.

        [read_mode] is the lock mode Gets acquire (default
        {!Lock_mgr.S}).  [Lock_mgr.X] turns the scheduler into the
        exclusive-only baseline — every read serializes against every
        other access to its page — which is what the snapshot bench
        compares against.  Defaults reproduce the pre-MVCC scheduler
        bit-identically. *)

    val spawn : t -> ?read_only:bool -> index:int -> id:int -> script -> task
    (** Register a task.  [id] must be unique among live tasks (it keys
        the lock table); [index] should be small and distinct among
        concurrent tasks — it scales the post-restart backoff.
        [read_only] (default [false]) selects the lock-free snapshot
        path when the factory is installed; the script must then be all
        Gets.
        @raise Invalid_argument on a read-only script containing a
        write while a snapshot factory is installed. *)

    val step : t -> task -> outcome
    (** One scheduler turn: count a step, serve backoff, skip a parked
        task that nothing woke, otherwise try to advance one
        operation. *)

    val finished : task -> bool

    val task_restarts : task -> int
    (** Deadlock-victim restarts suffered by this task alone. *)

    val commit_order : t -> int list

    val restarts : t -> int

    val steps : t -> int

    val lock_acquires : t -> int
    (** Lock acquisition attempts issued to {!Lock_mgr} (grants, blocks
        and deadlocks alike).  Snapshot-path reads issue none — the
        read-only bench pins this at zero. *)

    val release_locks : t -> id:int -> unit
    (** Release every page lock task [id] still holds and wake the
        scripts parked on those pages — the deferred half of commit for
        a task the [hold] predicate kept locked. *)
  end

  val run : ?max_steps:int -> E.t -> scripts:(int * script) list -> report
  (** Run the scripts to completion, round-robin, committing eagerly.
      Script ids must be distinct.  Bit-identical ([steps],
      [commit_order], [restarts]) to the pre-split scheduler and to
      {!Naive.Sched} (the storage bench's [sched.equivalent] check
      holds this on a contended workload).
      @raise Failure if the scripts have not all committed within
      [max_steps] scheduler steps (default 100,000). *)
end
