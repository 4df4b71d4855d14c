(** Pre-overhaul storage algorithms, preserved as a reference.

    {!Locks} is the lock manager as it was before per-transaction page
    sets (every release and waits-for query folds the whole table);
    {!Sched} is the scheduler before wakeup-driven parking (every
    blocked script re-runs its lock acquisition each turn).  They exist
    so the benchmark can measure the overhaul's speedup head-to-head in
    one process, and so the property tests can check that the optimized
    versions make identical decisions.  Not used on any production
    path. *)

module Locks : sig
  type t

  val create : unit -> t

  val acquire : t -> txn:int -> page:int -> mode:Lock_mgr.mode -> Lock_mgr.outcome

  val release_all : t -> txn:int -> unit

  val holds : t -> txn:int -> page:int -> Lock_mgr.mode option

  val locked_pages : t -> int

  val waiting : t -> txn:int -> bool
end

module Sched (E : Kv.S) : sig
  val run : ?max_steps:int -> E.t -> scripts:(int * Scheduler.script) list -> Scheduler.report
end

(** The logging engine's restart recovery as it was before the
    page-partitioned parallel {!Replay} module: a single-threaded
    full-log sorted replay (gather, group per page, fold in LSN order).
    It ignores fuzzy-checkpoint records entirely — replay always starts
    at record 0 — which is exactly what makes it the reference: the
    partitioned, checkpoint-seeking path must reach the same state. *)
module Log_replay : sig
  val committed : Wal.record list -> (int, unit) Hashtbl.t
  (** Transactions with a durable commit record anywhere in the log. *)

  val recover_sorted :
    records:Wal.record list -> read:(page:int -> bytes) -> write:(page:int -> bytes -> unit) -> unit
  (** Calls [write] at most once per touched page with its final image,
      in the reference's (hash-table) iteration order.  [read] supplies
      the durable base image of a page touched only by losers: its
      restore is skipped when the base predates the earliest retained
      loser update, as in {!Replay.recover_sorted}. *)

  val recover_sorted_delta :
    records:Wal.record list ->
    read:(page:int -> bytes) ->
    write:(page:int -> bytes -> unit) ->
    unit
  (** [recover_sorted] for logs holding {!Wal.Delta} records: each
      page's Update/Delta chain is expanded to full images against the
      durable base image [read] supplies (an implementation independent
      of {!Replay.recover_sorted}'s fold, which the property tests
      compare it to), then folded exactly as [recover_sorted]. *)

  val recover_logical :
    records:Wal.record list ->
    page_of:(int -> int) ->
    read:(page:int -> bytes) ->
    write:(page:int -> bytes -> unit) ->
    unit
  (** Serial reference for operation logs: committed {!Wal.Op} records
      in one global LSN-sorted pass, re-executed onto the durable
      images behind the page-header LSN guard.  Pages whose image was
      already current are not written. *)
end
