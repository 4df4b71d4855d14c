(** The shared commit pipeline: where transaction commits become
    durable, and on whose clock.

    Splitting commit into {e append} (the engine's [commit_group],
    inside the transaction's critical path) and {e force} (one log sync
    shared by a whole batch) is the classic group-commit trade: the
    per-transaction sync — the dominant latency term — is amortized
    [batch]-ways, at the cost of a durability window between append and
    force.  A crash inside the window loses exactly the unforced
    suffix, which recovery replays as if those transactions never
    committed; nothing is ever acknowledged to the client before its
    force, so no acknowledged transaction is ever lost.

    Time is simulated: the caller threads a clock (µs) through
    [submit]/[poll], and the pipeline charges [sync_cost_us]
    per force.  Acknowledgements fire through [on_ack] at the
    post-force instant — the arrival-to-ack difference is the
    transaction latency the server histograms. *)

type mode =
  | Eager  (** one engine [commit] (and one charged sync) per transaction *)
  | Grouped of { batch : int; timeout_us : float }
      (** force when [batch] commits have accumulated or [timeout_us]
          after the oldest unforced commit, whichever comes first *)

(** What the pipeline needs from an engine: eager commit, unforced
    group commit, and a batch force.  {!Engine_log} and {!Engine_diff}
    both satisfy it. *)
module type GROUPED = sig
  type t

  type txn

  val commit : txn -> unit

  val commit_group : txn -> unit

  val force_commits : t -> unit
end

module Make (E : GROUPED) : sig
  type t

  val create : ?sync_cost_us:float -> ?on_ack:(id:int -> now:float -> unit) -> mode -> E.t -> t
  (** [sync_cost_us] (default 0) is the simulated latency of one log
      force; [on_ack ~id ~now] fires once per transaction when its
      commit record is durable.
      @raise Invalid_argument on a non-positive batch or timeout. *)

  val submit : t -> now:float -> id:int -> E.txn -> float
  (** Commit one transaction through the pipeline; returns the advanced
      clock.  [Eager]: engine commit, one charged sync, immediate ack.
      [Grouped]: unforced [commit_group]; the batch is forced here only
      if this submission fills it. *)

  val poll : t -> now:float -> float
  (** Force the pending batch iff its timeout deadline has passed. *)

  val deadline : t -> float option
  (** Clock instant at which the pending batch times out, if any. *)

  val pending : t -> int
  (** Transactions committed in memory but not yet durable. *)

  val forces : t -> int
  (** Log forces charged so far (eager commits count one each). *)

  val acked : t -> int
  (** Transactions durably acknowledged so far. *)
end
