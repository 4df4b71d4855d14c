(** A disk drive attached to the event engine.

    Requests name a set of logical pages plus a completion callback and
    are served FCFS.

    A {e conventional} drive transfers one page per access (the paper's
    contrast with parallel-access drives); a multi-page request is a
    back-to-back train of accesses, with the arm position carried from
    page to page, so sequential trains pay only short seeks.

    A {e parallel-access} drive serves one cylinder per access.  When it
    begins an access it also absorbs, from anywhere in the queue, the
    pages of other same-kind requests that fall in the target cylinder —
    this is how "all the corresponding updated data pages [that] belong
    to the same cylinder ... may be written to disk in one I/O"
    (Section 4.1.2).  The access costs
    [seek + latency + (distinct rotational slots) * transfer]. *)

type t

type kind = Read | Write

val create :
  Dbm_sim.Engine.t ->
  params:Params.t ->
  layout:Layout.t ->
  name:string ->
  ?coalesce:bool ->
  unit ->
  t
(** [coalesce] (default [true]) controls whether a parallel-access
    drive absorbs other queued same-kind requests that fall in the
    target cylinder; disabling it is the queue-coalescing ablation. *)

val name : t -> string

val submit : t -> ?extra_transfers:int -> kind -> pages:int list -> (unit -> unit) -> unit
(** Enqueue a request; the callback fires when {e all} its pages have
    been transferred.  An empty page list completes immediately (but
    still asynchronously, via a zero-delay event).

    [extra_transfers] charges that many additional block-transfer times
    {e per page served} from this request — the version-selection
    architecture's "read both copies" cost (Section 3.2.2.1), where the
    second copy is physically adjacent so only transfer time is added.
    When a parallel-access drive absorbs other requests into an access,
    the absorbed pages are charged at the head request's rate. *)

val access_count : t -> int
(** Number of physical disk accesses performed. *)

val pages_transferred : t -> int

val utilization : t -> float
(** Busy time over elapsed simulation time. *)
