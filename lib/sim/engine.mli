(** Discrete-event simulation engine.

    The engine keeps an agenda of timed callbacks ordered by
    [(time, sequence number)]; events scheduled for the same instant fire
    in the order in which they were scheduled, which makes every run
    deterministic.  Time is a [float] in milliseconds, matching the unit
    used throughout the paper.

    The engine recycles event records through a free-list, so a steady
    stream of schedule/fire cycles allocates no minor words beyond the
    caller's own closures. *)

type t

type event_id
(** Handle for cancelling a scheduled event.  Handles are
    generation-tagged: once the event has fired or its cancellation has
    been processed, the handle goes permanently stale and any further
    [cancel] through it is a no-op — even after the engine recycles the
    underlying record for a new event. *)

val create : unit -> t

val reset : t -> unit
(** Return the engine to its just-created state — clock at 0, empty
    agenda, zero counters — while keeping the heap arrays and recycled
    event records for the next run (no major-heap churn).  Every
    outstanding {!event_id} goes permanently stale.  After [reset] the
    engine behaves observationally like [create ()]: event ordering is
    by [(time, seq)] only, so reusing records cannot change any run. *)

val now : t -> float
(** Current simulation time (ms).  Starts at [0.0]. *)

val schedule : t -> delay:float -> (unit -> unit) -> event_id
(** [schedule t ~delay f] fires [f] at [now t +. delay].
    @raise Invalid_argument if [delay] is negative or not finite. *)

val schedule_at : t -> time:float -> (unit -> unit) -> event_id
(** [schedule_at t ~time f] fires [f] at absolute [time].
    @raise Invalid_argument if [time] is in the past or not finite. *)

val cancel : t -> event_id -> unit
(** Cancelling an already-fired or already-cancelled event is a no-op. *)

val pending : t -> int
(** Number of scheduled (uncancelled) events. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Execute events in order until the agenda is empty, [until] is
    reached (events at exactly [until] still fire), or [max_events] have
    fired.  May be called repeatedly. *)

val step : t -> bool
(** Execute the single next event; [false] when the agenda is empty. *)
