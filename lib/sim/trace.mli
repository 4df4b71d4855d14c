(** Bounded event tracing for simulation runs.

    A {!t} is a sink holding the most recent [capacity] events (a ring:
    old events are dropped, the total count is kept).  The machine emits
    an event at each state transition when a sink is supplied, so a
    puzzling run can be replayed as a readable timeline without paying
    for tracing when it is off. *)

type event = {
  time : float;  (** simulation time, ms *)
  source : string;  (** emitting component, e.g. ["txn 3"] or ["data-0"] *)
  tag : string;  (** event kind, e.g. ["admit"], ["read"], ["commit"] *)
  detail : string;
}

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 10,000 events.  @raise Invalid_argument if not
    positive. *)

val emit : t -> time:float -> source:string -> tag:string -> detail:string -> unit

val events : t -> event list
(** Retained events, oldest first. *)

val with_tag : t -> string -> event list

val total : t -> int
(** Events emitted over the sink's lifetime (retained or dropped). *)

val dump : Format.formatter -> t -> unit
(** Print the retained timeline, one event per line. *)
