(** A pool of identical FCFS servers driven by the event {!Engine}.

    Jobs carry a service time and a completion callback.  When a server
    is free the oldest queued job is started; its callback fires when the
    service time elapses.  The pool records busy time for utilization,
    which is how the paper reports processor and disk statistics
    (Tables 2 and 5).

    The completion path is shared across jobs (one pre-allocated finish
    closure per server) and the waiting line is a growable ring buffer,
    so submitting to an idle server allocates nothing beyond the
    caller's continuation. *)

type t

val create : Engine.t -> name:string -> servers:int -> unit -> t
(** @raise Invalid_argument if [servers <= 0]. *)

val reset : t -> name:string -> servers:int -> unit
(** Return the pool to its just-created state under a (possibly) new
    name and server count, reusing the grown arrays: idle-server stack
    refilled, waiting ring emptied (continuations unpinned), statistics
    restarted at the engine's current time.  Reset the shared engine
    {e first} so the time origin is the new run's zero.
    @raise Invalid_argument if [servers <= 0]. *)

val submit : t -> service:float -> (unit -> unit) -> unit
(** [submit t ~service k] enqueues a job that will occupy one server for
    [service] ms and then call [k].
    @raise Invalid_argument if [service] is negative or not finite. *)

val busy_servers : t -> int

val queue_length : t -> int
(** Jobs waiting (excluding those in service). *)

val completed : t -> int

val utilization : t -> float
(** Busy time divided by [servers * now], as of the engine's current
    time. *)
