(** Fixed-capacity FIFO ring buffer.  The simulator's event trace
    keeps its most recent events in one. *)

type 'a t

val create : capacity:int -> unit -> 'a t
(** @raise Invalid_argument if [capacity <= 0]. *)

val push : 'a t -> 'a -> bool
(** [push t x] appends [x]; returns [false] (and drops [x]) when full. *)

val pop : 'a t -> 'a option
(** Remove and return the oldest element. *)

val to_list : 'a t -> 'a list
(** Oldest first.  Non-destructive. *)
