(** Fixed-capacity FIFO ring buffer.  The simulator's event trace
    keeps its most recent events in one. *)

type 'a t

val create : capacity:int -> unit -> 'a t
(** @raise Invalid_argument if [capacity <= 0]. *)

val capacity : 'a t -> int

val length : 'a t -> int

val is_empty : 'a t -> bool

val is_full : 'a t -> bool

val push : 'a t -> 'a -> bool
(** [push t x] appends [x]; returns [false] (and drops [x]) when full. *)

val pop : 'a t -> 'a option
(** Remove and return the oldest element. *)

val peek : 'a t -> 'a option

val to_list : 'a t -> 'a list
(** Oldest first.  Non-destructive. *)

val clear : 'a t -> unit
