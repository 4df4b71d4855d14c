(** Fixed-capacity LRU map with dirty tracking.

    Models the page-table buffer of the shadow recovery architecture
    (Section 4.2 of the paper).  Entries carry a [dirty] flag; evicting
    a dirty entry is reported to the caller so it can schedule a
    write-back. *)

type ('k, 'v) t

type ('k, 'v) evicted = { key : 'k; value : 'v; dirty : bool }

val create : capacity:int -> unit -> ('k, 'v) t
(** @raise Invalid_argument if [capacity <= 0]. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Membership test; does not touch recency. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** [find t k] promotes [k] to most-recently-used on a hit. *)

val add : ('k, 'v) t -> 'k -> 'v -> ('k, 'v) evicted option
(** [add t k v] inserts or overwrites the binding (promoting it), and
    returns the entry evicted to make room, if any.  A new entry starts
    clean; an overwrite keeps the entry's dirty flag. *)

val set_dirty : ('k, 'v) t -> 'k -> bool -> unit
(** Mark an existing entry dirty or clean.  No-op when absent. *)
