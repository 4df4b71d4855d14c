(** Fixed-capacity LRU map with hit/miss accounting and dirty tracking.

    Models the page-table buffer of the shadow recovery architecture
    (Section 4.2 of the paper).  Entries carry a [dirty] flag; evicting
    a dirty entry is reported to the caller so it can schedule a
    write-back. *)

type ('k, 'v) t

type ('k, 'v) evicted = { key : 'k; value : 'v; dirty : bool }

val create : capacity:int -> unit -> ('k, 'v) t
(** @raise Invalid_argument if [capacity <= 0]. *)

val capacity : ('k, 'v) t -> int

val length : ('k, 'v) t -> int

val mem : ('k, 'v) t -> 'k -> bool
(** Membership test; does not touch recency. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** [find t k] promotes [k] to most-recently-used on a hit.  Updates the
    hit/miss counters. *)

val peek : ('k, 'v) t -> 'k -> 'v option
(** Like {!find} but affects neither recency nor the counters. *)

val add : ('k, 'v) t -> 'k -> 'v -> ('k, 'v) evicted option
(** [add t k v] inserts or overwrites the binding (promoting it), and
    returns the entry evicted to make room, if any.  A new entry starts
    clean; an overwrite keeps the entry's dirty flag. *)

val set_dirty : ('k, 'v) t -> 'k -> bool -> unit
(** Mark an existing entry dirty or clean.  No-op when absent. *)

val remove : ('k, 'v) t -> 'k -> unit

val iter : ('k, 'v) t -> ('k -> 'v -> unit) -> unit
(** Iterate over all entries, most recently used first. *)

val hits : ('k, 'v) t -> int

val misses : ('k, 'v) t -> int

val clear : ('k, 'v) t -> unit
(** Drop all entries; keeps the hit/miss counters. *)
