(** Fixed-size domain-based worker pool.

    The pool owns [jobs - 1] worker domains that take the items of a
    [map_ordered] one at a time, in input order (the calling domain
    contributes as the [jobs]-th worker while the map is in flight).
    Results are always delivered in input order, so for a pure [f] the
    output is independent of how the items were interleaved across
    domains — parallelism never changes what a caller observes, only how
    fast it arrives.

    With [jobs = 1] no domains are spawned and [map_ordered] degenerates
    to a plain left-to-right [List.map], reproducing the serial execution
    path bit-for-bit.

    [map_ordered] must not be called from inside a task running on the
    same pool (no nesting); tasks that need parallelism should be
    restructured into a flat work list. *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the host core count, which is
    both the default pool size and the clamp on requested sizes. *)

val create : ?jobs:int -> ?allow_oversubscribe:bool -> unit -> t
(** A pool of [jobs] workers (default {!default_jobs}).  The effective
    size is clamped to {!default_jobs} — running more domains than cores
    only slows every domain down — unless [allow_oversubscribe] is
    [true] (for tests that must exercise the parallel path on a small
    host).  With an effective size of 1 no domain is ever spawned.
    @raise Invalid_argument when [jobs < 1]. *)

val jobs : t -> int
(** Effective worker count after clamping. *)

val map_ordered : t -> 'a list -> f:('a -> 'b) -> 'b list
(** [map_ordered t xs ~f] applies [f] to every element of [xs], fanning
    the applications out across the pool's domains, and returns the
    results in the order of [xs].  Items are handed out one at a time
    from an atomic cursor, in input order: a long item never idles other
    domains behind a chunk boundary, and a domain takes its next item
    only after finishing the last, so up to [jobs] items that wait on
    one another each get a domain of their own.  If one or more
    applications raise, the exception of the smallest input index is
    re-raised in the caller after all items have settled. *)

val shutdown : t -> unit
(** Join the worker domains.  Idempotent; the pool is unusable after. *)

val with_pool : ?jobs:int -> ?allow_oversubscribe:bool -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] on a fresh pool and shuts it down afterwards,
    whether [f] returns or raises. *)
