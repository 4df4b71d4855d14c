(** Deterministic pseudo-random number generator (SplitMix64).

    All randomness in the simulator flows through values of type {!t} so
    that every experiment is exactly reproducible from its seed.  The
    generator is the SplitMix64 mixer of Steele, Lea and Flood; it has a
    full 2{^64} period and passes BigCrush, which is far more than a
    queueing simulation needs. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] draws from [t] and returns a new generator seeded with the
    draw, statistically independent of the remainder of [t]'s stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform on [\[0, bound)].  @raise Invalid_argument
    if [bound <= 0]. *)

val int_in : t -> lo:int -> hi:int -> int
(** [int_in t ~lo ~hi] is uniform on the inclusive range [\[lo, hi\]].
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float t bound] is uniform on [\[0, bound)]. *)

val bool : t -> p:float -> bool
(** [bool t ~p] is [true] with probability [p] (clamped to [\[0,1\]]). *)

val exponential : t -> mean:float -> float
(** Exponentially distributed draw with the given mean. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample_distinct : t -> n:int -> lo:int -> hi:int -> int array
(** [sample_distinct t ~n ~lo ~hi] draws [n] distinct integers uniformly
    from the inclusive range [\[lo, hi\]], in random order.
    @raise Invalid_argument if the range holds fewer than [n] values. *)
