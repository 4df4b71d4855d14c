(** Mapping from logical page numbers to physical disk locations.

    [Sequential] keeps logically adjacent pages physically adjacent
    (slot-major within a track, track-major within a cylinder), the
    clustering assumption of Section 4.2.  [Scrambled] applies a
    deterministic pseudo-random permutation first, modelling the
    shadow-mechanism drift in which "logically adjacent pages are
    scattered all over the data disk" (Table 7). *)

type loc = { cylinder : int; track : int; slot : int }

type t =
  | Sequential
  | Scrambled of int  (** permutation seed *)

val locate : Params.t -> t -> page:int -> loc
(** Physical location of logical [page].  Pages wrap modulo the disk's
    capacity, so any non-negative page number is valid.
    @raise Invalid_argument on a negative page number. *)

val cylinder_fn : Params.t -> t -> int -> int
(** [cylinder_fn params layout] resolves the layout's parameters once
    and returns a function computing [(locate params layout ~page).cylinder]
    without allocating.  Partially apply it outside per-page loops. *)

val same_cylinder : Params.t -> t -> int -> int -> bool

val slot_positions : Params.t -> t -> int list -> int
(** Number of distinct rotational slot positions covered by the given
    pages: the transfer-count term of a parallel-access access. *)

val permutation : seed:int -> n:int -> int -> int
(** [permutation ~seed ~n] is a deterministic bijection on [0, n)
    (an affine map with a large multiplier) that scatters adjacent
    inputs far apart.  Used to scramble data pages within a zone.
    @raise Invalid_argument on inputs outside [0, n). *)

val permutation_fn : seed:int -> n:int -> int -> int
(** Same bijection as {!permutation} with the coefficients resolved
    once at partial application, so per-input calls skip the shared
    coefficient cache (and its lock). *)

val feed_digest : Dbm_util.Digest.t -> t -> unit
(** Feed the layout (constructor and seed) into a run digest. *)
