(** Canonical content digest for run memoization.

    An accumulating 128-bit digest (two independent 64-bit FNV-1a
    lanes) over a tagged, length-prefixed byte encoding.  Feeders tag
    every value with its type and length-prefix strings, so the
    encoding is injective: equal digests mean equal feeder sequences
    (up to hash collision, ~2^-128 per pair).  Deterministic across
    processes and platforms (64-bit ints assumed).  Not cryptographic.

    Canonical-serialization contract: a producer of digestable
    configuration (e.g. [Dbm_machine.Config.feed_digest]) must feed
    {e every} field that affects the simulation result, in a fixed
    order, tagging variant constructors with {!tag}.  Adding a field or
    reordering feeds changes digests.  A digest names a run's inputs,
    not the simulator's code: memoized results live only in the
    process that computed them. *)

type t

val create : unit -> t

val int : t -> int -> unit
val float : t -> float -> unit
(** Digests the IEEE-754 bit pattern, so [0.0] and [-0.0] differ. *)

val bool : t -> bool -> unit
val string : t -> string -> unit

val tag : t -> int -> unit
(** Feed a variant-constructor tag (distinct from {!int} feeds). *)

val hex : t -> string
(** The current 128-bit digest as 32 lowercase hex characters.  The
    context remains usable (further feeds evolve the digest). *)

val of_string : string -> string
(** One-shot digest of a single string. *)

val fnv64_words : string -> pos:int -> len:int -> int64
(** Word-at-a-time FNV-1a over [s.[pos .. pos+len)] in four lanes: the
    four words of each 32-byte block fold into four independent lanes,
    which then fold into one value with the trailing whole words, the
    partial word and the length.  Every fold step multiplies by the odd
    FNV prime, a bijection, so a single flipped bit always changes the
    value.  The WAL codec's record checksum.
    @raise Invalid_argument on a bad range. *)

val fnv64_words_match : string -> pos:int -> len:int -> bool
(** Whether the 8 bytes at [pos + len], read little-endian, hold
    {!fnv64_words} of [s.[pos .. pos+len)]: a frame's checksum trailer,
    checked without boxing the checksum.
    @raise Invalid_argument when the range and its trailer do not fit
    in [s]. *)
