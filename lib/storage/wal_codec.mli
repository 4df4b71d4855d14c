(** Shared zero-copy log-record framing.

    The one record format of every journal: {!Wal}'s log records, the
    differential engine's A, D and commit records, the overwriting
    engines' intentions, version selection's commit list and the 2PC
    coordinator's decisions.  A record is

    {v tag:1 | fixed fields | varint-framed payload | checksum:8 v}

    - the {b tag byte} and any 8-byte fixed fields come first, at fixed
      offsets, so O(1) unchecked peeks ({!Wal.peek_lsn} and friends)
      keep working on the new encodings;
    - variable payload uses {b LEB128 varints} for lengths, counts and
      small integers, so a delta record's framing costs bytes
      proportional to what it carries, not 8 per field;
    - the trailing {b checksum} is {!Dbm_util.Digest.fnv64_words} over
      everything before it: four FNV lanes over 32-byte blocks, folded
      into one value by the odd-prime FNV step.  Each lane step is a
      bijection of the lane and of the word it takes, and the fold is a
      bijection of each lane, so a single flipped bit anywhere in the
      frame always changes the trailer.

    Encoding goes through a reusable growable scratch buffer
    ({!Enc.t}), one per engine: fields are blitted straight into it and
    {!Enc.finish} hands back the single final string the journal
    stores — no [Buffer], no per-integer 8-byte boxes, no
    body-then-checksum concat.  Decoding runs a cursor over the
    original string ({!Dec}): one checksum pass, then a payload is
    either copied out once ({!Dec.string}) or returned as a {!View.t}
    into the frame itself ({!Dec.view}), which copies nothing. *)

exception Corrupt of string

(** A read-only byte range of a string: [len] bytes of [src] from
    [pos].  Nothing writes through a view; a reader blits from it. *)
module View : sig
  type t = private { src : string; pos : int; len : int }

  val of_string : string -> t
  (** The whole string. *)

  val borrow : bytes -> t
  (** The whole buffer, not copied: the view reads whatever the buffer
      holds, so it is valid only until the buffer next changes. *)

  val blit : t -> bytes -> unit
  (** Copy the range to the start of [dst].
      @raise Invalid_argument when [dst] is shorter than the view. *)

  val to_bytes : t -> bytes
  (** The range as fresh bytes: one copy. *)

  val equal : t -> t -> bool
  (** Same bytes, wherever they sit. *)
end

(** Scratch-buffer encoder.  One instance per engine (single-domain
    use); the buffer is reused across records and only grows. *)
module Enc : sig
  type t

  val create : ?size:int -> unit -> t
  (** [size] is the initial scratch capacity (default 256). *)

  val reset : t -> tag:char -> unit
  (** Start a fresh record: rewind the scratch and write the tag byte. *)

  val int64 : t -> int -> unit
  (** Fixed 8-byte little-endian field (LSN / txn slots the peeks
      load). *)

  val varint : t -> int -> unit
  (** LEB128.  @raise Invalid_argument on a negative value. *)

  val string : t -> string -> unit
  (** Varint length prefix, then the payload. *)

  val substring : t -> string -> pos:int -> len:int -> unit
  (** Varint length prefix, then [len] bytes of [s] from [pos]. *)

  val byte : t -> int -> unit
  (** One raw byte (a flag). *)

  val size : t -> int
  (** Bytes written since {!reset} (excluding the checksum). *)

  val finish : t -> string
  (** Checksum the scratch contents, append the 8-byte trailer and
      return the framed record — the one string allocation of the whole
      encode. *)
end

(** Checked decoder: a cursor over the original encoded string.
    {!start} pays the one checksum pass; every accessor then reads in
    place.  {!string} copies a payload once, {!view} not at all. *)
module Dec : sig
  type t

  val tag : string -> char
  (** The record's tag byte.  @raise Corrupt on an empty string. *)

  val start : string -> t
  (** Verify the trailing checksum and position the cursor just past
      the tag byte.  @raise Corrupt on a short or damaged encoding. *)

  val int64 : t -> int

  val varint : t -> int
  (** Always non-negative.  @raise Corrupt on a truncated varint or one
      whose value needs the sign bit. *)

  val view : t -> View.t
  (** Varint-framed payload as a view into the encoded string itself:
      no copy.  @raise Corrupt when the length runs past the body. *)

  val string : t -> string
  (** Varint-framed payload as a fresh string, single copy.  @raise
      Corrupt when the length runs past the body. *)

  val byte : t -> int

  val finished : t -> bool
  (** Has the cursor consumed the whole body?  Decoders use it to
      reject trailing garbage. *)
end

(** {2 Small records} A tag and a few non-negative ints, one varint
    each: an intention, a commit id, a decision. *)

val encode_fields : Enc.t -> tag:char -> int list -> string
(** @raise Invalid_argument on a negative field. *)

val decode_fields : string -> char * int list
(** The checked inverse: the tag and every varint before the trailer.
    A caller raises {!Corrupt} on any shape its journal does not hold.
    @raise Corrupt on a damaged encoding. *)
