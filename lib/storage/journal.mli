(** Append-only journal of binary records with crash semantics.

    The stable-storage analogue of a sequential log file: {!append}
    buffers a record, {!sync} makes every buffered record durable, and
    {!crash} discards the tail that was never synced.  A journal holds
    whole strings in memory: it adds no framing of its own (no length
    prefix, no checksum), and a crash drops whole unsynced records, so
    a torn tail — a record half "on disk" — cannot occur and no scan
    ever meets one.  A torn crash mode is ROADMAP item 5.

    Every journal holds {!Wal_codec} frames (tag byte, varint fields,
    checksum trailer), and each has one decoder that answers a damaged
    record with {!Wal_codec.Corrupt}: the logging engine's log disks,
    the differential engine's A, D and commits files, the overwriting
    engines' intention lists, the version-selection commit list and
    the 2PC coordinator's decision log. *)

type t

val create : unit -> t

val append : t -> string -> int
(** Buffer a record; returns its sequence number within this journal
    (0-based, counting every record ever appended). *)

val sync : t -> unit
(** Make every buffered record durable.  With none buffered it is a
    no-op: no force, and {!sync_count} does not count it. *)

val crash : t -> unit
(** Drop the unsynced tail, record by record: every record appended
    before the last {!sync} survives whole, every later one is lost
    whole.  No record is ever cut short. *)

val read_all : t -> string list
(** The durable records, in append order.  Valid after a crash. *)

val length : t -> int
(** Number of durable records currently retained (what
    [List.length (read_all t)] would count) without materializing them. *)

val iter_all : (string -> unit) -> t -> unit
(** Iterate the retained durable records in append order, no list. *)

val iter_live : (string -> unit) -> t -> unit
(** Iterate durable records then the buffered tail, no list. *)

val to_array : t -> string array
(** The retained durable records in append order, as a fresh array —
    the random-access view chunked (parallel) recovery scans need.
    Element [i] has sequence number [synced t - length t + i]. *)

val synced : t -> int
(** Records currently durable. *)

val sync_count : t -> int
(** Number of {!sync} calls that made a record durable, over the
    journal's lifetime — the "disk forces" a commit protocol pays (what
    group commit amortizes). *)

val truncate : t -> keep_from:int -> unit
(** Discard durable records with sequence number < [keep_from]
    (checkpointing).  Sequence numbers of the remaining records are
    unchanged.  @raise Invalid_argument if [keep_from] exceeds the
    synced count. *)
