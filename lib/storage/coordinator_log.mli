(** The two-phase-commit coordinator's decision log.

    One journal of [(gid, commit?)] records, each a {!Wal_codec} small
    record: tag ['C'] (commit) or ['A'] (abort), the gid as a varint,
    the checksum trailer.  A cross-shard transaction commits the moment
    its decision record is forced here — before any participant learns
    the outcome — so participants may leave their local decision
    records unforced: restart recovery finds the prepared-but-undecided
    transactions in the participant logs ({!Engine_log.in_doubt}) and
    resolves each from this table, with {b presumed abort} for a gid
    the coordinator never decided (the crash hit between the
    participants' prepares and the coordinator's force, so no
    participant can have exposed a committed value).  DESIGN.md B.5
    carries the correctness argument. *)

type t

val create : unit -> t

val decide : t -> gid:int -> commit:bool -> unit
(** Append and force the decision record for [gid] — the transaction's
    commit point.  @raise Invalid_argument on a negative gid, or on a
    second decision for the same gid (decisions are immutable). *)

val resolve : t -> gid:int -> bool
(** The durable decision for [gid], with presumed abort: [false] when
    never decided.  The resolver shape the engines'
    [crash_and_recover_resolved] takes. *)

val decisions : t -> int
(** Decisions recorded (and, after a crash, recovered). *)

val log_syncs : t -> int
(** Journal forces paid — one per decision. *)

val crash_and_recover : t -> unit
(** Drop the unsynced tail and rebuild the decision table from the
    durable records.  @raise Wal_codec.Corrupt on a damaged record. *)

val decode : string -> int * bool
(** The journal's one decoder, exposed for the decoder tests: the
    record's [(gid, commit?)].
    @raise Wal_codec.Corrupt on any other string. *)
