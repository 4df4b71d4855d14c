(** The snapshot registry behind the MVCC snapshots ({!Kv.SNAPSHOT}) of
    {!Engine_diff}, the one snapshot engine.

    It owns the part that does not depend on how versions are stored:
    the commit-sequence counter that orders commits, the live snapshots
    and the horizon each is pinned to, the watermark, the validity of a
    handle, and the crash reset.  The engine keeps only its visibility
    rule (which versions a horizon sees) and the reclaim step a release
    may unlock.

    Sequences and pins are volatile.  A crash drops every pin and
    restarts the sequence at 1; an engine whose visibility rule reads
    the sequences of durable commits re-issues them with {!commit}, in
    durable commit order, as it recovers. *)

type t

type 'a handle
(** A snapshot pinned on an engine store of type ['a]. *)

val create : unit -> t

val commit : t -> int
(** Issue the next commit sequence number: 1, 2, ... *)

val pin : t -> 'a -> 'a handle
(** Pin a snapshot of a store at the newest issued sequence. *)

val owner : 'a handle -> 'a
(** The pinned store.
    @raise Kv.Txn_finished after {!release} or a {!crash}. *)

val horizon : 'a handle -> int
(** The newest commit sequence the snapshot sees. *)

val release : 'a handle -> reclaim:('a -> unit) -> unit
(** Unpin.  The first release of a live handle runs [reclaim] on the
    store once the watermark has moved; a repeated release, or one
    after a crash, does nothing. *)

val live : t -> int
(** Snapshots pinned and not yet released since the last crash. *)

val watermark : t -> int
(** The oldest live horizon, [max_int] when none: a version displaced
    by a commit above it may still be read. *)

val crash : t -> unit
(** Drop every pin, killing every handle, and restart the sequence at 1. *)
