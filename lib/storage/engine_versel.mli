(** The version-selection recovery engine (Section 3.2.2.1,
    functional).

    Every logical page owns two physically adjacent disk slots.  An
    update writes the new image into the slot {e not} holding the
    latest committed version, tagged with a version number and the
    writing transaction; nothing is ever overwritten in place while it
    is still the current copy.  A read fetches {e both} slots and runs
    the version-selection algorithm: among slots whose writer is on the
    durable committed list (or is the reading transaction itself), the
    higher version wins.

    Commit is: sync the data slots, then append the transaction id to
    the committed list and sync it.  Crash recovery is free — slots
    written by transactions missing from the committed list are simply
    never selected.  The price the paper charges this design (every
    read transfers two blocks, disk space doubles) is visible here as
    the two-slot layout and the double read in [select].

    A page written twice loses its older committed slot, so there are
    no snapshot reads: {!Engine_diff} is the one {!Kv.SNAPSHOT} engine.

    Satisfies {!Kv.S}; extras below. *)

include Kv.S

val commit_group : txn -> unit
(** Group commit: append the commit id but force nothing.  The
    transaction is committed in memory (its slots select immediately)
    and becomes durable at the next {!force_commits} — or any eager
    [commit], whose disk and commit-list syncs cover every pending slot
    and id; a crash before that loses it. *)

val force_commits : t -> unit
(** Sync the data slots, then the committed list (slots before ids):
    every group-committed transaction becomes durable. *)

val slot_versions : t -> page:int -> int * int
(** The version tags of the two slots of a logical page (tests). *)

val decode_commit : string -> int
(** The commit list's one decoder, exposed for the decoder tests: the
    committed txn id.  @raise Wal_codec.Corrupt on any other string. *)
