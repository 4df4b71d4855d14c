(** The overwriting shadow engines (Section 3.2.2.2, functional).

    Both variants keep separate shadow and current copies of each
    updated page {e only while the transaction is active}, using a
    scratch ring buffer on disk, and end with the shadow overwritten in
    place — so physical clustering survives and no page table is
    needed.

    {b No-redo} ({!No_redo}): before a page is first updated, its
    original is forced to the scratch space (with a durable intention
    record); updates then overwrite the home location in place.  A
    transaction commits only after all its updates are on disk, so
    recovery never redoes — it only restores shadows of uncommitted
    transactions from the scratch space.

    {b No-undo} ({!No_undo}): updated pages are written to the scratch
    space; once they are all durable the transaction is committed, and
    only then are the shadows overwritten (the install pass).  Recovery
    never undoes — it only re-installs committed-but-uninstalled
    transactions (idempotently) from the scratch space.

    Scratch-ring overflow raises {!Kv.Scratch_full}, the paper's
    overflow caveat.  Both modules satisfy {!Kv.S}. *)

module No_undo : sig
  include Kv.S

  val create_with : ?n_keys:int -> ?scratch_slots:int -> unit -> t

  val scratch_in_use : t -> int

  val commit_without_install : txn -> unit
  (** Commit (scratch durable + commit record) but stop before the
      install pass — the window in which the paper keeps the page locks
      held.  Used by the crash tests to exercise the re-install path of
      restart recovery; until a crash+recovery runs, other transactions
      reading the affected pages see the shadows. *)
end

module No_redo : sig
  include Kv.S

  val create_with : ?n_keys:int -> ?scratch_slots:int -> unit -> t

  val scratch_in_use : t -> int
end

val decode_meta : string -> [ `Intent of int * int * int | `Commit of int | `Resolved of int ]
(** The meta journal's one decoder, exposed for the decoder tests:
    [`Intent (txn, page, slot)], [`Commit txn] or [`Resolved txn].
    @raise Wal_codec.Corrupt on any other string. *)
