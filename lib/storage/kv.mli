(** The common signature of all recovery engines.

    Every recovery mechanism the paper studies is implemented as a
    transactional key-value page store satisfying {!S}, so the crash
    property tests and the examples run unchanged against logging,
    shadow page-table, version-selection, overwriting (both variants)
    and differential-file engines.

    Concurrency: engines support multiple live transactions, but
    conflicting access to the same key must be serialized by the caller
    (in the paper's machine the back-end controller's page-level
    scheduler does this; {!Lock_mgr} is provided for composition). *)

exception Txn_finished
(** Raised when using a transaction handle after commit/abort or after
    a crash. *)

exception Scratch_full
(** Raised by the overwriting engines when the scratch ring buffer
    overflows (the paper's Section 3.2.2.1 overflow caveat). *)

module type S = sig
  type t

  type txn

  val engine_name : string

  val create : ?n_keys:int -> unit -> t
  (** Fresh store holding keys [0 .. n_keys-1] (default 256). *)

  val max_keys : t -> int

  val keys_per_page : t -> int
  (** Locking granule: keys [k] and [k'] share a page (and therefore a
      lock) iff [k / keys_per_page = k' / keys_per_page].  1 for the
      model and record-granular engines. *)

  val begin_txn : t -> txn

  val get : txn -> int -> string option

  val put : txn -> int -> string -> unit

  val delete : txn -> int -> unit

  val commit : txn -> unit

  val abort : txn -> unit

  val crash_and_recover : t -> unit
  (** Simulate a system crash (volatile state lost) followed by
      restart recovery.  Live transaction handles become unusable. *)

  val checkpoint : t -> unit
  (** Engine-specific housekeeping: log checkpoint + truncation for the
      logging engine, merge of the differential files for the
      differential engine, a no-op elsewhere.  May require quiescence
      (no live transactions); raises [Failure] otherwise where so. *)

  val stats : t -> (string * int) list
  (** Named counters, each one some caller looks up: every engine but
      the model exports [disk_reads] and [disk_writes] (data-disk page
      I/O); the logging engines add [durable_records] and [log_syncs],
      the differential-file engine [a_records], [d_records] and
      [merges].  The model exports none. *)
end

(** Engines that retain old committed versions can expose them as MVCC
    snapshots: a {!SNAPSHOT.snapshot} is a consistent read-only view
    pinned to the commit point at which it was taken.  Reads through it
    see exactly the committed state of that instant — never a later
    commit, never uncommitted work — without taking any lock and
    without copying the store.  Old versions are reclaimed only once
    every snapshot that could see them has been released (the snapshot
    horizon), so merge/checkpoint/truncation never frees a version a
    live snapshot still needs. *)
module type SNAPSHOT = sig
  include S

  type snapshot

  val snapshot : t -> snapshot
  (** Pin a read-only view to the current commit point.  O(1): no data
      is copied; visibility is decided per read against the commit
      ordering the engine already maintains. *)

  val snapshot_get : snapshot -> int -> string option
  (** Read through the pinned view.  Lock-free and non-blocking.
      @raise Txn_finished after {!snapshot_release} or a crash. *)

  val snapshot_release : snapshot -> unit
  (** Close the view and advance the reclamation watermark.  Idempotent
      after a crash (crashes drop every snapshot). *)

  val live_snapshots : t -> int
  (** Snapshots taken and not yet released (crashes reset it to 0). *)
end

module Model : S
(** Executable specification: an in-memory store with perfect
    transactional semantics (commit durable, uncommitted work lost on
    crash).  The property tests compare every engine against it. *)
