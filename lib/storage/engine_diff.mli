(** The differential-file recovery engine (Section 3.3, functional).

    The store is the view [(B u A) - D]: a read-only base [B] (pages on
    a virtual disk) plus append-only differential files — [A] for
    additions/updates and [D] for deletions.  A lookup resolves that
    view for one key: the newest A or D record for the key whose writer
    it may see (its own or a committed one) decides, and otherwise the
    base does — the set-union/set-difference the paper charges the
    query processors for, paid per key rather than per file.

    Reads find a key's records through a volatile per-key chain of the
    retained A and D records, newest first, that every write extends.
    A read walks its key's chain to the first visible record and stops.
    A crash or a merge only marks the chains stale; the next read
    rebuilds all of them in one pass over both files, so it alone pays
    for the chains.

    Writes never touch the base, so the recovery data {e is} the data:
    commit forces the A and D files and appends a commit record;
    records of uncommitted transactions are simply never selected, so
    crash recovery undoes and redoes nothing.  It rebuilds the
    committed set from the commits journal and decodes every durable
    A and D record once, to restart the stamp and transaction counters
    past them.  {!checkpoint} runs the merge the paper mentions
    (folding committed A/D records into the base and truncating the
    differential files), which requires quiescence and first forces
    the A, D and commits journals.

    MVCC snapshot reads ({!Kv.SNAPSHOT}): the differential files
    retain every committed version until a merge folds it away, so a
    snapshot is just a pinned commit point — a record is visible iff
    its writer's commit (ordered by the commit journal) is at or below
    the pin.  The merge respects the snapshot horizon: it folds and
    truncates only the stamp prefix every live snapshot can already
    see, so no read through a live snapshot ever changes.

    Satisfies {!Kv.SNAPSHOT}; extras below. *)

include Kv.SNAPSHOT

val commit_group : txn -> unit
(** Group commit: append the commit record but force nothing.  The
    transaction is committed in memory (immediately visible to
    readers) and becomes durable at the next {!force_commits} — or any
    eager [commit], whose syncs of the shared A/D/commits journals
    inherently cover every pending record; a crash before that loses
    it.  The group-commit durability window, amortizing the three
    per-commit forces across a batch. *)

val force_commits : t -> unit
(** Force the differential files and then the commit journal (records
    before commits): every group-committed transaction becomes
    durable. *)

val state_fingerprint : t -> string
(** 128-bit hex digest of base pages, retained differential records,
    the committed set and the stamp/txn counters — everything restart
    recovery is responsible for. *)

val a_size : t -> int
(** Records currently in the additions file. *)

val d_size : t -> int
(** Records currently in the deletions file. *)

val merges : t -> int

(** {2 Record decoders} Exposed for the decoder tests.  Any string that
    is not one of the journal's records raises {!Wal_codec.Corrupt}. *)

type version = { stamp : int; writer : int; value : string option }
(** A differential record without its key: [Some value] from A, [None]
    from D. *)

val decode_record : string -> int * version
(** The one decoder of both differential files: a key and its version. *)

val decode_commits_record : string -> int
(** The one decoder of the commits journal: a committed transaction id. *)
