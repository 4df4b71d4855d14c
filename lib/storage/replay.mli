(** Page-partitioned parallel log replay (the tentpole of the multicore
    recovery work).

    Restart recovery over a set of distributed log journals runs one
    pipeline for every log format, in three phases, each of which
    parallelizes without changing the result:

    {ol
    {- {b decode} — every durable record is length-checked, checksummed
       and decoded.  Decoding copies no page image: an update's images
       are views into its own frame.  Records are independent, so the
       per-disk record arrays are cut into contiguous chunks and decoded
       across the {!Dbm_util.Pool} domains, each chunk into its own
       slots, so the decoded arrays are identical to a serial decode.}
    {- {b partition} — the format's route sends each record at or after
       the replay start LSN to an int code (its page, with or without a
       read of the page's durable base image) or skips it.  Records are
       counted per page and placed into one slot array by a k-way LSN
       merge across the log disks, so each page's slice is oldest first
       (LSNs are globally issued, a total order).  The base images
       routes ask for are read on the calling domain, in ascending page
       order, before the fan-out; pages are partitioned by
       [page mod jobs], so partitions touch disjoint page sets.}
    {- {b fold} — each partition hands its pages' slices to the
       format's per-page fold: after images and delta chains for
       {!recover_sorted}, operation re-execution for {!recover_logical}.
       The fold decides the page's final image and, for a loser-only
       restore, the base LSN that makes its write due, at the page's
       index of one page-indexed array, independent of the partition
       count and of worker interleaving.}}

    Final images are handed to the caller in ascending page order, at
    most once per page, so disk reads, write counts and contents are
    identical for any job count — [pool = None] (or a 1-job pool)
    reproduces the serial path exactly. *)

val chunk_ranges : len:int -> pieces:int -> (int * int) list
(** Contiguous [(lo, hi)] ranges covering [0, len), at most [pieces] of
    them, sizes differing by at most one.  Empty for [len <= 0]. *)

(** {2 Prefix skipping}

    Decoding is the dominant recovery cost (a checksum pass over every
    page image), so a fuzzy checkpoint only pays off if the prefix it
    licenses skipping is never decoded at all.  The helpers below work
    on the raw encoded strings ([Journal.to_array]) via the O(1)
    {!Wal.peek_lsn}/{!Wal.peek_txn} loads: find the newest checkpoint,
    binary-search each journal for the replay suffix, decode only that,
    and take the epilogue's counter maxima from peeked metadata. *)

type meta = {
  raws : string array array;  (** the raw journals {!scan} was given *)
  max_lsn : int;  (** the newest retained LSN, [0] for empty logs *)
  max_txn : int;  (** the largest retained txn id, [0] when none *)
}

val scan : string array array -> meta
(** The LSN and txn maxima of the retained records: one fixed-offset
    load per record for the txn id, and each journal's last LSN (journal
    LSNs strictly increase); no checksum pass, no per-record array. *)

val replay_start_raw : string array array -> int
(** The replay start LSN announced by the newest durable
    {!Wal.Fuzzy_checkpoint} record across all logs, read off the raw
    encodings: checkpoint candidates are found by tag byte and only
    those pay for a checked decode.  [0] when no fuzzy checkpoint
    record survives (full-log replay). *)

val suffix_starts : meta -> start_lsn:int -> int array
(** Per-journal index of the first retained record with
    [lsn >= start_lsn]: journal LSNs strictly increase, so a binary
    search peeks O(log n) LSNs per journal.  Recovery decodes from it;
    the sharp checkpoint cuts below it. *)

val decode_from :
  ?pool:Dbm_util.Pool.t -> string array array -> lo:int array -> Wal.record array array
(** Decode only the suffix [lo.(disk) ..] of each journal's raw record
    array, fanning contiguous chunks across the pool.  Output order per
    disk is append order, bit-identical for any pool size.
    @raise Wal.Corrupt as a serial decode would. *)

val committed : ?also:int list -> start_lsn:int -> Wal.record array array -> (int, unit) Hashtbl.t
(** Transactions with a durable commit record at [lsn >= start_lsn].
    Any transaction owning an update record in the replay range has its
    commit record (when durable at all) in the range too, because commit
    LSNs are issued after every update LSN of the transaction — so the
    range-restricted set is exactly the set full-log replay would
    compute for the transactions replay will encounter.  [also] adds
    transactions committed by external resolution (2PC in-doubt winners
    whose local — unforced — commit record did not survive the crash but
    whose coordinator decision did). *)

val in_doubt : string array array -> (int * int) list
(** Prepared-but-undecided transactions in the raw durable logs
    ([Journal.to_array]): [(txn, gid)] for every {!Wal.Prepare} record
    whose transaction has no Commit/Abort record anywhere, ascending by
    txn id.  Records are classified by {!Wal.peek_vote}, so only
    prepare records pay for a checked decode, and decisions are read
    (in a second pass) only when some prepare exists. *)

val recover_sorted :
  ?pool:Dbm_util.Pool.t ->
  ?read:(page:int -> bytes) ->
  ?also_committed:int list ->
  records:Wal.record array array ->
  start_lsn:int ->
  write:(page:int -> bytes -> unit) ->
  unit ->
  unit
(** Physical and delta replay: the pipeline described above with the
    after-image/delta-chain fold.  [write] receives each touched page's
    final image at most once, in ascending page order, from the calling
    domain, as fresh bytes: the image written is the one image the fold
    copies out of a frame or a base.

    [read] supplies durable base images, borrowed: replay never writes
    a buffer [read] returns and copies a base only where a delta chain
    rewinds it.  It is done with every base before it writes a page,
    and reads a restore's page again for its due check just before
    writing it, so a {!Vdisk.read_ro} view is a valid [read].  A page
    touched only by losers reverts to the before image of its earliest
    retained update only when its base holds that update.  A base that predates it holds no
    loser effect and the same keys as the before image, because every
    engine force covers every log disk, so a crash loses only records
    appended after every record it keeps; the rule leaves such a base,
    page-header LSN included, as it is.  Without [read] the restore is
    always written.

    When the log holds {!Wal.Delta} records, [read] is required: a page
    whose winner has no full {!Wal.Update} at or before it, or whose
    loser-only restore starts at a delta, rewinds a copy of its base
    over the records the base already holds to the chain's first state
    and patches forward from there.
    @raise Wal.Corrupt on delta records without a [read], or when a
    journal's LSNs do not ascend. *)

val recover_logical :
  ?pool:Dbm_util.Pool.t ->
  ?also_committed:int list ->
  records:Wal.record array array ->
  start_lsn:int ->
  page_of:(int -> int) ->
  read:(page:int -> bytes) ->
  write:(page:int -> bytes -> unit) ->
  unit ->
  unit
(** REDO-only re-execution for the no-steal operation-logging engine,
    the same pipeline with the re-executing fold: committed {!Wal.Op}
    records are partitioned by page ([page_of] is the engine's static
    key layout), each page's operations re-execute in LSN order onto a
    copy of its durable base image, and the page-header LSN guard skips
    operations the image already holds (idempotence).  Loser operations
    are ignored — no-steal means they never reached the durable image.
    [read] and [write] as in {!recover_sorted}: a base is copied only
    when an operation re-executes, and pages whose image was already
    current are not rewritten. *)
