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
       the replay start LSN to its page, or skips it, and pages are
       hash-partitioned ([page mod partitions]).  Every record of one
       page lands in exactly one partition, so partitions touch disjoint
       page sets.  The durable base images a route asks for are read
       serially on the calling domain before the fan-out.}
    {- {b fold} — each partition independently sorts each page's
       records newest first by LSN (the global total order the engines
       issue) and hands them to the format's per-page fold: after
       images and delta chains for {!recover_sorted}, operation
       re-execution for {!recover_logical}.  The fold returns the page's final image and,
       for a loser-only restore, the base LSN that makes its write due
       (see {!recover_sorted}).  Because the fold is per page and pages
       do not straddle partitions, the images are independent of the
       partition count and of worker interleaving.}}

    Final images are handed to the caller in ascending page order, at
    most once per page, so disk write counts and contents are identical
    for any job count — [pool = None] (or a 1-job pool) reproduces the
    serial path exactly. *)

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
  lsns : int array array;  (** peeked LSN of every retained record *)
  txns : int array array;  (** peeked txn id, [-1] for checkpoint records *)
}

val scan : string array array -> meta
(** Peek LSN and txn id of every retained record — two fixed-offset
    loads per record, no checksum pass. *)

val replay_start_raw : string array array -> int
(** The replay start LSN announced by the newest durable
    {!Wal.Fuzzy_checkpoint} record across all logs, read off the raw
    encodings: checkpoint candidates are found by tag byte and only
    those pay for a checked decode.  [0] when no fuzzy checkpoint
    record survives (full-log replay). *)

val suffix_starts : meta -> start_lsn:int -> int array
(** Per-journal index of the first retained record with
    [lsn >= start_lsn] (journal LSNs strictly increase: a binary
    search).  Recovery decodes from it; the sharp checkpoint cuts below it. *)

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
    prepare records pay for a checked decode. *)

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
    copies out of a frame.

    [read] supplies durable base images, each a copy replay may patch
    in place.  A page touched only by losers
    reverts to the before image of its earliest retained update only
    when its base holds that update.  A base that predates it holds no
    loser effect and the same keys as the before image, because every
    engine force covers every log disk, so a crash loses only records
    appended after every record it keeps; the rule leaves such a base,
    page-header LSN included, as it is.  Without [read] the restore is
    always written.

    When the log holds {!Wal.Delta} records, [read] is required: a page
    with a delta record rewinds its durable base image over the records
    the base already holds to the chain's first state, then rebuilds
    every record's full images forward from it, re-anchoring at each
    full {!Wal.Update}, before the winner/loser fold runs.
    @raise Wal.Corrupt on delta records without a [read]. *)

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
    records are partitioned by page ([page_of] is
    the engine's static key layout), each page's operations re-execute
    in LSN order onto its durable base image, and the page-header LSN
    guard skips operations the image already holds (idempotence).
    Loser operations are ignored — no-steal means they never reached
    the durable image.  [write] semantics as in {!recover_sorted};
    pages whose image was already current are not rewritten. *)
