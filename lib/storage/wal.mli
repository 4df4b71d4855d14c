(** Write-ahead log records and their binary encoding.

    Three logging granularities share one record type and one framing
    layer ({!Wal_codec}):

    - {b physical}: {!Update} carries full before and after images of
      the page, as in the paper's logging architecture; LSNs are
      globally ordered across all log disks, which is what lets
      recovery proceed without merging the distributed logs into one
      physical log (Section 3.1, [13]);
    - {b delta}: {!Delta} carries only the changed byte range of the
      page (a common-prefix/suffix diff of the two images), applied at
      replay by patching an image in place — far smaller records for
      small in-place value updates;
    - {b logical}: {!Op} carries the operation itself
      ([insert(k,v)]/[delete(k)]); replay re-executes it instead of
      restoring images (logical recovery, as in Lomet et al.,
      {i Implementing Performance Competitive Logical Recovery}).

    Beside them, {!Commit}, {!Abort} and {!Prepare} carry decisions and
    two-phase-commit votes; {!Fuzzy_checkpoint} is the one checkpoint record. *)

exception Corrupt of string

type record =
  | Update of {
      lsn : int;
      txn : int;
      page : int;
      before : Wal_codec.View.t;
      after : Wal_codec.View.t;
    }
      (** The full before and after images of the page.  Neither is a
          copy.  In a record {!decode} returned, each is a view into the
          record's own frame, which the journal keeps unchanged, so the
          record stays valid as long as it is held.  In a record an
          engine builds to append, each borrows the engine's page
          buffers ({!Wal_codec.View.borrow}): encode it before either
          buffer changes. *)
  | Delta of {
      lsn : int;
      txn : int;
      page : int;
      off : int;
      prev_lsn : int;
      before_slice : string;
      after_slice : string;
    }
      (** The page {e body} changed only in [off, off + length
          before_slice): [before_slice]/[after_slice] are the old and
          new bytes of that range (equal length by construction).  The
          8-byte page-header LSN — which changes on every update and
          would otherwise drag the diff range back to byte 0 — is never
          sliced ([off >= 8]); replay reproduces it from the record
          itself: [lsn] applying forward, [prev_lsn] (the header of the
          before image) applying backward.  Carrying both slices keeps
          the record invertible, so replay can walk a page's chain in
          either direction. *)
  | Op of { lsn : int; txn : int; key : int; value : string option }
      (** Operation logging: [Some v] is [insert/put key v], [None] is
          [delete key].  No images at all — replay re-executes. *)
  | Commit of { lsn : int; txn : int }
  | Abort of { lsn : int; txn : int }
  | Prepare of { lsn : int; txn : int; gid : int }
      (** Two-phase commit vote: the transaction's effects are durable on
          this participant and it will commit iff the coordinator's
          decision record for global transaction [gid] says so.  A
          prepared transaction with no later {!Commit}/{!Abort} record is
          {e in doubt} at restart: recovery resolves it from the
          coordinator log (presumed abort when the coordinator has no
          decision). *)
  | Fuzzy_checkpoint of {
      lsn : int;
      start_lsn : int;
          (** replay may start at the first durable record with
              [lsn >= start_lsn]: everything older is already reflected
              in the durable data image or belongs to a transaction that
              had finished — and been undone where needed — before the
              checkpoint *)
    }
      (** The record both of {!Engine_log}'s checkpoints write: it tells
          restart recovery how far into the log it may skip.  The fuzzy
          checkpoint forces nothing to the data disk and truncates no
          log; the sharp one flushes first and then truncates every log
          disk below [start_lsn]. *)

val lsn : record -> int

val txn_of : record -> int option
(** [None] for checkpoints. *)

val equal : record -> record -> bool
(** Same fields, images compared by content.  Polymorphic equality
    would compare two {!Update}s' frames, not their images. *)

(** {2 Delta computation}

    The diff that decides between {!Delta} and a full {!Update}. *)

val delta_update :
  threshold:int ->
  lsn:int ->
  txn:int ->
  page:int ->
  before:bytes ->
  after:bytes ->
  lo:int ->
  hi:int ->
  record
(** A {!Delta} when the changed {e body} range is small enough that
    both slices together fit in [threshold] bytes
    ([2 * len <= threshold]); a full {!Update} past the threshold (a
    near-total rewrite gains nothing from slicing) or when the images
    are too small to carry the 8-byte page header.  The diff skips the
    header: [prev_lsn] is read from the before image, and the after
    image's header must already hold [lsn] (the engine stamps it before
    logging).  It scans only the body bytes [lo, hi): the caller
    vouches that the images agree everywhere else past the header
    (the range {!Page.update} reports), and a caller that knows no
    range passes the whole body, [lo = 8] and [hi = length before].
    Given such a range, the record equals the whole-body scan's.  A
    full {!Update} borrows [before] and [after] themselves, not copies:
    encode it before either buffer changes.
    @raise Invalid_argument on images of different length, or, for
    images longer than the header, on a range outside the body or when
    the after image's header is not at [lsn]. *)

val apply_slice : bytes -> off:int -> string -> unit
(** Patch [slice] into the image at [off] — how replay applies one side
    of a {!Delta}.  @raise Corrupt when the range exceeds the image. *)

(** {2 Encoding} *)

val encode : record -> string
(** Binary encoding with a trailing checksum ({!Wal_codec} framing).
    Allocates a fresh scratch per call; engines on a hot append path
    use {!encode_with} with a reusable one. *)

val encode_with : Wal_codec.Enc.t -> record -> string
(** {!encode} through the caller's scratch buffer: fields are blitted
    straight into it and the returned string is the single allocation
    (the journal's copy of the record). *)

val decode : string -> record
(** Checked decode.  An {!Update}'s images are views into [s], so
    decoding one copies no image; a {!Delta}'s slices and an {!Op}'s
    value are copied once.  Every tag is a lowercase {!Wal_codec} tag;
    anything else is [Corrupt].
    @raise Corrupt on a damaged or truncated encoding (checksum
    mismatch, bad tag, short buffer, trailing bytes). *)

(** {2 Unchecked peeks}

    Every record shape stores its LSN at a fixed offset right after the
    tag byte, and the transaction-bearing shapes store their txn id just
    past it, so both read in O(1) without the checksum pass [decode]
    pays.  These trust the
    framing: they are only safe on records the engine itself appended
    (the in-memory journals hold exactly what [encode] produced).
    Recovery uses them to locate the replay suffix and re-seed counters
    without decoding — and checksumming — the log prefix a fuzzy
    checkpoint lets it skip. *)

val peek_lsn : string -> int
(** The encoded record's LSN, without checksum verification. *)

val peek_txn : string -> int option
(** The encoded record's txn id; [None] for checkpoint records. *)

val peek_is_fuzzy_checkpoint : string -> bool
(** Tag test: does this encoding hold a {!Fuzzy_checkpoint}? *)

val peek_vote : string -> [ `Prepared of int * int | `Decided of int | `Other ]
(** The record's part in two-phase commit, for in-doubt detection:
    [`Prepared (txn, gid)] for a {!Prepare} (checked decode),
    [`Decided txn] for a {!Commit} or {!Abort} (tag byte and
    {!peek_txn}), [`Other] for the rest. *)

val pp : Format.formatter -> record -> unit
