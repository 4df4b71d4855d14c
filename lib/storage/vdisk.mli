(** Virtual stable storage with crash injection.

    A [Vdisk.t] is an array of fixed-size pages with the semantics of a
    disk behind a volatile write cache: {!write} lands in the cache,
    {!sync} makes every cached write durable, and {!crash} throws away
    whatever was not yet synced.  Page writes are atomic (no torn
    pages), the standard assumption of the recovery literature the
    paper builds on.

    Every storage engine in this library sits on one or more vdisks;
    the crash-recovery property tests drive {!crash} at arbitrary
    points and then check atomicity and durability.

    Buffer lifecycle: a clean page is read straight from its durable
    buffer.  The first {!write} after a {!sync} copies its input into a
    private buffer for the page, and later writes copy into that same
    buffer in place, so a page is allocated at most once per sync.
    {!sync} makes the private buffers the durable ones without copying
    and {!crash} drops them; neither writes a durable buffer in
    place. *)

type t

val create : pages:int -> page_size:int -> unit -> t
(** A fresh disk of zeroed pages.  @raise Invalid_argument on
    non-positive sizes. *)

val pages : t -> int

val read : t -> int -> bytes
(** [read t p] returns a copy of page [p]'s current contents (cached
    write if any, else the durable image).
    @raise Invalid_argument on an out-of-range page. *)

val read_ro : t -> int -> bytes
(** Borrowed view of page [p]'s current contents — no copy.  The caller
    must not mutate the buffer and must not hold it across a later
    {!write}, {!sync} or {!crash} of the same disk (those may reuse or
    overwrite it).  Counts as a read, exactly like {!read}. *)

val write : t -> int -> bytes -> unit
(** Volatile until the next {!sync}.  The buffer must be exactly
    [page_size] long.  @raise Invalid_argument otherwise.  The buffer is
    copied, so the caller may reuse it, and it may be a {!read_ro} view
    of any page, this one included. *)

val sync : t -> unit
(** Make all cached writes durable. *)

val crash : t -> unit
(** Drop every write since the last {!sync}. *)

val unsynced_pages : t -> int
(** Number of pages with cached (not yet durable) writes. *)

val reads : t -> int
val writes : t -> int
