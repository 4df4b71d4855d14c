(** Bounded buffer pool over a virtual disk.

    The in-memory counterpart of the database machine's disk cache: a
    fixed number of frames holding copies of vdisk pages, with
    pin/unpin, dirty tracking, LRU replacement among unpinned frames,
    and a {e write-ahead gate}: a dirty frame may only be written back
    once [can_evict ~page ~lsn] agrees (the WAL rule — the caller
    supplies the check that the page's log records are durable, and is
    given the chance to force them).

    The steal/no-force engines can be composed over this pool; it is
    also exercised directly by the test suite as a substrate component. *)

type t

exception No_free_frame
(** All frames are pinned (the paper's "cache full of blocked pages"
    condition). *)

val create :
  Vdisk.t ->
  frames:int ->
  ?can_evict:(page:int -> lsn:int -> bool) ->
  ?before_evict:(page:int -> lsn:int -> unit) ->
  unit ->
  t
(** [can_evict] (default: always true) gates the write-back of a dirty
    frame; [before_evict] runs first and may force a log so the gate
    passes.  If the gate still refuses, eviction skips that frame and
    tries the next LRU candidate.
    @raise Invalid_argument if [frames <= 0]. *)

val frames : t -> int

val pinned : t -> int
(** Frames with at least one pin — a maintained counter, O(1). *)

val dirty_frames : t -> int
(** Resident frames whose contents differ from disk — maintained, O(1). *)

val get : t -> int -> bytes
(** [get t page] returns the frame's contents (fetching from disk on a
    miss, evicting if needed), {e pinning} the page.  Pins nest; every
    [get] needs a matching {!unpin}.  The returned buffer is the frame
    itself: mutating it and calling {!mark_dirty} updates the cached
    page.
    @raise No_free_frame when every frame is pinned or unevictable. *)

val unpin : t -> int -> unit
(** @raise Invalid_argument if the page is not pinned. *)

val mark_dirty : t -> int -> unit
(** Note that the frame's contents differ from the disk copy.
    @raise Invalid_argument if the page is not resident. *)

val is_dirty : t -> int -> bool

val resident : t -> int -> bool

val flush_page : t -> int -> unit
(** Write the frame back (volatile; call [Vdisk.sync] for durability)
    and mark it clean.  Subject to the [can_evict] gate.
    @raise Failure if the gate refuses. *)

val flush_all : t -> unit
(** Flush every dirty frame (gate applies to each) and sync the disk:
    the checkpoint write-back. *)

val hits : t -> int

val misses : t -> int

val evictions : t -> int
