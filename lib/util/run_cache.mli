(** Persistent content-addressed result store.

    Maps a digest (from {!Digest}) to an opaque payload string, one
    file per digest under [dir/<digest-prefix>/<digest>.res], with a
    versioned, checksummed header.  Designed for deterministic
    computations: a hit returns exactly the bytes stored for that
    digest, and anything else — missing file, wrong schema version,
    truncation, corruption — reads as a miss, never an error. *)

type t

val create : dir:string -> version:string -> t
(** Open (creating directories as needed) a store rooted at [dir].
    [version] is the results-schema version stamped into every entry;
    entries stamped with a different version read as misses, so stale
    formats self-invalidate. *)

val find : t -> digest:string -> string option
(** The payload stored for [digest], or [None] on a miss (including
    corrupt, truncated, or wrong-version entries). *)

val store : t -> digest:string -> string -> unit
(** Persist a payload for [digest] (atomic write-then-rename; existing
    entries are overwritten).  I/O failures are swallowed: the cache is
    an accelerator, never a correctness dependency. *)

val entry_path : t -> digest:string -> string
(** The on-disk path an entry for [digest] would use (exposed for
    tests and diagnostics). *)
