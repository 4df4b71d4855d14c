(** Page-level lock table for the back-end controller's scheduler.

    The paper assumes "a scheduler, located in the back-end controller,
    which employs page-level locking" (Section 3).  Because a compiled
    transaction's page references are known when it reaches the
    controller, the machine uses static (pre-declared) locking: a
    transaction acquires its whole lock set atomically at admission and
    releases it at completion, which is deadlock-free by construction. *)

type t

type mode = Shared | Exclusive

val create : unit -> t

val clear : t -> unit
(** Drop every lock while keeping the grown hash-table storage, so a
    per-domain arena can recycle one lock table across runs.  After
    [clear] the table is observationally [create ()]. *)

val acquire_all : t -> owner:int -> locks:(int * mode) list -> bool
(** All-or-nothing: acquire every lock or none.  Returns whether the
    acquisition succeeded.  Requesting the same page twice upgrades to
    the stronger mode. *)

val release_all : t -> owner:int -> unit
(** Release every lock held by [owner]. *)

val holds : t -> owner:int -> page:int -> mode option

val locked_pages : t -> int
(** Number of pages with at least one lock. *)

