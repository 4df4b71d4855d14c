(** Page-level two-phase locking with deadlock detection.

    Non-blocking interface: {!acquire} either grants the lock, reports
    that the caller would block behind the current holders, or reports
    that waiting would close a cycle in the waits-for graph (deadlock).
    On [Would_block] the requester is recorded as waiting; the waits-for
    edges persist until the request is granted on a retry or the
    transaction releases its locks.  The caller (the back-end
    controller in the paper's design) chooses the victim and aborts
    it.

    The manager tracks whether the waits-for graph may hold a cycle.
    While it is known to hold none, a repeat block (a request already
    queued in the same mode) returns [Would_block] without searching
    the graph: its edges already exist, so they close no cycle.  Every
    outcome is the one a search on every call would give
    ({!Naive.Locks}).

    Page entries sit in an array sized at {!create} and stay in place
    while their page is free; each transaction's held and waited-on
    pages are short lists.  A grant allocates only the list cells that
    record it; a release returns the transaction's own held list, with
    any page it only waited on added.  A blocked acquire allocates only
    what it changes: a new waiter its queue append, a repeat block
    nothing.  The deadlock search walks the queues in place, marking
    each transaction it visits, and builds a cycle's path only once it
    finds one. *)

type t

type mode = S | X

type outcome =
  | Granted
  | Would_block
  | Deadlock of int list  (** the cycle of transaction ids, requester first *)

val create : pages:int -> t
(** A lock table for pages [0 .. pages - 1].  It does not grow: every
    call that names a page outside it raises [Invalid_argument].
    @raise Invalid_argument when [pages] is negative. *)

val acquire : t -> txn:int -> page:int -> mode:mode -> outcome
(** Re-acquiring a held lock is granted; an upgrade (S held, X
    requested) is granted when the requester is the only holder. *)

val acquire_wait_info : t -> txn:int -> page:int -> mode:mode -> outcome * bool
(** Like {!acquire}, but on [Would_block] additionally reports whether
    this call queued a new waiter while the waits-for graph may hold a
    cycle that no acquire has reported.  Not every cycle is reported by
    the acquire that closes it: an upgrade request checks cycles
    against the page's other holders only, so the cycle it closes
    through a waiter ahead of it surfaces on some {e other}
    transaction's re-acquire.  A scheduler that parks blocked scripts
    instead of polling must re-run the blocked acquires (the deadlock
    audit a poll performed implicitly) when this is [true].  It is
    [false] for a repeat block, and for a new waiter whose own search
    showed that the graph still holds no cycle: then no parked retry
    could find a deadlock. *)

val release_all : t -> txn:int -> unit
(** Release every lock held by [txn] and any pending requests. *)

val release_all_pages : t -> txn:int -> int list
(** Like {!release_all}, but returns the pages whose lock entries were
    touched — i.e. every page another transaction could now make
    progress on.  Lets a scheduler wake exactly the scripts parked on
    those pages instead of polling everyone.  Each page is named once,
    also one the transaction both holds and waits on (an upgrade). *)

val holds : t -> txn:int -> page:int -> mode option

val locked_pages : t -> int

val waiting : t -> txn:int -> bool
