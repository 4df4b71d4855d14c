(** The shadow page-table recovery engine (Section 3.2, functional).

    Data pages are reached through a page table; an update writes the
    new page image to a {e fresh} block, leaving the shadow in place,
    and records the new address in a transaction-local intention list.
    Commit writes the updated page table to the inactive table area,
    syncs it, and then atomically flips the master pointer — no undo
    and no redo are ever needed: after a crash the master pointer still
    names a consistent table, so uncommitted updates simply become
    unreferenced blocks that recovery returns to the free list.

    This is the mechanism whose machine-level cost (the page-table
    indirection) Section 4.2 quantifies.

    Satisfies {!Kv.S}; extras below. *)

include Kv.S

val create_with : ?n_keys:int -> ?spare_factor:int -> unit -> t
(** [spare_factor] controls how many spare data blocks exist per
    logical page (default 2: enough for every page to be shadowed
    concurrently). *)

val table_flips : t -> int
(** Number of master-pointer flips (committed transactions). *)

val free_blocks : t -> int

val current_block : t -> page:int -> int
(** Physical block currently holding a logical page (for tests: blocks
    move on every update). *)
