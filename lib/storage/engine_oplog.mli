(** Operation logging (Lomet's performance-competitive logical
    recovery, PAPERS.md): {!Engine_log} in its [Logical] format on a
    single log journal, under the engine name ["oplog"].

    Each update logs the operation it ran — [insert(k,v)] or
    [delete(k)] — and no page image, so its log is an order of
    magnitude smaller than the physical format's on the same workload;
    the bench meters the ratio.  No steal makes restart recovery
    REDO-only.  One journal holds every record of a transaction, so an
    eager commit or a prepare forces once. *)

include module type of struct
  include Engine_log
end
