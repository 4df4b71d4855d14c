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

val create_with : ?n_keys:int -> ?keys_per_page:int -> unit -> t
(** [create] is [create_with] with 4 keys per page: 1 KB pages, one log
    journal, [Logical] records. *)
