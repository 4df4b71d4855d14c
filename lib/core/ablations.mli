(** Ablation experiments for the design choices called out in
    DESIGN.md.

    These go beyond the paper: each table switches off (or sweeps) one
    modelling decision to show how much of the reproduced behaviour it
    carries.  Cells have no paper counterpart, so the tables print
    measured values only. *)

val wal_rule : Experiment.table
(** The write-ahead rule on vs off under physical logging on the
    Table 3 machine: the WAL blocking of dirty frames is what collapses
    the cache when the log disk saturates. *)

val release_batching : Experiment.table
(** Batched vs per-update release of logged data pages (logical
    logging): the source of the same-cylinder write coalescing of
    Section 4.1.2. *)

val scratch_placement : Experiment.table
(** Overwriting with the scratch ring adjacent to the data zone vs at
    the far end of the disk: the arm-travel component of Table 7/8. *)

val diff_qualify : Experiment.table
(** Sensitivity of the optimal differential strategy to the
    qualification probability (how selective the short-circuit scan
    is). *)

val pt_buffer_sweep : Experiment.table
(** Fine-grained page-table buffer sweep (beyond Table 6's three
    points). *)

val mpl_sweep : Experiment.table
(** Multiprogramming-level sensitivity of the bare machine. *)

val read_batch_sweep : Experiment.table
(** Anticipatory-paging batch size vs parallel-access effectiveness. *)

val version_selection : Experiment.table
(** The version-selection shadow variant, actually simulated (the paper
    rejects it analytically in Section 4.2.5): every read transfers both
    adjacent copies. *)

val declared : Experiment.table list
(** A1-A8, in order.  Several of their runs are content-identical to
    table runs and collapse in the suite's work list. *)

val all : ?pool:Dbm_util.Pool.t -> unit -> Report.cell Report.table list
(** All ablations rendered: {!Experiment.build_suite} over {!declared}. *)
