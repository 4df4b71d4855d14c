(** Regeneration of the paper's twelve evaluation tables.

    Each table is declared once, as rows of cells that each name one
    run, the figure read off its result and the paper's reported value;
    {!Experiment.render} forces the runs (memoized across tables) and
    prints [measured \[paper\]] side by side.  The paper's evaluation
    section contains tables only — no figures. *)

(** {1 Runs}

    The tables' content-addressed runs, shared with the ablations,
    extensions and shape checks that read the same configurations. *)

val bare_request : Scenario.t -> Experiment.request

val logging1_request : Scenario.t -> Experiment.request
(** Logical logging on one log processor. *)

val shadow_pt_request : n_pt:int -> buf:int -> Scenario.t -> Experiment.request
(** Thru page-table shadow with [n_pt] page-table processors and a
    [buf]-page page-table buffer. *)

val shadow_scrambled_request : Scenario.t -> Experiment.request
(** The 1-processor, 10-page shadow on scrambled placement (Table 7). *)

val overwriting_request : Scenario.t -> Experiment.request

val diff_request :
  ?size:float ->
  ?out:float ->
  strategy:Dbm_recovery.Diff_file.strategy ->
  Scenario.t ->
  Experiment.request
(** Differential files at [size] of the base file with output fraction
    [out] (both default 0.10). *)

val table3_request : n_log:int -> selection:Dbm_recovery.Logging.selection -> Experiment.request
(** Physical logging on [n_log] log disks on the Table 3 machine; the
    bare machine when [n_log = 0]. *)

(** {1 Tables} *)

val table1 : Experiment.table
(** Impact of logging on execution time per page and transaction
    completion time (one log disk, logical logging). *)

val table2 : Experiment.table
(** Log-disk utilization with one log processor. *)

val table3 : Experiment.table
(** Parallel logging with physical logging on the 75-QP machine:
    1-5 log disks x four log-processor selection policies. *)

val table4 : Experiment.table
(** Impact of the shadow (thru page-table) mechanism, 1 vs 2 page-table
    processors. *)

val table5 : Experiment.table
(** Average utilization of the data and page-table disks. *)

val table6 : Experiment.table
(** Execution time per page vs page-table buffer size (random
    transactions, 1 page-table processor). *)

val table7 : Experiment.table
(** Sequential transactions: clustered vs scrambled placement vs the
    overwriting architecture. *)

val table8 : Experiment.table
(** Random transactions: thru page-table vs overwriting. *)

val table9 : Experiment.table
(** Impact of the differential-file mechanism, basic vs optimal query
    processing. *)

val table10 : Experiment.table
(** Effect of the output fraction on execution time per page. *)

val table11 : Experiment.table
(** Effect of the size of the differential files. *)

val table12 : Experiment.table
(** Grand comparison of all recovery architectures. *)

val declared : Experiment.table list
(** Tables 1-12, in order. *)

val all : ?pool:Dbm_util.Pool.t -> unit -> Report.cell Report.table list
(** All twelve rendered: {!Experiment.build_suite} over {!declared}, so
    the result is byte-identical to the serial run regardless of pool
    size or cache state. *)

val by_id : int -> Report.cell Report.table
(** @raise Invalid_argument unless [1 <= id <= 12]. *)
