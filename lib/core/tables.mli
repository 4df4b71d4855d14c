(** Regeneration of the paper's twelve evaluation tables.

    Each function runs the required simulations (memoized across
    tables) and returns a {!Report.table} whose cells pair the measured
    value with the paper's reported value.  The paper's evaluation
    section contains tables only — no figures. *)

val table1 : unit -> Report.table
(** Impact of logging on execution time per page and transaction
    completion time (one log disk, logical logging). *)

val table2 : unit -> Report.table
(** Log-disk utilization with one log processor. *)

val table3 : unit -> Report.table
(** Parallel logging with physical logging on the 75-QP machine:
    1-5 log disks x four log-processor selection policies. *)

val table4 : unit -> Report.table
(** Impact of the shadow (thru page-table) mechanism, 1 vs 2 page-table
    processors. *)

val table5 : unit -> Report.table
(** Average utilization of the data and page-table disks. *)

val table6 : unit -> Report.table
(** Execution time per page vs page-table buffer size (random
    transactions, 1 page-table processor). *)

val table7 : unit -> Report.table
(** Sequential transactions: clustered vs scrambled placement vs the
    overwriting architecture. *)

val table8 : unit -> Report.table
(** Random transactions: thru page-table vs overwriting. *)

val table9 : unit -> Report.table
(** Impact of the differential-file mechanism, basic vs optimal query
    processing. *)

val table10 : unit -> Report.table
(** Effect of the output fraction on execution time per page. *)

val table11 : unit -> Report.table
(** Effect of the size of the differential files. *)

val table12 : unit -> Report.table
(** Grand comparison of all recovery architectures. *)

val runs : unit -> Experiment.request list
(** The flattened run-level work list: one request per simulation the
    twelve tables need.  Dedup by digest, force them — in any order, on
    any number of domains — and table assembly afterwards is pure cache
    hits. *)

val all : ?pool:Dbm_util.Pool.t -> unit -> Report.table list
(** All twelve, in order: {!Experiment.build_suite} over {!runs}, so
    the result is byte-identical to the serial run regardless of pool
    size or cache state. *)

val by_id : int -> Report.table
(** @raise Invalid_argument unless [1 <= id <= 12]. *)
