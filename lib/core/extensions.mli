(** Extension experiments beyond the paper's evaluation.

    The paper's workloads reference pages uniformly, so its page-level
    locking scheduler never becomes visible in the numbers.  These
    experiments add the missing dimensions. *)

val hotspot_contention : Experiment.table
(** Skewed reference strings (a small hot region drawing most
    accesses): exclusive locks on hot pages serialize admissions, the
    effective multiprogramming level collapses, and throughput follows
    — for both the bare machine and the best recovery architecture
    (logging). *)

val mixed_size_fairness : Experiment.table
(** Small transactions mixed with very large ones: completion time of
    each class under the static-locking admission policy. *)

val open_system_load : Experiment.table
(** Poisson arrivals instead of the paper's closed batch: mean and max
    response time as the offered load approaches the machine's
    capacity. *)

val declared : Experiment.table list
(** E1-E3, in order.  E1's uniform rows are content-identical to
    Table 1's runs and collapse in the suite's work list. *)

val all : ?pool:Dbm_util.Pool.t -> unit -> Report.cell Report.table list
(** All extensions rendered: {!Experiment.build_suite} over {!declared}. *)
