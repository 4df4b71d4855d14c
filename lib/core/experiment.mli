(** Content-addressed experiment runner.

    A run is identified by a {e digest}: a canonical serialization of
    its full input — the architecture descriptor, every field of the
    machine configuration and every field of the workload generator
    configuration — hashed with {!Dbm_util.Digest}.  Runs requested
    from different tables with content-identical inputs therefore share
    one digest and one simulation, whatever label the call sites used.

    Behind {!force} sits an in-process memo (digest -> result) shared by
    all domains, with an in-flight marker so concurrent requesters of
    the same digest wait instead of recomputing.  All runs are
    deterministic, so the memo is semantically transparent: its output
    is byte-identical to recomputation.  Nothing outlives the process:
    the digest covers a run's inputs, not the simulator's code. *)

(** {1 Requests} *)

type request
(** A schedulable unit of work: a digest plus the deterministic
    computation it addresses. *)

val request :
  arch:string ->
  machine:Dbm_machine.Config.t ->
  workload:Dbm_workload.Workload.config ->
  make_arch:(Dbm_machine.Arch.ctx -> Dbm_machine.Arch.t) ->
  request
(** [arch] must be a canonical architecture descriptor (e.g. from
    {!Dbm_recovery.Logging.descriptor}), i.e. determined by the
    architecture's configuration alone — never by the requesting table
    — and [make_arch] must be the architecture it describes.  [arch]
    is also the request's {!label}. *)

val scenario_request :
  arch:string ->
  ?scramble:int ->
  Scenario.t ->
  (Dbm_machine.Arch.ctx -> Dbm_machine.Arch.t) ->
  request
(** {!request} on one of the paper's four configurations, labelled
    ["<arch> @ <scenario>"]. *)

val bare_request : Scenario.t -> request
(** Baseline (no recovery architecture) run of a configuration. *)

val custom_request :
  tag:string -> machine:Dbm_machine.Config.t -> (unit -> Dbm_machine.Results.t) -> request
(** Escape hatch for runs whose workload is built by hand.  [tag] must
    uniquely determine the computation given the machine config: two
    custom requests with one tag and one machine share a result.  [tag]
    is also the request's {!label}. *)

val digest : request -> string
(** The request's content digest (32 hex characters). *)

val label : request -> string
(** Human-readable attribution (architecture, configuration) for
    profiles; never part of the digest. *)

val force : request -> Dbm_machine.Results.t
(** Resolve a request: memo hit, else compute (exactly once across all
    domains; concurrent requesters wait on the in-flight marker) and
    memoize. *)

val dedup : request list -> request list
(** Drop requests whose digest already appeared earlier in the list
    (stable; keeps first occurrences).  Schedule the deduplicated list
    and let {!force} fan the shared results back to every requester. *)

(** {1 Declared tables} *)

type cell
(** One cell of a declared table: a run, the figure read off its
    result, and the paper's value if the paper reports one. *)

val cell : ?paper:float -> (Dbm_machine.Results.t -> float) -> request -> cell
(** [cell ?paper measure run]. *)

type table = cell Report.table
(** A suite table (paper table, ablation or extension) as declared:
    each cell names the one run it reads, so the table is also its own
    run list. *)

val runs : table -> request list
(** The table's distinct runs, in row-major order of first use. *)

val render : table -> Report.cell Report.table
(** Force each cell's run, in row-major order, and read its figure. *)

val build_suite : ?pool:Dbm_util.Pool.t -> table list -> Report.cell Report.table list
(** [build_suite ?pool tables] renders every table, in order.  With
    [pool] (effective jobs > 1) it first forces the suite's work list,
    [dedup] of every table's {!runs}, one run at a time across the
    pool's domains, so rendering then reads memo hits only.  The result
    is byte-identical to the serial build whatever the pool size. *)

(** {1 Memo control} *)

val clear_cache : unit -> unit
(** Drop the in-process memo's finished results. *)

(** {1 Instrumentation} *)

val computed : unit -> int
(** Simulations {!force} actually executed since process start or the
    last {!reset_computed}; memo hits are not counted. *)

val reset_computed : unit -> unit

(** {1 Profile} *)

type observation = {
  obs_digest : string;
  obs_label : string;
  wall_ms : float;  (** observed wall time of the simulation *)
}

val profile : unit -> observation list
(** Every simulation actually executed since process start (or
    {!reset_profile}), in execution order.  Results served from the
    memo never appear: they ran no simulation. *)

val reset_profile : unit -> unit
