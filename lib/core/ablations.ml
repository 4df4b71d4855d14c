module Config = Dbm_machine.Config
module Results = Dbm_machine.Results
module Logging = Dbm_recovery.Logging
module Shadow = Dbm_recovery.Shadow
module Diff_file = Dbm_recovery.Diff_file

let cell = Report.cell

let exec (r : Results.t) = r.Results.exec_ms_per_page

let extra key (r : Results.t) = Option.value (Results.find_extra r key) ~default:0.0

(* Every run helper below builds a content-addressed request; the
   ablation tables force them, and [runs] hands the same requests to
   the pool.  Architecture descriptors make the sharing explicit:
   e.g. A2's coalesce=true runs are the same simulations as the
   Table 1 logging runs, and dedup collapses them. *)

let a1_request ~enforce =
  let cfg = { Logging.default with Logging.mode = Logging.Physical; enforce_wal = enforce } in
  Experiment.request ~arch:(Logging.descriptor cfg) ~machine:Scenario.table3_machine
    ~workload:(Scenario.table3_workload ()) ~make_arch:(Logging.make cfg)

let a1_run ~enforce = Experiment.force (a1_request ~enforce)

let wal_rule () =
  let on = a1_run ~enforce:true and off = a1_run ~enforce:false in
  {
    Report.id = "Ablation A1";
    title = "Write-ahead rule on vs off (physical logging, 1 log disk, Table 3 machine)";
    columns =
      [ "exec/page (ms)"; "mean completion (ms)"; "frames blocked on log"; "log disk util" ];
    rows =
      [
        {
          Report.row_label = "WAL enforced";
          cells =
            [
              cell (exec on);
              cell on.Results.mean_completion_ms;
              cell on.Results.mean_frames_blocked_on_log;
              cell (extra "log_disk_util" on);
            ];
        };
        {
          Report.row_label = "WAL disabled (unsafe)";
          cells =
            [
              cell (exec off);
              cell off.Results.mean_completion_ms;
              cell off.Results.mean_frames_blocked_on_log;
              cell (extra "log_disk_util" off);
            ];
        };
      ];
    notes =
      [
        "with one saturated log disk the throughput limit is the log disk either way; what the WAL rule adds is the cache back-pressure (the blocked frames) and the wait for the log inside each transaction's completion time";
      ];
  }

let a2_scenarios = [ Scenario.Parallel_random; Scenario.Parallel_sequential ]

let a2_request sc ~coalesce =
  let machine = { (Scenario.machine_config sc) with Config.drive_coalesce = coalesce } in
  Experiment.request ~arch:(Logging.descriptor Logging.default) ~machine
    ~workload:(Scenario.workload_config sc) ~make_arch:(Logging.make Logging.default)

let a2_run sc ~coalesce = Experiment.force (a2_request sc ~coalesce)

let release_batching () =
  let scenarios = a2_scenarios in
  let run = a2_run in
  let rows =
    List.map
      (fun sc ->
        let b = run sc ~coalesce:true and u = run sc ~coalesce:false in
        {
          Report.row_label = Scenario.name sc;
          cells =
            [
              cell (exec b);
              cell (exec u);
              cell (float_of_int b.Results.data_disk_accesses);
              cell (float_of_int u.Results.data_disk_accesses);
            ];
        })
      scenarios
  in
  {
    Report.id = "Ablation A2";
    title = "Parallel-access queue coalescing on vs off (logical logging)";
    columns =
      [ "exec coalescing"; "exec without"; "disk accesses with"; "disk accesses without" ];
    rows;
    notes =
      [
        "absorbing queued same-cylinder requests into one access is how a whole log page's worth of simultaneously-released write-backs reaches disk in one I/O (Section 4.1.2)";
      ];
  }

let a3_scenarios = [ Scenario.Conventional_random; Scenario.Conventional_sequential ]

let a3_request sc placement =
  let machine = { (Scenario.machine_config sc) with Config.scratch_placement = placement } in
  Experiment.request
    ~arch:(Shadow.descriptor Shadow.overwrite_no_undo)
    ~machine
    ~workload:(Scenario.workload_config sc)
    ~make_arch:(Shadow.make Shadow.overwrite_no_undo)

let a3_run sc placement = Experiment.force (a3_request sc placement)

let scratch_placement () =
  let scenarios = a3_scenarios in
  let run = a3_run in
  let rows =
    List.map
      (fun sc ->
        {
          Report.row_label = Scenario.name sc;
          cells =
            [ cell (exec (run sc Config.Adjacent)); cell (exec (run sc Config.Far_end)) ];
        })
      scenarios
  in
  {
    Report.id = "Ablation A3";
    title = "Overwriting architecture: scratch ring adjacent to the data vs at the far end";
    columns = [ "scratch adjacent"; "scratch far end" ];
    rows;
    notes =
      [ "the data<->scratch arm travel is a large share of overwriting's penalty (4.2.4)" ];
  }

let a4_probs = [ 0.15; 0.3; 0.6 ]

let a4_scenarios = [ Scenario.Conventional_random; Scenario.Parallel_sequential ]

let a4_request sc p =
  let cfg = { Diff_file.default with Diff_file.qualify_prob = p } in
  Experiment.scenario_request ~arch:(Diff_file.descriptor cfg) sc (Diff_file.make cfg)

let a4_run sc p = Experiment.force (a4_request sc p)

let diff_qualify () =
  let probs = a4_probs in
  let rows =
    List.map
      (fun sc ->
        {
          Report.row_label = Scenario.name sc;
          cells =
            List.map (fun p -> cell (exec (a4_run sc p))) probs;
        })
      a4_scenarios
  in
  {
    Report.id = "Ablation A4";
    title = "Differential files: sensitivity to the qualification probability";
    columns = List.map (fun p -> Printf.sprintf "q = %.2f" p) probs;
    rows;
    notes =
      [
        "the optimal strategy's benefit is exactly the fraction of pages the initial \
         scan short-circuits";
      ];
  }

let a5_sizes = [ 1; 2; 5; 10; 25; 50; 100 ]

let a5_request buf =
  let cfg = Shadow.thru ~n_pt_processors:1 ~buffer_pages:buf in
  Experiment.scenario_request ~arch:(Shadow.descriptor cfg) Scenario.Conventional_random
    (Shadow.make cfg)

let a5_run buf = Experiment.force (a5_request buf)

let pt_buffer_sweep () =
  let sizes = a5_sizes in
  let rows =
    List.map
      (fun buf ->
        let r = a5_run buf in
        {
          Report.row_label = Printf.sprintf "buffer %3d" buf;
          cells =
            [
              cell (exec r);
              cell (extra "pt_buffer_hit_rate" r);
              cell (extra "pt_disk_util" r);
              cell (extra "pt_commit_rereads" r);
            ];
        })
      sizes
  in
  {
    Report.id = "Ablation A5";
    title = "Page-table buffer sweep (Conventional-Random, 1 PT processor)";
    columns = [ "exec/page"; "hit rate"; "pt disk util"; "commit rereads" ];
    rows;
    notes = [];
  }

let a6_levels = [ 1; 2; 3; 4; 6; 8 ]

let a6_request mpl =
  let machine = { (Scenario.machine_config Scenario.Conventional_random) with Config.mpl } in
  Experiment.request ~arch:"bare" ~machine
    ~workload:(Scenario.workload_config Scenario.Conventional_random)
    ~make_arch:(fun _ -> Dbm_machine.Arch.bare)

let a6_run mpl = Experiment.force (a6_request mpl)

let mpl_sweep () =
  let levels = a6_levels in
  let rows =
    List.map
      (fun mpl ->
        let r = a6_run mpl in
        {
          Report.row_label = Printf.sprintf "MPL %d" mpl;
          cells =
            [
              cell (exec r);
              cell r.Results.mean_completion_ms;
              cell (Results.data_disk_utilization r);
            ];
        })
      levels
  in
  {
    Report.id = "Ablation A6";
    title = "Multiprogramming level (bare machine, Conventional-Random)";
    columns = [ "exec/page"; "mean completion"; "data disk util" ];
    rows;
    notes =
      [ "throughput saturates once the disks do; completion time keeps growing with MPL" ];
  }

let a7_batches = [ 2; 4; 8; 16; 32 ]

let a7_request read_batch =
  (* queue coalescing is disabled here: with it on, the drive re-merges
     small adjacent requests and the batch size barely matters -- itself
     a finding (see A2) *)
  let machine =
    { (Scenario.machine_config Scenario.Parallel_sequential) with
      Config.read_batch;
      drive_coalesce = false }
  in
  let workload =
    (* read-only so the read-batch effect is not drowned by the
       (uncoalesced) single-page write-backs *)
    {
      (Scenario.workload_config Scenario.Parallel_sequential) with
      Dbm_workload.Workload.write_fraction = 0.0;
    }
  in
  Experiment.request ~arch:"bare" ~machine ~workload ~make_arch:(fun _ -> Dbm_machine.Arch.bare)

let a7_run read_batch = Experiment.force (a7_request read_batch)

let read_batch_sweep () =
  let batches = a7_batches in
  let rows =
    List.map
      (fun read_batch ->
        let r = a7_run read_batch in
        {
          Report.row_label = Printf.sprintf "batch %2d" read_batch;
          cells = [ cell (exec r); cell (float_of_int r.Results.data_disk_accesses) ];
        })
      batches
  in
  {
    Report.id = "Ablation A7";
    title =
      "Anticipatory-paging batch size (bare machine, Parallel-Sequential, read-only, queue \
       coalescing off)";
    columns = [ "exec/page"; "data disk accesses" ];
    rows;
    notes =
      [
        "bigger read batches let one parallel access deliver more of a cylinder; with \
         queue coalescing enabled (the default) the drive re-merges small requests and \
         the batch size barely matters";
      ];
  }

(* The paper rejects version selection analytically (4.2.5); measuring
   it confirms the argument and quantifies the margin. *)
let a8_versel_request sc =
  Experiment.scenario_request ~arch:"version-select" sc Dbm_recovery.Version_select.make_sim

let a8_versel sc = Experiment.force (a8_versel_request sc)

let a8_shadow_request sc =
  let cfg = Shadow.thru ~n_pt_processors:2 ~buffer_pages:10 in
  Experiment.scenario_request ~arch:(Shadow.descriptor cfg) sc (Shadow.make cfg)

let a8_shadow sc = Experiment.force (a8_shadow_request sc)

let version_selection () =
  let rows =
    List.map
      (fun sc ->
        let vs = a8_versel sc in
        let pt = a8_shadow sc in
        let bare = Experiment.bare sc in
        {
          Report.row_label = Scenario.name sc;
          cells = [ cell (exec bare); cell (exec vs); cell (exec pt) ];
        })
      Scenario.all
  in
  {
    Report.id = "Ablation A8";
    title = "Version selection, simulated (vs the overlappable thru-page-table shadow)";
    columns = [ "bare"; "version selection"; "thru-PT (2 procs)" ];
    rows;
    notes =
      [
        "every read transfers the second copy on an I/O-bound machine, and the cost \
         cannot be overlapped the way page-table lookups can: the paper's Section 4.2.5 \
         rejection, now measured (plus the 2x disk space it would cost)";
      ];
  }

let builders =
  [
    wal_rule; release_batching; scratch_placement; diff_qualify; pt_buffer_sweep; mpl_sweep;
    read_batch_sweep; version_selection;
  ]

(* Flattened run-level work list (see Tables.runs): one request per
   simulation, so the pool schedules individual runs, not whole
   ablations.  Several entries are content-identical to table runs
   (e.g. A2 coalesce=true = Table 1 logging, A5 buffer 10 = Table 4's
   1-PT shadow, A6 mpl 3 = the bare baseline) — digest dedup collapses
   them instead of relying on matching string keys. *)
let runs () : Experiment.request list =
  List.concat
    [
      List.map (fun enforce -> a1_request ~enforce) [ true; false ];
      List.concat_map
        (fun sc -> List.map (fun coalesce -> a2_request sc ~coalesce) [ true; false ])
        a2_scenarios;
      List.concat_map
        (fun sc -> List.map (fun p -> a3_request sc p) [ Config.Adjacent; Config.Far_end ])
        a3_scenarios;
      List.concat_map (fun sc -> List.map (fun p -> a4_request sc p) a4_probs) a4_scenarios;
      List.map (fun buf -> a5_request buf) a5_sizes;
      List.map (fun mpl -> a6_request mpl) a6_levels;
      List.map (fun b -> a7_request b) a7_batches;
      List.concat_map
        (fun sc -> [ a8_versel_request sc; a8_shadow_request sc; Experiment.bare_request sc ])
        Scenario.all;
    ]

let all ?pool () = Experiment.build_suite ?pool ~runs builders
