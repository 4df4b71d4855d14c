module Config = Dbm_machine.Config
module Results = Dbm_machine.Results
module Logging = Dbm_recovery.Logging
module Shadow = Dbm_recovery.Shadow
module Diff_file = Dbm_recovery.Diff_file

let cell = Experiment.cell

let exec (r : Results.t) = r.Results.exec_ms_per_page

let completion (r : Results.t) = r.Results.mean_completion_ms

let extra key (r : Results.t) = Option.value (Results.find_extra r key) ~default:0.0

let data_disk_accesses (r : Results.t) = float_of_int r.Results.data_disk_accesses

(* Architecture descriptors make runs shared with the tables collapse
   in the suite's work list: e.g. A2's coalesce=true runs are the same
   simulations as the Table 1 logging runs.  A5 and A8 read the tables'
   own shadow and bare requests. *)

let wal_rule =
  let run enforce =
    let cfg = { Logging.default with Logging.mode = Logging.Physical; enforce_wal = enforce } in
    Experiment.request ~arch:(Logging.descriptor cfg) ~machine:Scenario.table3_machine
      ~workload:(Scenario.table3_workload ()) ~make_arch:(Logging.make cfg)
  in
  let row label req =
    {
      Report.row_label = label;
      cells =
        [
          cell exec req;
          cell completion req;
          cell (fun r -> r.Results.mean_frames_blocked_on_log) req;
          cell (extra "log_disk_util") req;
        ];
    }
  in
  {
    Report.id = "Ablation A1";
    title = "Write-ahead rule on vs off (physical logging, 1 log disk, Table 3 machine)";
    columns =
      [ "exec/page (ms)"; "mean completion (ms)"; "frames blocked on log"; "log disk util" ];
    rows = [ row "WAL enforced" (run true); row "WAL disabled (unsafe)" (run false) ];
    notes =
      [
        "with one saturated log disk the throughput limit is the log disk either way; what the WAL rule adds is the cache back-pressure (the blocked frames) and the wait for the log inside each transaction's completion time";
      ];
  }

let release_batching =
  let run sc ~coalesce =
    let machine = { (Scenario.machine_config sc) with Config.drive_coalesce = coalesce } in
    Experiment.request ~arch:(Logging.descriptor Logging.default) ~machine
      ~workload:(Scenario.workload_config sc) ~make_arch:(Logging.make Logging.default)
  in
  let rows =
    List.map
      (fun sc ->
        let b = run sc ~coalesce:true and u = run sc ~coalesce:false in
        {
          Report.row_label = Scenario.name sc;
          cells =
            [
              cell exec b;
              cell exec u;
              cell data_disk_accesses b;
              cell data_disk_accesses u;
            ];
        })
      [ Scenario.Parallel_random; Scenario.Parallel_sequential ]
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

let scratch_placement =
  let run sc placement =
    let machine = { (Scenario.machine_config sc) with Config.scratch_placement = placement } in
    Experiment.request
      ~arch:(Shadow.descriptor Shadow.overwrite_no_undo)
      ~machine
      ~workload:(Scenario.workload_config sc)
      ~make_arch:(Shadow.make Shadow.overwrite_no_undo)
  in
  let rows =
    List.map
      (fun sc ->
        {
          Report.row_label = Scenario.name sc;
          cells = [ cell exec (run sc Config.Adjacent); cell exec (run sc Config.Far_end) ];
        })
      [ Scenario.Conventional_random; Scenario.Conventional_sequential ]
  in
  {
    Report.id = "Ablation A3";
    title = "Overwriting architecture: scratch ring adjacent to the data vs at the far end";
    columns = [ "scratch adjacent"; "scratch far end" ];
    rows;
    notes =
      [ "the data<->scratch arm travel is a large share of overwriting's penalty (4.2.4)" ];
  }

let diff_qualify =
  let probs = [ 0.15; 0.3; 0.6 ] in
  let run sc p =
    let cfg = { Diff_file.default with Diff_file.qualify_prob = p } in
    Experiment.scenario_request ~arch:(Diff_file.descriptor cfg) sc (Diff_file.make cfg)
  in
  let rows =
    List.map
      (fun sc ->
        {
          Report.row_label = Scenario.name sc;
          cells = List.map (fun p -> cell exec (run sc p)) probs;
        })
      [ Scenario.Conventional_random; Scenario.Parallel_sequential ]
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

let pt_buffer_sweep =
  let rows =
    List.map
      (fun buf ->
        let r = Tables.shadow_pt_request ~n_pt:1 ~buf Scenario.Conventional_random in
        {
          Report.row_label = Printf.sprintf "buffer %3d" buf;
          cells =
            [
              cell exec r;
              cell (extra "pt_buffer_hit_rate") r;
              cell (extra "pt_disk_util") r;
              cell (extra "pt_commit_rereads") r;
            ];
        })
      [ 1; 2; 5; 10; 25; 50; 100 ]
  in
  {
    Report.id = "Ablation A5";
    title = "Page-table buffer sweep (Conventional-Random, 1 PT processor)";
    columns = [ "exec/page"; "hit rate"; "pt disk util"; "commit rereads" ];
    rows;
    notes = [];
  }

let mpl_sweep =
  let rows =
    List.map
      (fun mpl ->
        let machine = { (Scenario.machine_config Scenario.Conventional_random) with Config.mpl } in
        let r =
          Experiment.request ~arch:"bare" ~machine
            ~workload:(Scenario.workload_config Scenario.Conventional_random)
            ~make_arch:(fun _ -> Dbm_machine.Arch.bare)
        in
        {
          Report.row_label = Printf.sprintf "MPL %d" mpl;
          cells = [ cell exec r; cell completion r; cell Results.data_disk_utilization r ];
        })
      [ 1; 2; 3; 4; 6; 8 ]
  in
  {
    Report.id = "Ablation A6";
    title = "Multiprogramming level (bare machine, Conventional-Random)";
    columns = [ "exec/page"; "mean completion"; "data disk util" ];
    rows;
    notes =
      [ "throughput saturates once the disks do; completion time keeps growing with MPL" ];
  }

let read_batch_sweep =
  let run read_batch =
    (* queue coalescing is disabled here: with it on, the drive
       re-merges small adjacent requests and the batch size barely
       matters -- itself a finding (see A2) *)
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
  in
  let rows =
    List.map
      (fun read_batch ->
        let r = run read_batch in
        {
          Report.row_label = Printf.sprintf "batch %2d" read_batch;
          cells = [ cell exec r; cell data_disk_accesses r ];
        })
      [ 2; 4; 8; 16; 32 ]
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
let version_selection =
  let rows =
    List.map
      (fun sc ->
        let vs =
          Experiment.scenario_request ~arch:"version-select" sc
            Dbm_recovery.Version_select.make_sim
        in
        {
          Report.row_label = Scenario.name sc;
          cells =
            [
              cell exec (Tables.bare_request sc);
              cell exec vs;
              cell exec (Tables.shadow_pt_request ~n_pt:2 ~buf:10 sc);
            ];
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

let declared =
  [
    wal_rule; release_batching; scratch_placement; diff_qualify; pt_buffer_sweep; mpl_sweep;
    read_batch_sweep; version_selection;
  ]

let all ?pool () = Experiment.build_suite ?pool declared
