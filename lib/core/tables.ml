module Results = Dbm_machine.Results
module Logging = Dbm_recovery.Logging
module Shadow = Dbm_recovery.Shadow
module Diff_file = Dbm_recovery.Diff_file

let scenarios = Scenario.all

(* ---------------------------------------------------------------- *)
(* Content-addressed runs shared across tables                        *)
(* ---------------------------------------------------------------- *)

(* Each helper names the architecture by its canonical descriptor, so
   two tables (or an ablation, an extension or a shape check)
   requesting the same configuration on the same scenario share one
   digest — and one simulation — no matter where the request came
   from. *)

let bare_request = Experiment.bare_request

let logging1_request sc =
  Experiment.scenario_request ~arch:(Logging.descriptor Logging.default) sc
    (Logging.make Logging.default)

let shadow_pt_request ~n_pt ~buf sc =
  let cfg = Shadow.thru ~n_pt_processors:n_pt ~buffer_pages:buf in
  Experiment.scenario_request ~arch:(Shadow.descriptor cfg) sc (Shadow.make cfg)

let shadow_scrambled_request sc =
  let cfg = Shadow.thru ~n_pt_processors:1 ~buffer_pages:10 in
  Experiment.scenario_request ~arch:(Shadow.descriptor cfg) ~scramble:1009 sc (Shadow.make cfg)

let overwriting_request sc =
  let cfg = Shadow.overwrite_no_undo in
  Experiment.scenario_request ~arch:(Shadow.descriptor cfg) sc (Shadow.make cfg)

let diff_request ?(size = 0.10) ?(out = 0.10) ~strategy sc =
  let cfg =
    {
      Diff_file.default with
      Diff_file.size_fraction = size;
      output_fraction = out;
      strategy;
    }
  in
  Experiment.scenario_request ~arch:(Diff_file.descriptor cfg) sc (Diff_file.make cfg)

(* ---------------------------------------------------------------- *)

let cell = Experiment.cell

let exec (r : Results.t) = r.Results.exec_ms_per_page

let completion (r : Results.t) = r.Results.mean_completion_ms

let extra key (r : Results.t) = Option.value (Results.find_extra r key) ~default:0.0

let table1 =
  let rows =
    List.map2
      (fun sc ((pe_wo, pe_w), (pc_wo, pc_w)) ->
        let b = bare_request sc and l = logging1_request sc in
        {
          Report.row_label = Scenario.name sc;
          cells =
            [
              cell ~paper:pe_wo exec b;
              cell ~paper:pe_w exec l;
              cell ~paper:pc_wo completion b;
              cell ~paper:pc_w completion l;
            ];
        })
      scenarios
      (List.combine Paper.table1_exec Paper.table1_completion)
  in
  {
    Report.id = "Table 1";
    title = "Impact of Logging";
    columns =
      [ "exec/page w/o log"; "exec/page with log"; "completion w/o log"; "completion with log" ];
    rows;
    notes = [ "one log processor, logical logging, dedicated 1 MB/s interconnect" ];
  }

let table2 =
  let rows =
    List.map2
      (fun sc p ->
        {
          Report.row_label = Scenario.name sc;
          cells = [ cell ~paper:p (extra "log_disk_util") (logging1_request sc) ];
        })
      scenarios Paper.table2_log_util
  in
  {
    Report.id = "Table 2";
    title = "Log Characteristics (one log processor)";
    columns = [ "log disk utilization" ];
    rows;
    notes = [];
  }

(* Table 3: 75 QPs, 2 parallel-access data disks, 150 frames,
   sequential transactions, physical logging. *)
let table3_request ~n_log ~selection =
  let arch, make_arch =
    if n_log = 0 then ("bare", fun _ -> Dbm_machine.Arch.bare)
    else begin
      let cfg =
        { Logging.default with Logging.n_log_processors = n_log; selection; mode = Logging.Physical }
      in
      (Logging.descriptor cfg, Logging.make cfg)
    end
  in
  Experiment.request ~arch ~machine:Scenario.table3_machine
    ~workload:(Scenario.table3_workload ()) ~make_arch

let selections = [ Logging.Cyclic; Logging.Random; Logging.Qp_mod; Logging.Txn_mod ]

let table3 =
  let row ~metric ~label n_log papers =
    {
      Report.row_label = label;
      cells =
        List.map2
          (fun selection paper -> cell ~paper metric (table3_request ~n_log ~selection))
          selections papers;
    }
  in
  let make metric paper_rows suffix =
    List.map
      (fun (n, papers) ->
        let label =
          if n = 0 then "w/o logging" ^ suffix
          else Printf.sprintf "%d log disk%s%s" n (if n > 1 then "s" else "") suffix
        in
        row ~metric ~label n papers)
      paper_rows
  in
  {
    Report.id = "Table 3";
    title =
      "Parallel Logging and Log Processor Selection (75 QPs, 2 parallel-access disks, 150 \
       frames, physical logging)";
    columns = [ "cyclic"; "random"; "QpNo mod"; "TranNo mod" ];
    rows =
      make exec Paper.table3_exec " (exec/page)"
      @ make completion Paper.table3_completion " (completion)";
    notes = [];
  }

let table4 =
  let rows =
    List.map2
      (fun sc ((pe_b, pe_1, pe_2), (pc_b, pc_1, pc_2)) ->
        let b = bare_request sc in
        let s1 = shadow_pt_request ~n_pt:1 ~buf:10 sc in
        let s2 = shadow_pt_request ~n_pt:2 ~buf:10 sc in
        {
          Report.row_label = Scenario.name sc;
          cells =
            [
              cell ~paper:pe_b exec b;
              cell ~paper:pe_1 exec s1;
              cell ~paper:pe_2 exec s2;
              cell ~paper:pc_b completion b;
              cell ~paper:pc_1 completion s1;
              cell ~paper:pc_2 completion s2;
            ];
        })
      scenarios
      (List.combine Paper.table4_exec Paper.table4_completion)
  in
  {
    Report.id = "Table 4";
    title = "Impact of the Shadow Mechanism";
    columns =
      [
        "exec bare"; "exec 1 PT proc"; "exec 2 PT procs"; "compl bare"; "compl 1 PT";
        "compl 2 PT";
      ];
    rows;
    notes = [ "page-table buffer of 10 pages" ];
  }

let table5 =
  let data_util = Results.data_disk_utilization in
  let rows =
    List.map2
      (fun sc (p_bare, p1_pt, p1_data, p2_pt, p2_data) ->
        let s1 = shadow_pt_request ~n_pt:1 ~buf:10 sc in
        let s2 = shadow_pt_request ~n_pt:2 ~buf:10 sc in
        {
          Report.row_label = Scenario.name sc;
          cells =
            [
              cell ~paper:p_bare data_util (bare_request sc);
              cell ~paper:p1_pt (extra "pt_disk_util") s1;
              cell ~paper:p1_data data_util s1;
              cell ~paper:p2_pt (extra "pt_disk_util") s2;
              cell ~paper:p2_data data_util s2;
            ];
        })
      scenarios Paper.table5_util
  in
  {
    Report.id = "Table 5";
    title = "Average Utilization of Data and Page-Table Disks";
    columns = [ "bare: data"; "1 PT: pt disk"; "1 PT: data"; "2 PT: pt disk"; "2 PT: data" ];
    rows;
    notes = [];
  }

let table6 =
  let buffer_sizes = [ 10; 25; 50 ] in
  let rows =
    List.map2
      (fun sc (label, p_bare, papers) ->
        {
          Report.row_label = label;
          cells =
            cell ~paper:p_bare exec (bare_request sc)
            :: List.map2
                 (fun buf paper -> cell ~paper exec (shadow_pt_request ~n_pt:1 ~buf sc))
                 buffer_sizes papers;
        })
      [ Scenario.Conventional_random; Scenario.Parallel_random ]
      Paper.table6_exec
  in
  {
    Report.id = "Table 6";
    title = "Execution Time per Page vs Page-Table Buffer Size (random transactions, 1 PT \
             processor)";
    columns = [ "bare"; "buffer 10"; "buffer 25"; "buffer 50" ];
    rows;
    notes = [];
  }

let table7 =
  let rows =
    List.map2
      (fun sc (label, p_bare, p_clu, p_scr, p_ow) ->
        {
          Report.row_label = label;
          cells =
            [
              cell ~paper:p_bare exec (bare_request sc);
              cell ~paper:p_clu exec (shadow_pt_request ~n_pt:1 ~buf:10 sc);
              cell ~paper:p_scr exec (shadow_scrambled_request sc);
              cell ~paper:p_ow exec (overwriting_request sc);
            ];
        })
      [ Scenario.Conventional_sequential; Scenario.Parallel_sequential ]
      Paper.table7_exec
  in
  {
    Report.id = "Table 7";
    title = "Execution Time per Page (Sequential Transactions)";
    columns = [ "bare"; "clustered (thru PT)"; "scrambled (thru PT)"; "overwriting" ];
    rows;
    notes = [];
  }

let table8 =
  let rows =
    List.map2
      (fun sc (label, p_bare, p_pt, p_ow) ->
        {
          Report.row_label = label;
          cells =
            [
              cell ~paper:p_bare exec (bare_request sc);
              cell ~paper:p_pt exec (shadow_pt_request ~n_pt:1 ~buf:10 sc);
              cell ~paper:p_ow exec (overwriting_request sc);
            ];
        })
      [ Scenario.Conventional_random; Scenario.Parallel_random ]
      Paper.table8_exec
  in
  {
    Report.id = "Table 8";
    title = "Execution Time per Page (Random Transactions)";
    columns = [ "bare"; "thru page-table"; "overwriting" ];
    rows;
    notes = [];
  }

let table9 =
  let rows =
    List.map2
      (fun sc ((pe_b, pe_ba, pe_o), (pc_b, pc_ba, pc_o)) ->
        let b = bare_request sc in
        let ba = diff_request ~strategy:Diff_file.Basic sc in
        let o = diff_request ~strategy:Diff_file.Optimal sc in
        {
          Report.row_label = Scenario.name sc;
          cells =
            [
              cell ~paper:pe_b exec b;
              cell ~paper:pe_ba exec ba;
              cell ~paper:pe_o exec o;
              cell ~paper:pc_b completion b;
              cell ~paper:pc_ba completion ba;
              cell ~paper:pc_o completion o;
            ];
        })
      scenarios
      (List.combine Paper.table9_exec Paper.table9_completion)
  in
  {
    Report.id = "Table 9";
    title = "Impact of the Differential File Mechanism";
    columns =
      [ "exec bare"; "exec basic"; "exec optimal"; "compl bare"; "compl basic"; "compl optimal" ];
    rows;
    notes = [ "differential files sized at 10% of the base file" ];
  }

let table10 =
  let fractions = [ 0.10; 0.20; 0.50 ] in
  let rows =
    List.map2
      (fun sc (p_bare, papers) ->
        {
          Report.row_label = Scenario.name sc;
          cells =
            cell ~paper:p_bare exec (bare_request sc)
            :: List.map2
                 (fun out paper ->
                   cell ~paper exec (diff_request ~out ~strategy:Diff_file.Optimal sc))
                 fractions papers;
        })
      scenarios Paper.table10_exec
  in
  {
    Report.id = "Table 10";
    title = "Effect of Output Fraction on Execution Time per Page";
    columns = [ "bare"; "10%"; "20%"; "50%" ];
    rows;
    notes = [];
  }

let table11 =
  let sizes = [ 0.10; 0.15; 0.20 ] in
  let rows =
    List.map2
      (fun sc (p_bare, papers) ->
        {
          Report.row_label = Scenario.name sc;
          cells =
            cell ~paper:p_bare exec (bare_request sc)
            :: List.map2
                 (fun size paper ->
                   cell ~paper exec (diff_request ~size ~strategy:Diff_file.Optimal sc))
                 sizes papers;
        })
      scenarios Paper.table11_exec
  in
  {
    Report.id = "Table 11";
    title = "Effect of Size of Differential Files on Execution Time per Page";
    columns = [ "bare"; "10%"; "15%"; "20%" ];
    rows;
    notes = [];
  }

let table12 =
  let rows =
    List.map2
      (fun sc (label, papers) ->
        let runs =
          [
            bare_request sc;
            logging1_request sc;
            shadow_pt_request ~n_pt:1 ~buf:10 sc;
            shadow_pt_request ~n_pt:1 ~buf:50 sc;
            shadow_pt_request ~n_pt:2 ~buf:10 sc;
            shadow_scrambled_request sc;
            overwriting_request sc;
            diff_request ~strategy:Diff_file.Optimal sc;
          ]
        in
        {
          Report.row_label = label;
          cells = List.map2 (fun run paper -> cell ~paper exec run) runs papers;
        })
      scenarios Paper.table12_exec
  in
  {
    Report.id = "Table 12";
    title = "Average Execution Time per Page: All Recovery Architectures";
    columns =
      [
        "bare"; "logging (1 disk)"; "PT buf=10"; "PT buf=50"; "2 PT procs"; "scrambled";
        "overwriting"; "diff file";
      ];
    rows;
    notes = [];
  }

let declared =
  [
    table1; table2; table3; table4; table5; table6; table7; table8; table9; table10; table11;
    table12;
  ]

let all ?pool () = Experiment.build_suite ?pool declared

let by_id n =
  if n < 1 || n > 12 then invalid_arg (Printf.sprintf "Tables.by_id: no table %d (1-12)" n);
  Experiment.render (List.nth declared (n - 1))
