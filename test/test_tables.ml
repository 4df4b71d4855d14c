(* Sanity tests for the table-regeneration layer: structure of every
   table, the report renderer, and the qualitative findings the paper's
   conclusions rest on (run at reduced scale to stay fast; the full
   reproduction is `dune exec bench/main.exe`). *)

module Report = Dbm_core.Report
module Scenario = Dbm_core.Scenario
module Experiment = Dbm_core.Experiment
module Results = Dbm_machine.Results
module Logging = Dbm_recovery.Logging
module Shadow = Dbm_recovery.Shadow

let check = Alcotest.check

(* --- Report ----------------------------------------------------------- *)

let sample_table =
  {
    Report.id = "Table T";
    title = "sample";
    columns = [ "a"; "b" ];
    rows =
      [
        { Report.row_label = "r1"; cells = [ Report.cell ~paper:2.0 2.0; Report.cell 5.0 ] };
        { Report.row_label = "r2"; cells = [ Report.cell ~paper:1.0 2.0; Report.cell 7.0 ] };
      ];
    notes = [ "a note" ];
  }

let test_report_render () =
  let s = Report.to_string sample_table in
  check Alcotest.bool "has id" true (String.length s > 0 && String.sub s 0 3 = "===");
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "shows paper value" true (contains "[2.00]" s);
  check Alcotest.bool "shows note" true (contains "a note" s)

let test_report_csv () =
  let csv = Report.to_csv sample_table in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check Alcotest.int "header + 4 cells" 5 (List.length lines);
  check Alcotest.string "header" "row,column,measured,paper" (List.hd lines)

let test_shape_score () =
  (* cells: exact match (log ratio 0) and a 2x miss (log 2); cells
     without paper values are ignored *)
  check (Alcotest.float 1e-6) "mean |log ratio|" (log 2.0 /. 2.0)
    (Report.mean_abs_log_ratio sample_table)

let test_shape_score_empty () =
  let t = { sample_table with Report.rows = [] } in
  check (Alcotest.float 1e-9) "empty table scores 0" 0.0 (Report.mean_abs_log_ratio t)

(* --- small-scale qualitative findings ---------------------------------- *)

(* Reduced-size runs of the pivotal comparisons.  These deliberately use
   a private (non-memoized-key) workload so they stay fast. *)

let small_run ?scramble ?(seed = 42) scenario make_arch =
  let machine =
    match scramble with
    | None -> Scenario.machine_config scenario
    | Some s -> Scenario.machine_config ~scramble:s scenario
  in
  let workload =
    {
      (Scenario.workload_config ~seed scenario) with
      Dbm_workload.Workload.n_transactions = 10;
    }
  in
  let txns = Dbm_workload.Workload.generate workload in
  Dbm_machine.Machine.run ~config:machine ~make_arch ~workload:txns

let exec (r : Results.t) = r.Results.exec_ms_per_page

let test_logging_is_cheap () =
  let bare = small_run Scenario.Conventional_random (fun _ -> Dbm_machine.Arch.bare) in
  let log = small_run Scenario.Conventional_random (Logging.make Logging.default) in
  (* the paper's headline: logging barely affects throughput *)
  check Alcotest.bool "within 10%" true (exec log < 1.10 *. exec bare)

let test_scrambled_ruins_parallel_sequential () =
  let clustered =
    small_run Scenario.Parallel_sequential (Shadow.make Shadow.default_thru)
  in
  let scrambled =
    small_run ~scramble:3 Scenario.Parallel_sequential (Shadow.make Shadow.default_thru)
  in
  (* Table 7's largest effect: 1.94 -> 18.54 in the paper *)
  check Alcotest.bool "at least 4x worse" true (exec scrambled > 4.0 *. exec clustered)

let test_overwriting_ok_on_parallel_sequential () =
  let bare = small_run Scenario.Parallel_sequential (fun _ -> Dbm_machine.Arch.bare) in
  let ow = small_run Scenario.Parallel_sequential (Shadow.make Shadow.overwrite_no_undo) in
  check Alcotest.bool "within 2x of bare" true (exec ow < 2.0 *. exec bare)

let test_overwriting_bad_on_conventional () =
  let bare = small_run Scenario.Conventional_random (fun _ -> Dbm_machine.Arch.bare) in
  let ow = small_run Scenario.Conventional_random (Shadow.make Shadow.overwrite_no_undo) in
  check Alcotest.bool "clearly worse than bare" true (exec ow > 1.2 *. exec bare)

let test_findings_robust_to_seed () =
  (* the pivotal orderings are not artifacts of the default seed *)
  List.iter
    (fun seed ->
      let bare = small_run ~seed Scenario.Conventional_random (fun _ -> Dbm_machine.Arch.bare) in
      let log = small_run ~seed Scenario.Conventional_random (Logging.make Logging.default) in
      check Alcotest.bool
        (Printf.sprintf "seed %d: logging cheap" seed)
        true
        (exec log < 1.10 *. exec bare);
      let clu = small_run ~seed Scenario.Parallel_sequential (Shadow.make Shadow.default_thru) in
      let scr =
        small_run ~seed ~scramble:3 Scenario.Parallel_sequential (Shadow.make Shadow.default_thru)
      in
      check Alcotest.bool
        (Printf.sprintf "seed %d: scrambling ruinous" seed)
        true
        (exec scr > 4.0 *. exec clu))
    [ 7; 99; 1234 ]

(* --- table structure (uses the real memoized tables; heavier) ---------- *)

let table_structure () =
  List.iteri
    (fun i t ->
      let id = i + 1 in
      check Alcotest.string "table id" (Printf.sprintf "Table %d" id) t.Report.id;
      check Alcotest.bool "has rows" true (t.Report.rows <> []);
      check Alcotest.bool "has columns" true (t.Report.columns <> []);
      List.iter
        (fun r ->
          check Alcotest.int
            (Printf.sprintf "row %s width" r.Report.row_label)
            (List.length t.Report.columns) (List.length r.Report.cells);
          List.iter
            (fun (c : Report.cell) ->
              if not (Float.is_finite c.Report.measured) then
                Alcotest.failf "non-finite cell in %s" t.Report.id)
            r.Report.cells)
        t.Report.rows)
    (Dbm_core.Tables.all ())

let table_shape_scores () =
  (* every reproduced table should be within ~2x of the paper on
     average; most are far closer *)
  List.iter
    (fun t ->
      let score = Report.mean_abs_log_ratio t in
      if score > 0.7 then
        Alcotest.failf "%s diverges from the paper: score %.3f" t.Report.id score)
    (Dbm_core.Tables.all ())

let shape_checks_pass () =
  match Dbm_core.Shape_checks.failures () with
  | [] -> ()
  | fs ->
    Alcotest.failf "paper conclusions violated: %s"
      (String.concat "; " (List.map (fun c -> c.Dbm_core.Shape_checks.claim) fs))

let parallel_determinism () =
  (* the suites are independent seeded simulations: for a fixed seed
     the rendered output must not depend on the pool size.
     Oversubscription is forced so real domains run even on a one-core
     host, where ~jobs:4 alone would clamp to the serial path. *)
  List.iter
    (fun (suite, all) ->
      Experiment.clear_cache ();
      let serial = List.map Report.to_string (all None) in
      Experiment.clear_cache ();
      let parallel =
        Dbm_util.Pool.with_pool ~jobs:4 ~allow_oversubscribe:true (fun pool ->
            List.map Report.to_string (all (Some pool)))
      in
      check
        (Alcotest.list Alcotest.string)
        (suite ^ ": jobs=4 output byte-identical to jobs=1")
        serial parallel)
    [
      ("tables", fun pool -> Dbm_core.Tables.all ?pool ());
      ("ablations", fun pool -> Dbm_core.Ablations.all ?pool ());
      ("extensions", fun pool -> Dbm_core.Extensions.all ?pool ());
    ]

let test_by_id_bounds () =
  match Dbm_core.Tables.by_id 13 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "table 13 accepted"

let () =
  Alcotest.run "dbm_core tables"
    [
      ( "report",
        [
          Alcotest.test_case "render" `Quick test_report_render;
          Alcotest.test_case "csv" `Quick test_report_csv;
          Alcotest.test_case "shape score" `Quick test_shape_score;
          Alcotest.test_case "shape score empty" `Quick test_shape_score_empty;
        ] );
      ( "qualitative findings",
        [
          Alcotest.test_case "logging is cheap" `Quick test_logging_is_cheap;
          Alcotest.test_case "scrambling ruins par-seq" `Quick
            test_scrambled_ruins_parallel_sequential;
          Alcotest.test_case "overwriting ok on par-seq" `Quick
            test_overwriting_ok_on_parallel_sequential;
          Alcotest.test_case "overwriting bad on conventional" `Quick
            test_overwriting_bad_on_conventional;
          Alcotest.test_case "findings robust to seed" `Slow test_findings_robust_to_seed;
        ] );
      ( "full tables",
        [
          Alcotest.test_case "structure" `Slow table_structure;
          Alcotest.test_case "shape scores" `Slow table_shape_scores;
          Alcotest.test_case "paper conclusions hold" `Slow shape_checks_pass;
          Alcotest.test_case "parallel determinism" `Slow parallel_determinism;
          Alcotest.test_case "by_id bounds" `Quick test_by_id_bounds;
        ] );
    ]
