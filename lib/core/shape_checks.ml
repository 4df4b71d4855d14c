module Results = Dbm_machine.Results
module Logging = Dbm_recovery.Logging
module Diff_file = Dbm_recovery.Diff_file

type check = { claim : string; where : string; holds : bool }

let exec (r : Results.t) = r.Results.exec_ms_per_page

let extra key (r : Results.t) = Option.value (Results.find_extra r key) ~default:0.0

(* The tables' own runs: every digest here is one the tables share, so
   nothing reruns. *)
let bare sc = Experiment.force (Tables.bare_request sc)

let logging1 sc = Experiment.force (Tables.logging1_request sc)

let shadow_pt ~n_pt ~buf sc = Experiment.force (Tables.shadow_pt_request ~n_pt ~buf sc)

let scrambled sc = Experiment.force (Tables.shadow_scrambled_request sc)

let overwriting sc = Experiment.force (Tables.overwriting_request sc)

let diff ~strategy sc = Experiment.force (Tables.diff_request ~strategy sc)

let table3 ~n_log ~selection = Experiment.force (Tables.table3_request ~n_log ~selection)

let all () =
  let open Scenario in
  let within_pct a b pct = Float.abs (a -. b) <= pct /. 100.0 *. b in
  [
    {
      claim = "logging does not affect the throughput of the database machine";
      where = "Section 4.1.1, Table 1";
      holds =
        List.for_all
          (fun sc -> within_pct (exec (logging1 sc)) (exec (bare sc)) 10.0)
          Scenario.all;
    };
    {
      claim = "a single log disk is grossly underutilized under logical logging";
      where = "Section 4.1.2, Table 2";
      holds =
        List.for_all (fun sc -> extra "log_disk_util" (logging1 sc) < 0.35) Scenario.all;
    };
    {
      claim =
        "with physical logging one log disk becomes the bottleneck; adding log disks \
         restores throughput monotonically";
      where = "Section 4.1.2, Table 3";
      holds =
        (let e n = exec (table3 ~n_log:n ~selection:Logging.Cyclic) in
         e 1 > 2.0 *. e 3 && e 3 >= e 5 && e 1 > 3.0 *. e 5);
    };
    {
      claim =
        "the transaction-number-mod selection is a loser; cyclic, random and \
         QP-number-mod are comparable";
      where = "Section 4.1.2, Table 3";
      holds =
        (let at s = exec (table3 ~n_log:4 ~selection:s) in
         at Logging.Txn_mod > 1.15 *. at Logging.Cyclic
         && within_pct (at Logging.Random) (at Logging.Cyclic) 20.0
         && within_pct (at Logging.Qp_mod) (at Logging.Cyclic) 20.0);
    };
    {
      claim =
        "with 1 page-table processor and a small buffer, random-transaction throughput \
         degrades; 2 page-table processors annul the degradation";
      where = "Section 4.2.1, Table 4";
      holds =
        List.for_all
          (fun sc ->
            exec (shadow_pt ~n_pt:1 ~buf:10 sc) > 1.08 *. exec (bare sc)
            && within_pct (exec (shadow_pt ~n_pt:2 ~buf:10 sc)) (exec (bare sc)) 8.0)
          [ Conventional_random; Parallel_random ];
    };
    {
      claim = "a larger page-table buffer annuls the degradation even with 1 processor";
      where = "Section 4.2.2, Table 6";
      holds =
        List.for_all
          (fun sc ->
            exec (shadow_pt ~n_pt:1 ~buf:50 sc) < exec (shadow_pt ~n_pt:1 ~buf:10 sc)
            && within_pct (exec (shadow_pt ~n_pt:1 ~buf:50 sc)) (exec (bare sc)) 8.0)
          [ Conventional_random; Parallel_random ];
    };
    {
      claim =
        "sequential transactions are unaffected by the shadow mechanism when clustering \
         is preserved";
      where = "Section 4.2.1, Table 4";
      holds =
        List.for_all
          (fun sc -> within_pct (exec (shadow_pt ~n_pt:1 ~buf:10 sc)) (exec (bare sc)) 8.0)
          [ Conventional_sequential; Parallel_sequential ];
    };
    {
      claim =
        "if logically adjacent pages are scattered, performance degrades very \
         significantly for sequential transactions — an order of magnitude on \
         parallel-access disks";
      where = "Section 4.2.3, Table 7";
      holds =
        exec (scrambled Conventional_sequential) > 1.8 *. exec (bare Conventional_sequential)
        && exec (scrambled Parallel_sequential) > 8.0 *. exec (bare Parallel_sequential);
    };
    {
      claim =
        "overwriting performs much worse than thru-page-table on conventional disks, but \
         is competitive on parallel-access disks with sequential transactions";
      where = "Sections 4.2.4, Tables 7-8";
      holds =
        exec (overwriting Conventional_random) > 1.15 *. exec (shadow_pt ~n_pt:1 ~buf:10 Conventional_random)
        && exec (overwriting Parallel_sequential) < 1.5 *. exec (bare Parallel_sequential);
    };
    {
      claim =
        "the basic differential strategy saturates the query processors and flattens all \
         four configurations to roughly the same execution time";
      where = "Section 4.3.1, Table 9";
      holds =
        (let es = List.map (fun sc -> exec (diff ~strategy:Diff_file.Basic sc)) Scenario.all in
         let mx = List.fold_left Float.max 0.0 es
         and mn = List.fold_left Float.min infinity es in
         mx < 1.1 *. mn && mn > 2.0 *. exec (bare Conventional_random));
    };
    {
      claim =
        "the optimal strategy restores disk-bound behaviour on random loads but the \
         differential mechanism still hurts most where the machine was fastest";
      where = "Section 4.3.1, Table 9";
      holds =
        within_pct (exec (diff ~strategy:Diff_file.Optimal Conventional_random))
          (exec (bare Conventional_random))
          15.0
        && exec (diff ~strategy:Diff_file.Optimal Parallel_sequential)
           > 5.0 *. exec (bare Parallel_sequential);
    };
    {
      claim =
        "overall, parallel logging emerges as the best recovery architecture: in every \
         configuration it is within a few percent of the cheapest alternative";
      where = "Section 5, Table 12";
      holds =
        List.for_all
          (fun sc ->
            let contenders =
              [
                exec (logging1 sc);
                exec (shadow_pt ~n_pt:1 ~buf:10 sc);
                exec (shadow_pt ~n_pt:2 ~buf:10 sc);
                exec (overwriting sc);
                exec (diff ~strategy:Diff_file.Optimal sc);
              ]
            in
            let best = List.fold_left Float.min infinity contenders in
            exec (logging1 sc) <= 1.05 *. best)
          Scenario.all;
    };
  ]

let failures () = List.filter (fun c -> not c.holds) (all ())
