module Config = Dbm_machine.Config
module Results = Dbm_machine.Results
module Workload = Dbm_workload.Workload
module Logging = Dbm_recovery.Logging

let cell = Experiment.cell

let e1_skews =
  [
    ("uniform", Workload.Random_access);
    ("10% hot, 50% of accesses", Workload.Hotspot { hot_fraction = 0.10; hot_access_prob = 0.5 });
    ("5% hot, 80% of accesses", Workload.Hotspot { hot_fraction = 0.05; hot_access_prob = 0.8 });
    ("2% hot, 80% of accesses", Workload.Hotspot { hot_fraction = 0.02; hot_access_prob = 0.8 });
    ("1% hot, 95% of accesses", Workload.Hotspot { hot_fraction = 0.01; hot_access_prob = 0.95 });
  ]

let exec (r : Results.t) = r.Results.exec_ms_per_page

let completion (r : Results.t) = r.Results.mean_completion_ms

(* (descriptor, architecture) of the two machines the extensions
   compare *)
let bare = ("bare", fun _ -> Dbm_machine.Arch.bare)

let logging = (Logging.descriptor Logging.default, Logging.make Logging.default)

(* The workload pattern is part of the digest, so the uniform rows
   collapse (in the suite's work list) onto the Table 1 bare/logging
   runs of the same machine. *)
let hotspot_contention =
  let run (arch, make_arch) pattern =
    let machine = Scenario.machine_config Scenario.Conventional_random in
    let workload =
      { (Scenario.workload_config Scenario.Conventional_random) with Workload.pattern }
    in
    Experiment.request ~arch ~machine ~workload ~make_arch
  in
  let rows =
    List.map
      (fun (label, pattern) ->
        let b = run bare pattern and l = run logging pattern in
        {
          Report.row_label = label;
          cells =
            [
              cell exec b;
              cell completion b;
              cell (fun r -> r.Results.mean_active_txns) b;
              cell Results.data_disk_utilization b;
              cell exec l;
              cell completion l;
            ];
        })
      e1_skews
  in
  {
    Report.id = "Extension E1";
    title = "Hot-spot contention under page-level locking (Conventional-Random machine)";
    columns =
      [
        "bare exec/page"; "bare completion"; "effective MPL"; "data disk util";
        "logging exec/page"; "logging completion";
      ];
    rows;
    notes =
      [
        "two competing effects the paper's uniform workloads never expose: exclusive \
         locks on a shrinking hot region serialize admissions (the effective MPL falls \
         well below the configured 3), while the same locality shortens seeks; at \
         moderate skew locality wins, and only once the effective MPL approaches 1 \
         does the machine start idling (falling disk utilization)";
      ];
  }

(* 20 small transactions (1-10 pages) mixed with 5 very large ones
   (200-250 pages), interleaved in arrival order.  The workload array
   is hand-built, so this run uses a custom request whose tag stands in
   for the construction below in the run's digest. *)
let e2_request =
  let machine = Scenario.machine_config Scenario.Conventional_random in
  Experiment.custom_request ~tag:"ext-mixed/v1" ~machine @@ fun () ->
  let small =
    Workload.generate
      {
        (Scenario.workload_config Scenario.Conventional_random) with
        Workload.n_transactions = 20;
        min_pages = 1;
        max_pages = 10;
        seed = 11;
      }
  in
  let large =
    Workload.generate
      {
        (Scenario.workload_config Scenario.Conventional_random) with
        Workload.n_transactions = 5;
        min_pages = 200;
        max_pages = 250;
        seed = 12;
      }
  in
  (* interleave, re-numbering ids so they stay unique; ids < 1000 are
     small, >= 1000 large *)
  let small = Array.mapi (fun i t -> { t with Workload.id = i }) small in
  let large = Array.mapi (fun i t -> { t with Workload.id = 1000 + i }) large in
  let mixed =
    Array.concat
      (List.concat (List.init 5 (fun i -> [ Array.sub small (4 * i) 4; [| large.(i) |] ])))
  in
  Dbm_machine.Machine.run ~config:machine
    ~make_arch:(fun _ -> Dbm_machine.Arch.bare)
    ~workload:mixed

let mixed_size_fairness =
  let r = e2_request in
  let class_mean pred (r : Results.t) =
    let xs =
      List.filter_map (fun (id, c) -> if pred id then Some c else None) r.Results.completions
    in
    match xs with
    | [] -> 0.0
    | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
  in
  let count n = cell (fun _ -> n) r in
  {
    Report.id = "Extension E2";
    title = "Mixed transaction sizes: completion time by class (bare Conventional-Random)";
    columns = [ "mean completion (ms)"; "count" ];
    rows =
      [
        {
          Report.row_label = "small (1-10 pages)";
          cells = [ cell (class_mean (fun id -> id < 1000)) r; count 20.0 ];
        };
        {
          Report.row_label = "large (200-250 pages)";
          cells = [ cell (class_mean (fun id -> id >= 1000)) r; count 5.0 ];
        };
        { Report.row_label = "all"; cells = [ cell completion r; count 25.0 ] };
      ];
    notes =
      [
        "small transactions ride along nearly unharmed: static page-level locking \
         admits them between the giants (their page sets rarely collide at db scale)";
      ];
  }

(* Offered load vs response time in an open system (Poisson arrivals):
   the closed-model paper reports completion under a fixed MPL; this
   sweep shows the classic response-time knee as utilization rises. *)
let open_system_load =
  let run (arch, make_arch) mean =
    let machine = Scenario.machine_config Scenario.Conventional_random in
    let machine = { machine with Config.arrivals = Config.Poisson mean } in
    let workload =
      { (Scenario.workload_config Scenario.Conventional_random) with Workload.n_transactions = 40 }
    in
    Experiment.request ~arch ~machine ~workload ~make_arch
  in
  let p95 (r : Results.t) =
    Dbm_util.Stats.percentile (List.map snd r.Results.completions) ~p:95.0
  in
  let rows =
    List.map
      (fun mean ->
        let b = run bare mean in
        {
          Report.row_label = Printf.sprintf "interarrival %5.0f ms" mean;
          cells =
            [
              cell completion b;
              cell p95 b;
              cell Results.data_disk_utilization b;
              cell completion (run logging mean);
            ];
        })
      [ 10_000.0; 5_000.0; 3_500.0; 3_000.0 ]
  in
  {
    Report.id = "Extension E3";
    title = "Open system: response time vs offered load (Poisson arrivals, Conventional-Random)";
    columns =
      [ "bare mean response"; "bare p95 response"; "data disk util"; "logging mean response" ];
    rows;
    notes =
      [
        "response time grows from ~3.1 s toward the knee as the offered load (shown as data-disk utilization) rises; tail response degrades first, and logging tracks the bare machine across the whole sweep";
      ];
  }

let declared = [ hotspot_contention; mixed_size_fairness; open_system_load ]

let all ?pool () = Experiment.build_suite ?pool declared
