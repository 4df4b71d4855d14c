module Config = Dbm_machine.Config
module Results = Dbm_machine.Results
module Workload = Dbm_workload.Workload
module Logging = Dbm_recovery.Logging

let cell = Report.cell

let e1_skews =
  [
    ("uniform", Workload.Random_access);
    ("10% hot, 50% of accesses", Workload.Hotspot { hot_fraction = 0.10; hot_access_prob = 0.5 });
    ("5% hot, 80% of accesses", Workload.Hotspot { hot_fraction = 0.05; hot_access_prob = 0.8 });
    ("2% hot, 80% of accesses", Workload.Hotspot { hot_fraction = 0.02; hot_access_prob = 0.8 });
    ("1% hot, 95% of accesses", Workload.Hotspot { hot_fraction = 0.01; hot_access_prob = 0.95 });
  ]

(* The workload pattern is part of the digest, so the uniform rows
   collapse (via dedup) onto the Table 1 bare/logging runs of the same
   machine. *)
let e1_request ~arch ~make_arch (_label, pattern) =
  let machine = Scenario.machine_config Scenario.Conventional_random in
  let workload =
    { (Scenario.workload_config Scenario.Conventional_random) with Workload.pattern }
  in
  Experiment.request ~arch ~machine ~workload ~make_arch

let e1_bare_request = e1_request ~arch:"bare" ~make_arch:(fun _ -> Dbm_machine.Arch.bare)

let e1_logging_request =
  e1_request ~arch:(Logging.descriptor Logging.default) ~make_arch:(Logging.make Logging.default)

let hotspot_contention () =
  let rows =
    List.map
      (fun skew ->
        let label, _ = skew in
        let bare = Experiment.force (e1_bare_request skew) in
        let log = Experiment.force (e1_logging_request skew) in
        {
          Report.row_label = label;
          cells =
            [
              cell bare.Results.exec_ms_per_page;
              cell bare.Results.mean_completion_ms;
              cell bare.Results.mean_active_txns;
              cell (Results.data_disk_utilization bare);
              cell log.Results.exec_ms_per_page;
              cell log.Results.mean_completion_ms;
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
   is hand-built, so this run uses a custom request whose versioned tag
   stands in for the construction below: bump the tag when changing
   it, or stale persistent entries would be served. *)
let e2_request () =
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

let mixed_size_fairness () =
  let r = Experiment.force (e2_request ()) in
  let class_mean pred =
    let xs = List.filter_map (fun (id, c) -> if pred id then Some c else None) r.Results.completions in
    match xs with
    | [] -> 0.0
    | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
  in
  {
    Report.id = "Extension E2";
    title = "Mixed transaction sizes: completion time by class (bare Conventional-Random)";
    columns = [ "mean completion (ms)"; "count" ];
    rows =
      [
        {
          Report.row_label = "small (1-10 pages)";
          cells = [ cell (class_mean (fun id -> id < 1000)); cell 20.0 ];
        };
        {
          Report.row_label = "large (200-250 pages)";
          cells = [ cell (class_mean (fun id -> id >= 1000)); cell 5.0 ];
        };
        {
          Report.row_label = "all";
          cells = [ cell r.Results.mean_completion_ms; cell 25.0 ];
        };
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
let e3_interarrivals = [ 10_000.0; 5_000.0; 3_500.0; 3_000.0 ]

let e3_request ~arch ~make_arch mean =
  let machine = Scenario.machine_config Scenario.Conventional_random in
  let machine = { machine with Config.arrivals = Config.Poisson mean } in
  let workload =
    { (Scenario.workload_config Scenario.Conventional_random) with Workload.n_transactions = 40 }
  in
  Experiment.request ~arch ~machine ~workload ~make_arch

let e3_bare_request = e3_request ~arch:"bare" ~make_arch:(fun _ -> Dbm_machine.Arch.bare)

let e3_logging_request =
  e3_request ~arch:(Logging.descriptor Logging.default) ~make_arch:(Logging.make Logging.default)

let open_system_load () =
  let rows =
    List.map
      (fun mean ->
        let bare = Experiment.force (e3_bare_request mean) in
        let log = Experiment.force (e3_logging_request mean) in
        let p95 (r : Results.t) =
          Dbm_util.Stats.percentile (List.map snd r.Results.completions) ~p:95.0
        in
        {
          Report.row_label = Printf.sprintf "interarrival %5.0f ms" mean;
          cells =
            [
              cell bare.Results.mean_completion_ms;
              cell (p95 bare);
              cell (Results.data_disk_utilization bare);
              cell log.Results.mean_completion_ms;
            ];
        })
      e3_interarrivals
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

let builders = [ hotspot_contention; mixed_size_fairness; open_system_load ]

(* Flattened run-level work list (see Tables.runs). *)
let runs () : Experiment.request list =
  List.concat
    [
      List.concat_map (fun skew -> [ e1_bare_request skew; e1_logging_request skew ]) e1_skews;
      [ e2_request () ];
      List.concat_map (fun mean -> [ e3_bare_request mean; e3_logging_request mean ]) e3_interarrivals;
    ]

let all ?pool () = Experiment.build_suite ?pool ~runs builders
