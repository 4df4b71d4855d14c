(* Tests for the content-addressed run memo: the digest's canonical
   encoding (golden values pin it), request digests and the dedup of the
   suites' work lists, and the in-process memo behind [Experiment.force]
   (its in-flight latch and its profile). *)

module Digest = Dbm_util.Digest
module Experiment = Dbm_core.Experiment
module Scenario = Dbm_core.Scenario
module Workload = Dbm_workload.Workload
module Logging = Dbm_recovery.Logging

let check = Alcotest.check

(* --- digest: golden values -------------------------------------------- *)

(* These pin the canonical encoding.  A deliberate change to the feeder
   encoding (new tags, different length prefixes, ...) must update
   them. *)

let test_digest_golden () =
  check Alcotest.string "of_string"
    "229da392d39d31be24726f96384d7c44" (Digest.of_string "dbm");
  let d = Digest.create () in
  Digest.int d 42;
  Digest.float d 1.5;
  Digest.bool d true;
  Digest.string d "log";
  Digest.tag d 3;
  check Alcotest.string "mixed feed sequence"
    "eb54fc78cb4f6dcd5e3e5b768ffc7343" (Digest.hex d)

let test_digest_deterministic () =
  let feed () =
    let d = Digest.create () in
    Digest.string d "machine-config";
    Digest.int d 25;
    Digest.float d 0.2;
    Digest.tag d 1;
    Digest.hex d
  in
  check Alcotest.string "same feeds, same digest" (feed ()) (feed ())

(* The encoding is injective: values of different types, and different
   splits of the same bytes, must never collide. *)
let test_digest_framing () =
  let one feed =
    let d = Digest.create () in
    feed d;
    Digest.hex d
  in
  let all_distinct label xs =
    let sorted = List.sort_uniq compare xs in
    check Alcotest.int label (List.length xs) (List.length sorted)
  in
  all_distinct "string split matters"
    [
      one (fun d -> Digest.string d "ab");
      one (fun d ->
          Digest.string d "a";
          Digest.string d "b");
      one (fun d -> Digest.string d "ba");
    ];
  all_distinct "type tags matter"
    [
      one (fun d -> Digest.int d 1);
      one (fun d -> Digest.tag d 1);
      one (fun d -> Digest.bool d true);
      one (fun d -> Digest.float d 1.0);
    ];
  all_distinct "float bit patterns"
    [ one (fun d -> Digest.float d 0.0); one (fun d -> Digest.float d (-0.0)) ]

let prop_digest_int_injective_in_practice =
  QCheck.Test.make ~name:"distinct ints digest distinctly" ~count:200
    QCheck.(pair int int)
    (fun (a, b) ->
      let one v =
        let d = Digest.create () in
        Digest.int d v;
        Digest.hex d
      in
      QCheck.assume (a <> b);
      one a <> one b)

(* --- request digests --------------------------------------------------- *)

let small_workload ?(seed = 7) ?(n = 5) scenario =
  { (Scenario.workload_config ~seed scenario) with Workload.n_transactions = n }

let bare_req ?seed ?n scenario =
  Experiment.request ~arch:"bare"
    ~machine:(Scenario.machine_config scenario)
    ~workload:(small_workload ?seed ?n scenario)
    ~make_arch:(fun _ -> Dbm_machine.Arch.bare)

let test_request_digest_stable () =
  (* Rebuilding a request from the same inputs lands on the same digest:
     the digest is a function of content, not of closure identity. *)
  check Alcotest.string "bare conv-random"
    (Experiment.digest (bare_req Scenario.Conventional_random))
    (Experiment.digest (bare_req Scenario.Conventional_random));
  (* Golden: pins the full request serialization (arch descriptor +
     machine config + workload config feeds, in order).  Adding a config
     field changes this — update the golden. *)
  check Alcotest.string "request digest golden"
    "e06cb1f2a1b17472b1e374296c668dec"
    (Experiment.digest (bare_req Scenario.Conventional_random))

let test_request_digest_sensitivity () =
  let d ?seed ?n s = Experiment.digest (bare_req ?seed ?n s) in
  let base = d Scenario.Conventional_random in
  check Alcotest.bool "workload seed feeds the digest" true
    (base <> d ~seed:8 Scenario.Conventional_random);
  check Alcotest.bool "workload size feeds the digest" true
    (base <> d ~n:6 Scenario.Conventional_random);
  check Alcotest.bool "machine config feeds the digest" true
    (base <> d Scenario.Parallel_random);
  let logging_req =
    Experiment.scenario_request
      ~arch:(Logging.descriptor Logging.default)
      Scenario.Conventional_random (Logging.make Logging.default)
  in
  check Alcotest.bool "arch descriptor feeds the digest" true
    (Experiment.digest
       (Experiment.scenario_request ~arch:"bare" Scenario.Conventional_random (fun _ ->
            Dbm_machine.Arch.bare))
    <> Experiment.digest logging_req)

let test_dedup_keeps_first_occurrences () =
  let a = bare_req Scenario.Conventional_random in
  let b = bare_req ~seed:8 Scenario.Conventional_random in
  let a' = bare_req Scenario.Conventional_random in
  let deduped = Experiment.dedup [ a; b; a' ] in
  check Alcotest.int "duplicate dropped" 2 (List.length deduped);
  check
    (Alcotest.list Alcotest.string)
    "stable order"
    [ Experiment.digest a; Experiment.digest b ]
    (List.map Experiment.digest deduped)

(* The suites really do overlap: several ablation/extension runs are
   content-identical to table runs (A2's coalesce=on column is Table 1's
   logging run, E1's uniform rows are Table 1's, ...), so deduping the
   combined work list must collapse it. *)
let test_cross_suite_dedup () =
  let runs tables = List.concat_map Experiment.runs tables in
  let tables = runs Dbm_core.Tables.declared in
  let others = runs (Dbm_core.Ablations.declared @ Dbm_core.Extensions.declared) in
  let total = List.length tables + List.length others in
  let unique = List.length (Experiment.dedup (tables @ others)) in
  check Alcotest.bool "combined list collapses" true (unique < total);
  let table_digests = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace table_digests (Experiment.digest r) ()) tables;
  let overlap =
    List.exists (fun r -> Hashtbl.mem table_digests (Experiment.digest r)) others
  in
  check Alcotest.bool "ablations/extensions share table runs" true overlap

(* Parallel regeneration prefetches the work list read off a suite's
   cells and then renders the suite from the memo, so the list must
   cover every run rendering forces: once it is memoized, a serial build
   computes nothing.  The shape checks read the tables' runs only. *)
let test_run_lists_cover_builders () =
  List.iter
    (fun (suite, declared, build) ->
      Experiment.clear_cache ();
      List.iter (fun r -> ignore (Experiment.force r)) (List.concat_map Experiment.runs declared);
      Experiment.reset_computed ();
      build ();
      check Alcotest.int (suite ^ " compute no unlisted run") 0 (Experiment.computed ()))
    [
      ("tables", Dbm_core.Tables.declared, fun () -> ignore (Dbm_core.Tables.all ()));
      ("ablations", Dbm_core.Ablations.declared, fun () -> ignore (Dbm_core.Ablations.all ()));
      ("extensions", Dbm_core.Extensions.declared, fun () -> ignore (Dbm_core.Extensions.all ()));
      ("shape checks", Dbm_core.Tables.declared, fun () -> ignore (Dbm_core.Shape_checks.all ()));
    ];
  Experiment.clear_cache ()

(* --- the memo --------------------------------------------------------- *)

(* A memo hit records no observation: it runs no simulation, and
   --profile lists simulations. *)
let test_cache_hit_records_no_observation () =
  Experiment.clear_cache ();
  Experiment.reset_profile ();
  let req = bare_req ~seed:13 Scenario.Conventional_random in
  ignore (Experiment.force req);
  check
    (Alcotest.list Alcotest.string)
    "the compute was profiled" [ Experiment.digest req ]
    (List.map (fun o -> o.Experiment.obs_digest) (Experiment.profile ()));
  ignore (Experiment.force req);
  check Alcotest.int "the memo hit was not profiled" 1 (List.length (Experiment.profile ()));
  Experiment.reset_profile ();
  Experiment.clear_cache ()

(* Concurrent requesters of one digest wait on the in-flight marker
   instead of recomputing: eight forces of one slow request spread over
   four domains run its computation once, and every requester gets that
   one result. *)
let test_in_flight_latch () =
  Experiment.clear_cache ();
  let scenario = Scenario.Conventional_random in
  let machine = Scenario.machine_config scenario in
  let calls = Atomic.make 0 in
  let req =
    Experiment.custom_request ~tag:"test-in-flight-latch" ~machine (fun () ->
        Atomic.incr calls;
        Unix.sleepf 0.03;
        Dbm_machine.Machine.run ~config:machine
          ~make_arch:(fun _ -> Dbm_machine.Arch.bare)
          ~workload:(Workload.generate (small_workload scenario)))
  in
  Experiment.reset_computed ();
  let results =
    Dbm_util.Pool.with_pool ~jobs:4 ~allow_oversubscribe:true (fun pool ->
        Dbm_util.Pool.map_ordered pool (List.init 8 (fun _ -> req)) ~f:Experiment.force)
  in
  Experiment.clear_cache ();
  check Alcotest.int "one computation" 1 (Atomic.get calls);
  check Alcotest.int "computed counts it once" 1 (Experiment.computed ());
  check Alcotest.int "every requester answered" 8 (List.length results);
  check Alcotest.bool "every requester gets the one result" true
    (List.for_all (fun r -> r == List.hd results) results)

let () =
  Alcotest.run "dbm run cache"
    [
      ( "digest",
        [
          Alcotest.test_case "golden values" `Quick test_digest_golden;
          Alcotest.test_case "deterministic" `Quick test_digest_deterministic;
          Alcotest.test_case "injective framing" `Quick test_digest_framing;
          QCheck_alcotest.to_alcotest prop_digest_int_injective_in_practice;
        ] );
      ( "request digests",
        [
          Alcotest.test_case "stable + golden" `Quick test_request_digest_stable;
          Alcotest.test_case "sensitivity" `Quick test_request_digest_sensitivity;
          Alcotest.test_case "dedup order" `Quick test_dedup_keeps_first_occurrences;
          Alcotest.test_case "cross-suite overlap" `Quick test_cross_suite_dedup;
          Alcotest.test_case "run lists cover builders" `Quick test_run_lists_cover_builders;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "cache hit records no observation" `Quick
            test_cache_hit_records_no_observation;
          Alcotest.test_case "in-flight latch computes once" `Quick test_in_flight_latch;
        ] );
    ]
