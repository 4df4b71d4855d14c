(* Tests for the content-addressed run cache: the digest's canonical
   encoding (golden values guard the on-disk addressing scheme), the
   persistent store's failure modes (every malformed entry must read as
   a miss, never an error), and end-to-end identity of disk-loaded vs
   freshly computed results. *)

module Digest = Dbm_util.Digest
module Run_cache = Dbm_util.Run_cache
module Experiment = Dbm_core.Experiment
module Scenario = Dbm_core.Scenario
module Workload = Dbm_workload.Workload
module Logging = Dbm_recovery.Logging

let check = Alcotest.check

(* --- scratch directories ---------------------------------------------- *)

let dir_seq = ref 0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_temp_dir f =
  incr dir_seq;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dbm-cache-test-%d-%d" (Unix.getpid ()) !dir_seq)
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* --- digest: golden values -------------------------------------------- *)

(* These pin the canonical encoding.  A deliberate change to the feeder
   encoding (new tags, different length prefixes, ...) must update them
   — and with them every persisted cache entry self-invalidates, which
   is exactly the contract. *)

let test_digest_golden () =
  check Alcotest.string "of_string"
    "229da392d39d31be24726f96384d7c44" (Digest.of_string "dbm");
  check Alcotest.string "fnv64_hex" "ca892518f453844a" (Digest.fnv64_hex "dbm");
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
     field changes this — update the golden and note that all persisted
     entries correctly self-invalidate. *)
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
  Experiment.disable_disk_cache ();
  List.iter
    (fun (suite, declared, build) ->
      Experiment.clear_cache ();
      List.iter (fun r -> ignore (Experiment.force r)) (List.concat_map Experiment.runs declared);
      Experiment.reset_counters ();
      build ();
      check Alcotest.int (suite ^ " compute no unlisted run") 0
        (Experiment.counters ()).Experiment.computed)
    [
      ("tables", Dbm_core.Tables.declared, fun () -> ignore (Dbm_core.Tables.all ()));
      ("ablations", Dbm_core.Ablations.declared, fun () -> ignore (Dbm_core.Ablations.all ()));
      ("extensions", Dbm_core.Extensions.declared, fun () -> ignore (Dbm_core.Extensions.all ()));
      ("shape checks", Dbm_core.Tables.declared, fun () -> ignore (Dbm_core.Shape_checks.all ()));
    ];
  Experiment.clear_cache ()

(* --- the persistent store --------------------------------------------- *)

let digest_a = String.make 32 'a'
let digest_b = "0123456789abcdef0123456789abcdef"

let test_store_roundtrip () =
  with_temp_dir (fun dir ->
      let c = Run_cache.create ~dir ~version:"v1" in
      check (Alcotest.option Alcotest.string) "empty store misses" None
        (Run_cache.find c ~digest:digest_a);
      Run_cache.store c ~digest:digest_a "payload-one\nwith\x00binary bytes";
      check (Alcotest.option Alcotest.string) "roundtrip" (Some "payload-one\nwith\x00binary bytes")
        (Run_cache.find c ~digest:digest_a);
      check (Alcotest.option Alcotest.string) "other digest still misses" None
        (Run_cache.find c ~digest:digest_b);
      Run_cache.store c ~digest:digest_a "payload-two";
      check (Alcotest.option Alcotest.string) "store overwrites" (Some "payload-two")
        (Run_cache.find c ~digest:digest_a);
      (* survives reopening (a fresh process) *)
      let c' = Run_cache.create ~dir ~version:"v1" in
      check (Alcotest.option Alcotest.string) "persists across handles" (Some "payload-two")
        (Run_cache.find c' ~digest:digest_a))

let test_store_sharding () =
  with_temp_dir (fun dir ->
      let c = Run_cache.create ~dir ~version:"v1" in
      let path = Run_cache.entry_path c ~digest:digest_b in
      check Alcotest.string "sharded by digest prefix"
        (Filename.concat (Filename.concat dir "01") (digest_b ^ ".res"))
        path)

let clobber path f =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let content = really_input_string ic n in
  close_in ic;
  let content' = f content in
  let oc = open_out_bin path in
  output_string oc content';
  close_out oc

let test_store_rejects_damage () =
  with_temp_dir (fun dir ->
      let c = Run_cache.create ~dir ~version:"v1" in
      let payload = "a result payload, long enough to truncate meaningfully" in
      let path = Run_cache.entry_path c ~digest:digest_a in
      let store () = Run_cache.store c ~digest:digest_a payload in
      store ();
      check (Alcotest.option Alcotest.string) "intact entry hits" (Some payload)
        (Run_cache.find c ~digest:digest_a);
      (* truncation *)
      clobber path (fun s -> String.sub s 0 (String.length s - 10));
      check (Alcotest.option Alcotest.string) "truncated entry misses" None
        (Run_cache.find c ~digest:digest_a);
      (* payload corruption (checksum must catch it) *)
      store ();
      clobber path (fun s ->
          let b = Bytes.of_string s in
          let i = Bytes.length b - 3 in
          Bytes.set b i (if Bytes.get b i = 'x' then 'y' else 'x');
          Bytes.to_string b);
      check (Alcotest.option Alcotest.string) "corrupted entry misses" None
        (Run_cache.find c ~digest:digest_a);
      (* garbage from another tool entirely *)
      clobber path (fun _ -> "not a cache entry at all");
      check (Alcotest.option Alcotest.string) "garbage entry misses" None
        (Run_cache.find c ~digest:digest_a);
      (* empty file (e.g. a crashed writer) *)
      clobber path (fun _ -> "");
      check (Alcotest.option Alcotest.string) "empty entry misses" None
        (Run_cache.find c ~digest:digest_a))

let test_store_version_mismatch () =
  with_temp_dir (fun dir ->
      let v1 = Run_cache.create ~dir ~version:"results-schema-1" in
      Run_cache.store v1 ~digest:digest_a "old-format payload";
      let v2 = Run_cache.create ~dir ~version:"results-schema-2" in
      check (Alcotest.option Alcotest.string) "old version misses under new schema" None
        (Run_cache.find v2 ~digest:digest_a);
      check (Alcotest.option Alcotest.string) "still hits under its own schema"
        (Some "old-format payload")
        (Run_cache.find v1 ~digest:digest_a))

(* --- end-to-end: Experiment + persistent store ------------------------ *)

(* Alcotest runs cases sequentially in-process, so toggling the global
   disk cache is safe as long as every test restores the default
   (disabled, memo cleared) on exit. *)
let with_disk_cache dir f =
  Experiment.clear_cache ();
  Experiment.enable_disk_cache ~dir;
  Fun.protect
    ~finally:(fun () ->
      Experiment.disable_disk_cache ();
      Experiment.clear_cache ())
    f

let test_persistent_identity () =
  with_temp_dir (fun dir ->
      with_disk_cache dir (fun () ->
          let req = bare_req Scenario.Conventional_random in
          Experiment.reset_counters ();
          let fresh = Experiment.force req in
          let c1 = Experiment.counters () in
          check Alcotest.int "first force computes" 1 c1.Experiment.computed;
          check Alcotest.int "first force misses disk" 0 c1.Experiment.disk_hits;
          (* drop the memo so the next force must go to disk *)
          Experiment.clear_cache ();
          let loaded = Experiment.force req in
          let c2 = Experiment.counters () in
          check Alcotest.int "second force does not compute" 1 c2.Experiment.computed;
          check Alcotest.int "second force hits disk" 1 c2.Experiment.disk_hits;
          check Alcotest.bool "disk-loaded result structurally identical" true
            (Stdlib.compare fresh loaded = 0)))

let test_corrupt_entry_recomputes () =
  with_temp_dir (fun dir ->
      with_disk_cache dir (fun () ->
          let req = bare_req ~seed:11 Scenario.Conventional_random in
          let fresh = Experiment.force req in
          (* mangle the persisted entry behind the runner's back *)
          let store = Run_cache.create ~dir ~version:"unused" in
          let path = Run_cache.entry_path store ~digest:(Experiment.digest req) in
          check Alcotest.bool "entry was persisted" true (Sys.file_exists path);
          clobber path (fun s -> String.sub s 0 (String.length s / 2));
          Experiment.clear_cache ();
          Experiment.reset_counters ();
          let recomputed = Experiment.force req in
          let c = Experiment.counters () in
          check Alcotest.int "corrupt entry falls back to compute" 1 c.Experiment.computed;
          check Alcotest.int "no disk hit" 0 c.Experiment.disk_hits;
          check Alcotest.bool "recomputed result identical" true
            (Stdlib.compare fresh recomputed = 0);
          (* and the recomputation healed the entry *)
          Experiment.clear_cache ();
          Experiment.reset_counters ();
          ignore (Experiment.force req);
          check Alcotest.int "healed entry hits" 1
            (Experiment.counters ()).Experiment.disk_hits))

(* Cache hits must record no observation: a hit runs no simulation, so
   its near-zero wall is load time, and --profile lists simulations. *)
let test_cache_hit_records_no_observation () =
  with_temp_dir (fun dir ->
      with_disk_cache dir (fun () ->
          Experiment.reset_profile ();
          let req = bare_req ~seed:13 Scenario.Conventional_random in
          ignore (Experiment.force req);
          check
            (Alcotest.list Alcotest.string)
            "the compute was profiled" [ Experiment.digest req ]
            (List.map (fun o -> o.Experiment.obs_digest) (Experiment.profile ()));
          (* memo hit *)
          ignore (Experiment.force req);
          (* disk hit *)
          Experiment.clear_cache ();
          ignore (Experiment.force req);
          check Alcotest.int "memo/disk hits were not profiled" 1
            (List.length (Experiment.profile ()));
          Experiment.reset_profile ()))

(* Random small configurations: whatever the workload, a disk-loaded
   result is structurally identical to the fresh computation. *)
let prop_cache_hit_identity =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 0 1000 in
      let* n = int_range 1 4 in
      let* max_pages = int_range 2 30 in
      let* write_fraction = oneofl [ 0.0; 0.2; 0.5 ] in
      let* sequential = bool in
      return (seed, n, max_pages, write_fraction, sequential))
  in
  let print (seed, n, mp, wf, sq) =
    Printf.sprintf "seed=%d n=%d max_pages=%d write=%.1f seq=%b" seed n mp wf sq
  in
  QCheck.Test.make ~name:"disk-loaded result = fresh computation" ~count:6
    (QCheck.make ~print gen)
    (fun (seed, n, max_pages, write_fraction, sequential) ->
      let workload =
        {
          (Scenario.workload_config ~seed Scenario.Conventional_random) with
          Workload.n_transactions = n;
          max_pages;
          write_fraction;
          pattern = (if sequential then Workload.Sequential else Workload.Random_access);
        }
      in
      let req =
        Experiment.request ~arch:"bare"
          ~machine:(Scenario.machine_config Scenario.Conventional_random)
          ~workload
          ~make_arch:(fun _ -> Dbm_machine.Arch.bare)
      in
      with_temp_dir (fun dir ->
          with_disk_cache dir (fun () ->
              let fresh = Experiment.force req in
              Experiment.clear_cache ();
              Experiment.reset_counters ();
              let loaded = Experiment.force req in
              (Experiment.counters ()).Experiment.disk_hits = 1
              && Stdlib.compare fresh loaded = 0)))

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
      ( "persistent store",
        [
          Alcotest.test_case "roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "sharded paths" `Quick test_store_sharding;
          Alcotest.test_case "damage reads as miss" `Quick test_store_rejects_damage;
          Alcotest.test_case "version mismatch" `Quick test_store_version_mismatch;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "persistent identity" `Quick test_persistent_identity;
          Alcotest.test_case "corrupt entry recomputes" `Quick test_corrupt_entry_recomputes;
          Alcotest.test_case "cache hit records no observation" `Quick
            test_cache_hit_records_no_observation;
          QCheck_alcotest.to_alcotest prop_cache_hit_identity;
        ] );
    ]
