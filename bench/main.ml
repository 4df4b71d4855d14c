(* The benchmark harness.

   Part 1 regenerates every table of the paper's evaluation section
   (Tables 1-12 — the paper has no figures) and prints measured values
   next to the paper's, with a per-table shape score.  The parallel
   regeneration schedules individual simulation runs (not whole tables)
   across the pool, so its output is byte-identical to the serial run
   by construction; the harness exits non-zero if it is not.

   Part 2 measures the event core in steady state — events/sec and
   minor words/event for a bare engine tick loop and for a Resource
   service loop.  Both loops use preallocated continuations so the
   harness itself allocates nothing per event and the numbers measure
   the core, not the benchmark.

   Part 3 exercises the content-addressed run cache: it counts how many
   of the suite's runs collapse onto shared digests (the dedup ratio),
   then times a cold regeneration that populates a fresh on-disk store
   against a warm one that replays it, asserting the two renders are
   byte-identical.

   Part 4 measures the storage half (Storage_bench): the wakeup
   scheduler against its pre-overhaul polling version, per-engine
   committed-txns/sec under the 2PL scheduler, recovery wall time vs
   log length, vs worker-domain count and vs fuzzy-checkpoint age, the
   physical/delta/operation log-format head-to-head, the open-loop
   transaction server, the read-heavy MVCC snapshot sweep, sharded
   execution with cross-shard two-phase commit, and buffer-pool /
   journal microbenchmarks.  Storage_bench owns the report, the
   [storage] object of the record and the gate rows; the harness exits
   non-zero when any row, check or floor, fails.

   Part 5 runs Bechamel micro-benchmarks of the substrate primitives.
   [--fast] skips parts that exist for reporting (charts, ablations,
   Bechamel) and keeps the timed/validated parts — the CI smoke mode. *)

let separator title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Part 1: the paper's tables                                          *)
(* ------------------------------------------------------------------ *)

let timed_serial () =
  Dbm_core.Experiment.clear_cache ();
  let t0 = Unix.gettimeofday () in
  let tables =
    List.map
      (fun i ->
        let t0 = Unix.gettimeofday () in
        let t = Dbm_core.Tables.by_id i in
        (t, (Unix.gettimeofday () -. t0) *. 1000.0))
      (List.init 12 (fun i -> i + 1))
  in
  (tables, (Unix.gettimeofday () -. t0) *. 1000.0)

(* One timed regeneration through the pool: the individual runs are
   fanned out first (filling the memo cache), the tables assembled
   serially from cache hits. *)
let timed_parallel pool =
  Dbm_core.Experiment.clear_cache ();
  let t0 = Unix.gettimeofday () in
  let tables = Dbm_core.Tables.all ~pool () in
  (tables, (Unix.gettimeofday () -. t0) *. 1000.0)

let render_all tables = String.concat "" (List.map Dbm_core.Report.to_string tables)

type table_report = {
  serial_ms : float;
  parallel_ms : float;
  jobs_requested : int;
  jobs_measured : int; (* the pool size of the timed parallel run *)
  oversubscribed : bool; (* jobs_measured exceeds the host's cores *)
  scheduling_efficiency : float; (* parallel wall / (serial wall / jobs) *)
  byte_identical_j2 : bool;
  byte_identical_j4 : bool;
  overall_score : float;
  per_table : (string * float * float) list; (* id, shape score, wall ms *)
  top_runs : Dbm_core.Experiment.observation list; (* 10 slowest serial runs *)
}

let run_tables ~jobs ~allow_oversubscribe () =
  separator "Reproduction of Agrawal & DeWitt (1985), Tables 1-12";
  Printf.printf "(each cell: measured [paper]; all times in ms)\n";
  Dbm_core.Experiment.reset_profile ();
  let serial, serial_ms = timed_serial () in
  (* The serial pass just populated the cost model, so every parallel
     pass below schedules from observed walls, not priors. *)
  let top_runs =
    let open Dbm_core.Experiment in
    profile ()
    |> List.sort (fun a b -> Float.compare b.wall_ms a.wall_ms)
    |> List.filteri (fun i _ -> i < 10)
  in
  let serial_render = render_all (List.map fst serial) in
  let host = Dbm_util.Pool.default_jobs () in
  (* A 1-core host would clamp every pool to one domain and report no
     parallel metrics at all (BENCH_3 emitted nulls); measure an
     oversubscribed 2-domain run instead and say so. *)
  let effective = if allow_oversubscribe then jobs else min jobs host in
  let jobs_measured, oversubscribed =
    if effective > 1 then (effective, effective > host) else (2, true)
  in
  let timed_at n = Dbm_util.Pool.with_pool ~jobs:n ~allow_oversubscribe:true timed_parallel in
  let par_tables, parallel_ms = timed_at jobs_measured in
  let par_render = render_all par_tables in
  (* Determinism gate at jobs in {1, 2, 4}: the serial render is the
     jobs=1 reference; reuse the timed render when the size matches. *)
  let render_at n =
    if n = jobs_measured then par_render else render_all (fst (timed_at n))
  in
  let byte_identical_j2 = String.equal serial_render (render_at 2) in
  let byte_identical_j4 = String.equal serial_render (render_at 4) in
  let scheduling_efficiency = parallel_ms /. (serial_ms /. float_of_int jobs_measured) in
  let per_table =
    List.map
      (fun (t, serial_wall_ms) ->
        print_newline ();
        print_string (Dbm_core.Report.to_string t);
        let score = Dbm_core.Report.mean_abs_log_ratio t in
        Printf.printf "shape score (mean |log measured/paper|): %.3f\n" score;
        (t.Dbm_core.Report.id, score, serial_wall_ms))
      serial
  in
  separator "Shape summary";
  List.iter (fun (id, s, _) -> Printf.printf "%-9s %.3f\n" id s) per_table;
  let overall_score =
    List.fold_left (fun acc (_, s, _) -> acc +. s) 0.0 per_table
    /. float_of_int (List.length per_table)
  in
  Printf.printf "%-9s %.3f  (0 = exact; 0.7 ~ 2x average miss)\n" "overall" overall_score;
  separator "Table regeneration wall clock";
  Printf.printf "serial (1 job): %.0f ms\n" serial_ms;
  Printf.printf "%d jobs (of %d requested%s): %.0f ms  (%.2fx)\n" jobs_measured jobs
    (if oversubscribed then "; oversubscribed" else "")
    parallel_ms (serial_ms /. parallel_ms);
  Printf.printf
    "scheduling efficiency (parallel wall / ideal wall at %d jobs): %.2f  (1.0 = perfect \
     packing%s)\n"
    jobs_measured scheduling_efficiency
    (if oversubscribed then "; ~jobs expected when oversubscribed on fewer cores" else "");
  Printf.printf "byte-identical to serial at 2 jobs: %b; at 4 jobs: %b\n" byte_identical_j2
    byte_identical_j4;
  separator "Slowest runs (serial pass, cost-model estimate vs observed)";
  List.iter
    (fun (o : Dbm_core.Experiment.observation) ->
      Printf.printf "%-13s %-44s %9.3f ms (est. %9.3f)\n"
        (String.sub o.Dbm_core.Experiment.obs_digest 0 12)
        o.Dbm_core.Experiment.obs_label o.Dbm_core.Experiment.wall_ms
        o.Dbm_core.Experiment.estimate_ms)
    top_runs;
  {
    serial_ms;
    parallel_ms;
    jobs_requested = jobs;
    jobs_measured;
    oversubscribed;
    scheduling_efficiency;
    byte_identical_j2;
    byte_identical_j4;
    overall_score;
    per_table;
    top_runs;
  }

(* ------------------------------------------------------------------ *)
(* Per-run major-heap allocation: fresh state vs recycled arenas       *)
(* ------------------------------------------------------------------ *)

type arena_report = { major_fresh : float; major_arena : float }

(* One full serial regeneration per mode, major words divided by the
   simulations actually computed.  Fresh first: its throwaway engines
   and resource pools are exactly what the arena path recycles. *)
let run_arena_alloc () =
  separator "Per-run major-heap allocation (arena recycling)";
  let measure ~recycle =
    Dbm_sim.Arena.set_enabled recycle;
    Dbm_core.Experiment.clear_cache ();
    Dbm_core.Experiment.reset_counters ();
    Gc.full_major ();
    let s0 = Gc.quick_stat () in
    ignore (Dbm_core.Tables.all ());
    let s1 = Gc.quick_stat () in
    Dbm_sim.Arena.set_enabled true;
    let computed = (Dbm_core.Experiment.counters ()).Dbm_core.Experiment.computed in
    (s1.Gc.major_words -. s0.Gc.major_words) /. float_of_int (max 1 computed)
  in
  let major_fresh = measure ~recycle:false in
  let major_arena = measure ~recycle:true in
  Printf.printf "fresh state per run:  %10.0f major words\n" major_fresh;
  Printf.printf "arena reuse per run:  %10.0f major words  (%.1f%% reduction)\n" major_arena
    (100.0 *. (1.0 -. (major_arena /. major_fresh)));
  { major_fresh; major_arena }

(* Sweep shapes, at a glance. *)
let run_charts () =
  separator "Sweep shapes";
  let cell_of table ~row ~col =
    let t = Dbm_core.Tables.by_id table in
    let r = List.nth t.Dbm_core.Report.rows row in
    (List.nth r.Dbm_core.Report.cells col).Dbm_core.Report.measured
  in
  Printf.printf "\nTable 3: execution time per page vs number of log disks (cyclic):\n";
  print_string
    (Dbm_core.Report.ascii_bars
       (List.init 5 (fun i ->
            (Printf.sprintf "%d log disk%s" (i + 1) (if i > 0 then "s" else ""),
             cell_of 3 ~row:i ~col:0))
       @ [ ("no logging", cell_of 3 ~row:5 ~col:0) ]));
  Printf.printf "\nTable 11: execution time per page vs differential size (Conventional-Random):\n";
  print_string
    (Dbm_core.Report.ascii_bars
       (List.mapi
          (fun i label -> (label, cell_of 11 ~row:0 ~col:i))
          [ "bare"; "10%"; "15%"; "20%" ]))

let run_ablations ~jobs ~allow_oversubscribe () =
  separator "Ablations (design-choice experiments beyond the paper)";
  List.iter
    (fun t ->
      print_newline ();
      print_string (Dbm_core.Report.to_string t))
    (Dbm_util.Pool.with_pool ~jobs ~allow_oversubscribe (fun pool ->
         Dbm_core.Ablations.all ~pool ()))

(* ------------------------------------------------------------------ *)
(* Part 2: event-core steady state                                     *)
(* ------------------------------------------------------------------ *)

type event_core = {
  tick_events_per_sec : float;
  tick_minor_words_per_event : float;
  resource_events_per_sec : float;
  resource_minor_words_per_event : float;
}

let run_event_core () =
  separator "Event core (steady state, preallocated continuations)";
  (* A self-rescheduling chain: one live event, recycled forever.  The
     single [tick] closure is allocated before measurement starts. *)
  let e = Dbm_sim.Engine.create () in
  let n = 2_000_000 in
  let fired = ref 0 in
  let rec tick () =
    incr fired;
    if !fired < n then ignore (Dbm_sim.Engine.schedule e ~delay:1.0 tick)
  in
  ignore (Dbm_sim.Engine.schedule e ~delay:1.0 tick);
  let s0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  Dbm_sim.Engine.run e;
  let dt = Unix.gettimeofday () -. t0 in
  let s1 = Gc.quick_stat () in
  let tick_events_per_sec = float_of_int n /. dt in
  let tick_minor_words_per_event =
    (s1.Gc.minor_words -. s0.Gc.minor_words) /. float_of_int n
  in
  Printf.printf "engine tick loop:    %10.0f events/s, %5.2f minor words/event\n"
    tick_events_per_sec tick_minor_words_per_event;
  (* Four customers cycling through a 2-server resource: exercises the
     queue, the per-server finishers and the recycled think-time events.
     The three continuations are allocated once, before measurement. *)
  let e = Dbm_sim.Engine.create () in
  let r = Dbm_sim.Resource.create e ~name:"core-bench" ~servers:2 () in
  let target = 1_000_000 in
  let rec submit_next () =
    if Dbm_sim.Resource.completed r < target then
      Dbm_sim.Resource.submit r ~service:3.0 k_done
  and k_done () = ignore (Dbm_sim.Engine.schedule e ~delay:1.0 k_think)
  and k_think () = submit_next () in
  for _ = 1 to 4 do
    submit_next ()
  done;
  let s0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  Dbm_sim.Engine.run e;
  let dt = Unix.gettimeofday () -. t0 in
  let s1 = Gc.quick_stat () in
  (* one service completion plus one think-time event per job *)
  let events = float_of_int (2 * target) in
  let resource_events_per_sec = events /. dt in
  let resource_minor_words_per_event = (s1.Gc.minor_words -. s0.Gc.minor_words) /. events in
  Printf.printf "resource loop:       %10.0f events/s, %5.2f minor words/event\n"
    resource_events_per_sec resource_minor_words_per_event;
  {
    tick_events_per_sec;
    tick_minor_words_per_event;
    resource_events_per_sec;
    resource_minor_words_per_event;
  }

(* ------------------------------------------------------------------ *)
(* Part 3: content-addressed run cache                                 *)
(* ------------------------------------------------------------------ *)

type cache_report = {
  total_runs : int; (* requests across tables + ablations + extensions *)
  unique_runs : int; (* distinct digests among them *)
  cold_ms : float; (* tables regenerated into an empty disk cache *)
  warm_ms : float; (* tables replayed from that disk cache *)
  warm_disk_hits : int;
  cache_byte_identical : bool;
}

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let run_cache () =
  separator "Content-addressed run cache";
  let reqs =
    Dbm_core.Tables.runs () @ Dbm_core.Ablations.runs () @ Dbm_core.Extensions.runs ()
  in
  let total_runs = List.length reqs in
  let unique_runs = List.length (Dbm_core.Experiment.dedup reqs) in
  Printf.printf "suite requests: %d runs, %d unique digests (%.1f%% deduped)\n"
    total_runs unique_runs
    (100.0 *. float_of_int (total_runs - unique_runs) /. float_of_int total_runs);
  (* Cold vs warm regeneration through a scratch on-disk store.  Both
     runs go through the same serial [Tables.all], so any wall-clock
     difference is the cache, and the renders must match exactly. *)
  let dir = Printf.sprintf "_bench_cache.%d.tmp" (Unix.getpid ()) in
  rm_rf dir;
  Dbm_core.Experiment.enable_disk_cache ~dir;
  let timed_render () =
    Dbm_core.Experiment.clear_cache ();
    Dbm_core.Experiment.reset_counters ();
    let t0 = Unix.gettimeofday () in
    let tables = Dbm_core.Tables.all () in
    let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    (render_all tables, ms, Dbm_core.Experiment.counters ())
  in
  let cold_render, cold_ms, cold_counters = timed_render () in
  let warm_render, warm_ms, warm_counters = timed_render () in
  Dbm_core.Experiment.disable_disk_cache ();
  Dbm_core.Experiment.clear_cache ();
  rm_rf dir;
  let cache_byte_identical = String.equal cold_render warm_render in
  Printf.printf "cold regeneration (empty store): %.1f ms (%d computed)\n" cold_ms
    cold_counters.Dbm_core.Experiment.computed;
  Printf.printf "warm regeneration (full store):  %.1f ms (%d disk hits, %d computed)\n"
    warm_ms warm_counters.Dbm_core.Experiment.disk_hits
    warm_counters.Dbm_core.Experiment.computed;
  Printf.printf "warm speedup: %.1fx; warm output byte-identical to cold: %b\n"
    (cold_ms /. warm_ms) cache_byte_identical;
  {
    total_runs;
    unique_runs;
    cold_ms;
    warm_ms;
    warm_disk_hits = warm_counters.Dbm_core.Experiment.disk_hits;
    cache_byte_identical;
  }

(* ------------------------------------------------------------------ *)
(* Part 4: storage-half throughput                                     *)
(* ------------------------------------------------------------------ *)

let run_storage_bench ~allow_oversubscribe () =
  separator "Storage half (recovery engines, 2PL scheduler, substrate)";
  let b =
    Dbm_storage.Storage_bench.run ~jobs:[ 1; 2; 4 ] ~allow_oversubscribe
      ~now:Unix.gettimeofday ()
  in
  Dbm_storage.Storage_bench.print b;
  b

(* ------------------------------------------------------------------ *)
(* Part 5: Bechamel micro-benchmarks                                   *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

(* Table 1/2 dominant primitive: assembling and writing log pages ->
   the event engine + drive service path. *)
let bench_event_engine =
  Test.make ~name:"table1-2: event engine schedule+run (1k events)"
    (Staged.stage (fun () ->
         let e = Dbm_sim.Engine.create () in
         for i = 1 to 1000 do
           ignore (Dbm_sim.Engine.schedule e ~delay:(float_of_int (i mod 17)) (fun () -> ()))
         done;
         Dbm_sim.Engine.run e))

(* Table 3: log fragment distribution -> PRNG + selection. *)
let bench_prng =
  Test.make ~name:"table3: prng draws (10k)"
    (Staged.stage (fun () ->
         let rng = Dbm_util.Prng.create 1 in
         let acc = ref 0 in
         for _ = 1 to 10_000 do
           acc := !acc + Dbm_util.Prng.int rng 5
         done;
         ignore !acc))

(* Table 4/5: page-table indirection -> drive access-time model. *)
let bench_drive_model =
  Test.make ~name:"table4-5: conventional drive service (256 pages)"
    (Staged.stage (fun () ->
         let e = Dbm_sim.Engine.create () in
         let d =
           Dbm_disk.Drive.create e ~params:Dbm_disk.Params.ibm_3350
             ~layout:Dbm_disk.Layout.Sequential ~name:"bench" ()
         in
         for p = 0 to 255 do
           Dbm_disk.Drive.submit d Dbm_disk.Drive.Read ~pages:[ p * 31 mod 60000 ] (fun () -> ())
         done;
         Dbm_sim.Engine.run e))

(* Table 6: page-table buffer -> LRU operations. *)
let bench_lru =
  Test.make ~name:"table6: lru find/add (10k ops, cap 50)"
    (Staged.stage (fun () ->
         let l = Dbm_util.Lru.create ~capacity:50 () in
         for i = 0 to 9_999 do
           let k = i * 7919 mod 200 in
           match Dbm_util.Lru.find l k with
           | Some _ -> ()
           | None -> ignore (Dbm_util.Lru.add l k k)
         done))

(* Table 7/8: scrambled placement -> layout permutation. *)
let bench_layout =
  Test.make ~name:"table7-8: scrambled locate (10k pages)"
    (Staged.stage (fun () ->
         let layout = Dbm_disk.Layout.Scrambled 11 in
         let acc = ref 0 in
         for p = 0 to 9_999 do
           acc :=
             !acc + (Dbm_disk.Layout.locate Dbm_disk.Params.ibm_3350 layout ~page:p).Dbm_disk.Layout.cylinder
         done;
         ignore !acc))

(* Table 9-11: differential files -> page record set operations. *)
let bench_page_ops =
  Test.make ~name:"table9-11: page update/lookup (1k ops)"
    (Staged.stage (fun () ->
         let p = Dbm_storage.Page.empty ~page_size:2048 in
         for i = 0 to 999 do
           Dbm_storage.Page.update p ~key:(i mod 16) ~value:(Some "value");
           ignore (Dbm_storage.Page.lookup p ~key:(i mod 16))
         done))

(* A page holding 64 records, scanned without materializing the record
   list: the minor-allocation estimate proves lookup allocates only the
   result (a handful of words), not the whole record set. *)
let lookup_page =
  let p = Dbm_storage.Page.empty ~page_size:2048 in
  Dbm_storage.Page.set_records p (List.init 64 (fun i -> (i, Printf.sprintf "value-%02d" i)));
  p

let bench_page_lookup =
  Test.make ~name:"page lookup, 64-record page (alloc-free scan)"
    (Staged.stage (fun () ->
         ignore (Sys.opaque_identity (Dbm_storage.Page.lookup lookup_page ~key:48))))

(* Table 12 (grand comparison): a whole miniature simulation run. *)
let bench_mini_simulation =
  Test.make ~name:"table12: full machine run (5 txns)"
    (Staged.stage (fun () ->
         let machine = { Dbm_machine.Config.paper_base with Dbm_machine.Config.db_pages = 16384 } in
         let workload =
           Dbm_workload.Workload.generate
             {
               Dbm_workload.Workload.default with
               Dbm_workload.Workload.n_transactions = 5;
               max_pages = 40;
               db_pages = 16384;
             }
         in
         ignore
           (Dbm_machine.Machine.run ~config:machine
              ~make_arch:(fun _ -> Dbm_machine.Arch.bare)
              ~workload)))

(* Storage-engine commit paths (the functional counterparts). *)
let bench_engine (module E : Dbm_storage.Kv.S) =
  Test.make ~name:(Printf.sprintf "engine %s: 32-put txn commit" E.engine_name)
    (Staged.stage (fun () ->
         let e = E.create ~n_keys:64 () in
         let t = E.begin_txn e in
         for k = 0 to 31 do
           E.put t k "benchmark-value"
         done;
         E.commit t))

let bench_relation_select =
  Test.make ~name:"relation: optimal select over (B u A) - D (400 tuples)"
    (Staged.stage
       (let r =
          Dbm_relation.Diff_relation.create ~tuples_per_page:8
            (List.init 400 (fun i -> { Dbm_relation.Diff_relation.key = i; value = "v" }))
        in
        List.iteri
          (fun i () ->
            if i mod 3 = 0 then Dbm_relation.Diff_relation.delete r ~key:(i * 7 mod 400)
            else
              Dbm_relation.Diff_relation.insert r
                { Dbm_relation.Diff_relation.key = i * 11 mod 400; value = "u" })
          (List.init 40 (fun _ -> ()));
        fun () ->
          ignore
            (Dbm_relation.Diff_relation.select r ~strategy:Dbm_relation.Diff_relation.Optimal
               (fun t -> t.Dbm_relation.Diff_relation.key mod 7 = 0))))

let bench_wal_codec =
  Test.make ~name:"wal encode+decode (full-page images)"
    (Staged.stage (fun () ->
         let r =
           Dbm_storage.Wal.Update
             {
               lsn = 12;
               txn = 3;
               page = 9;
               before = Bytes.make 1024 'b';
               after = Bytes.make 1024 'a';
             }
         in
         ignore (Dbm_storage.Wal.decode (Dbm_storage.Wal.encode r))))

let benchmarks =
  [
    bench_event_engine;
    bench_prng;
    bench_drive_model;
    bench_lru;
    bench_layout;
    bench_page_ops;
    bench_page_lookup;
    bench_mini_simulation;
    bench_relation_select;
    bench_wal_codec;
    bench_engine (module Dbm_storage.Engine_log);
    bench_engine (module Dbm_storage.Engine_shadow);
    bench_engine (module Dbm_storage.Engine_versel);
    bench_engine (module Dbm_storage.Engine_overwrite.No_undo);
    bench_engine (module Dbm_storage.Engine_overwrite.No_redo);
    bench_engine (module Dbm_storage.Engine_diff);
  ]

let bench_cfg () = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 200) ()

(* Per-run estimate of one instance (ns or minor words) for one test. *)
let estimate instance test =
  let results =
    Benchmark.all (bench_cfg ()) [ instance ]
      (Test.make_grouped ~name:"g" ~fmt:"%s %s" [ test ])
  in
  let ols =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
      instance results
  in
  Hashtbl.fold
    (fun _ result acc ->
      match Analyze.OLS.estimates result with Some [ est ] -> Some est | _ -> acc)
    ols None

let run_benchmarks () =
  separator "Micro-benchmarks (Bechamel)";
  List.iter
    (fun test ->
      let results =
        Benchmark.all (bench_cfg ()) Instance.[ monotonic_clock ]
          (Test.make_grouped ~name:"g" ~fmt:"%s %s" [ test ])
      in
      let ols =
        Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-55s %12.1f ns/run\n" name est
          | _ -> Printf.printf "%-55s (no estimate)\n" name)
        ols)
    benchmarks;
  let lookup_ns = estimate Instance.monotonic_clock bench_page_lookup in
  let lookup_minor = estimate Instance.minor_allocated bench_page_lookup in
  (match lookup_minor with
  | Some words ->
    Printf.printf "%-55s %12.1f minor words/run\n" "page lookup, 64-record page (allocation)"
      words
  | None -> ());
  (lookup_ns, lookup_minor)

(* ------------------------------------------------------------------ *)
(* The benchmark record (BENCH_10.json by default)                     *)
(* ------------------------------------------------------------------ *)

let bench_record (tr : table_report) (core : event_core) (cr : cache_report)
    (ar : arena_report) storage (lookup_ns, lookup_minor) total_s =
  let open Dbm_util.Json in
  let opt = function None -> Null | Some v -> Float v in
  Obj
    [
      ("bench", Int 10);
      ("host_cores", Int (Dbm_util.Pool.default_jobs ()));
      ("jobs_requested", Int tr.jobs_requested);
      ("jobs_effective", Int tr.jobs_measured);
      ("oversubscribed", Bool tr.oversubscribed);
      ("tables_serial_wall_ms", Float tr.serial_ms);
      ("tables_parallel_wall_ms", Float tr.parallel_ms);
      ("tables_speedup", Float (tr.serial_ms /. tr.parallel_ms));
      ("scheduling_efficiency", Float tr.scheduling_efficiency);
      ("parallel_output_byte_identical", Bool (tr.byte_identical_j2 && tr.byte_identical_j4));
      ("byte_identical_jobs2", Bool tr.byte_identical_j2);
      ("byte_identical_jobs4", Bool tr.byte_identical_j4);
      ("major_words_per_run_fresh", Float ar.major_fresh);
      ("major_words_per_run", Float ar.major_arena);
      ("major_words_reduction", Float (1.0 -. (ar.major_arena /. ar.major_fresh)));
      ( "cost_model_entries",
        Int
          (match Dbm_core.Experiment.cost_model () with
          | Some m -> Dbm_util.Cost_model.size m
          | None -> 0) );
      ( "top_runs",
        List
          (List.map
             (fun (o : Dbm_core.Experiment.observation) ->
               Obj
                 [
                   ("digest", String (String.sub o.Dbm_core.Experiment.obs_digest 0 12));
                   ("run", String o.Dbm_core.Experiment.obs_label);
                   ("wall_ms", Float o.Dbm_core.Experiment.wall_ms);
                   ("estimate_ms", Float o.Dbm_core.Experiment.estimate_ms);
                 ])
             tr.top_runs) );
      ("events_per_sec", Float core.tick_events_per_sec);
      ("minor_words_per_event", Float core.tick_minor_words_per_event);
      ("resource_events_per_sec", Float core.resource_events_per_sec);
      ("resource_minor_words_per_event", Float core.resource_minor_words_per_event);
      ("overall_shape_score", Float tr.overall_score);
      ("suite_total_runs", Int cr.total_runs);
      ("suite_unique_runs", Int cr.unique_runs);
      ( "suite_dedup_ratio",
        Float (float_of_int cr.total_runs /. float_of_int cr.unique_runs) );
      ("cache_cold_wall_ms", Float cr.cold_ms);
      ("cache_warm_wall_ms", Float cr.warm_ms);
      ("cache_warm_speedup", Float (cr.cold_ms /. cr.warm_ms));
      ("cache_warm_disk_hits", Int cr.warm_disk_hits);
      ("cache_output_byte_identical", Bool cr.cache_byte_identical);
      ( "tables",
        List
          (List.map
             (fun (id, score, wall_ms) ->
               Obj [ ("id", String id); ("shape_score", Float score); ("wall_ms", Float wall_ms) ])
             tr.per_table) );
      ("storage", Dbm_storage.Storage_bench.to_json storage);
      ("page_lookup_ns_per_run", opt lookup_ns);
      ("page_lookup_minor_words_per_run", opt lookup_minor);
      ("total_wall_s", Float total_s);
    ]

let () =
  let jobs = ref (max 2 (Dbm_util.Pool.default_jobs ())) in
  let json_path = ref "BENCH_10.json" in
  let fast = ref false in
  let allow_oversubscribe = ref false in
  Arg.parse
    [
      ("--jobs", Arg.Set_int jobs, "N worker domains for table/ablation regeneration");
      ("-j", Arg.Set_int jobs, "N same as --jobs");
      ("--json", Arg.Set_string json_path, "PATH where to write the benchmark record");
      ("--fast", Arg.Set fast, " tables + event core only (CI smoke mode)");
      ( "--allow-oversubscribe",
        Arg.Set allow_oversubscribe,
        " run more domains than cores instead of clamping" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench/main.exe [--jobs N] [--json PATH] [--fast] [--allow-oversubscribe]";
  if !jobs < 1 then begin
    prerr_endline "--jobs must be >= 1";
    exit 2
  end;
  (* The LPT scheduler needs cost observations to sort by; an in-memory
     model keeps the bench hermetic (no file left behind) while the
     serial pass feeds every parallel pass real walls. *)
  Dbm_core.Experiment.set_cost_model
    (Some (Dbm_util.Cost_model.in_memory ~version:"bench"));
  let t0 = Unix.gettimeofday () in
  let table_report =
    run_tables ~jobs:!jobs ~allow_oversubscribe:!allow_oversubscribe ()
  in
  let core = run_event_core () in
  let arena_report = run_arena_alloc () in
  let cache_report = run_cache () in
  (* The storage half runs even under --fast: its rows gate the run. *)
  let storage_report = run_storage_bench ~allow_oversubscribe:!allow_oversubscribe () in
  let lookup_estimates =
    if !fast then (None, None)
    else begin
      run_charts ();
      run_ablations ~jobs:!jobs ~allow_oversubscribe:!allow_oversubscribe ();
      run_benchmarks ()
    end
  in
  let total_s = Unix.gettimeofday () -. t0 in
  Printf.printf "\ntotal wall time: %.1f s\n" total_s;
  let oc = open_out !json_path in
  output_string oc
    (Dbm_util.Json.to_string
       (bench_record table_report core cache_report arena_report storage_report
          lookup_estimates total_s));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" !json_path;
  (* A parallel run that does not reproduce the serial bytes is a
     correctness failure, not a perf datum; so is a warm cache replay
     that renders different bytes than the cold computation.  The
     storage half fails on every row, check or floor, that did not
     hold. *)
  let failures =
    (if table_report.byte_identical_j2 && table_report.byte_identical_j4 then []
     else [ "parallel table output differs from serial output" ])
    @ (if cache_report.cache_byte_identical then []
       else [ "warm-cache table output differs from cold output" ])
    @ List.map snd (Dbm_storage.Storage_bench.failed storage_report)
  in
  List.iter (fun m -> prerr_endline ("FAIL: " ^ m)) failures;
  if failures <> [] then exit 1
