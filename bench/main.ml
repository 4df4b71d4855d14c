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

   Part 3 counts how many of the suite's runs collapse onto shared
   content digests (the dedup ratio): each unique digest is simulated
   once per process.

   Part 4 measures the storage half (Storage_bench): the wakeup
   scheduler against its pre-overhaul polling version, per-engine
   committed-txns/sec under the 2PL scheduler, recovery wall time vs
   log length, vs worker-domain count and vs fuzzy-checkpoint age, the
   physical/delta/operation log-format head-to-head, the open-loop
   transaction server, the read-heavy MVCC snapshot sweep, and sharded
   execution with cross-shard two-phase commit.  Storage_bench owns the
   report, the [storage] object of the record and the gate rows; the
   harness exits non-zero when any row, check or floor, fails.

   Every part runs one fixed configuration; only the pool size and the
   oversubscription switch vary. *)

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
  separator "Slowest runs (serial pass)";
  List.iter
    (fun (o : Dbm_core.Experiment.observation) ->
      Printf.printf "%-13s %-44s %9.3f ms\n"
        (String.sub o.Dbm_core.Experiment.obs_digest 0 12)
        o.Dbm_core.Experiment.obs_label o.Dbm_core.Experiment.wall_ms)
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
(* Per-run major-heap allocation with recycled arenas                  *)
(* ------------------------------------------------------------------ *)

(* One full serial regeneration, major words divided by the simulations
   actually computed. *)
let run_arena_alloc () =
  separator "Per-run major-heap allocation (arena recycling)";
  Dbm_core.Experiment.clear_cache ();
  Dbm_core.Experiment.reset_computed ();
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  ignore (Dbm_core.Tables.all ());
  let s1 = Gc.quick_stat () in
  let computed = Dbm_core.Experiment.computed () in
  let words = (s1.Gc.major_words -. s0.Gc.major_words) /. float_of_int (max 1 computed) in
  Printf.printf "arena reuse per run:  %10.0f major words\n" words;
  words

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
(* Part 3: content-addressed run dedup                                 *)
(* ------------------------------------------------------------------ *)

type dedup_report = {
  total_runs : int; (* each table's distinct runs, summed over all three suites *)
  unique_runs : int; (* distinct digests among them *)
}

let run_dedup () =
  separator "Content-addressed run dedup";
  let reqs =
    List.concat_map Dbm_core.Experiment.runs
      Dbm_core.(Tables.declared @ Ablations.declared @ Extensions.declared)
  in
  let total_runs = List.length reqs in
  let unique_runs = List.length (Dbm_core.Experiment.dedup reqs) in
  Printf.printf "suite work list: %d table runs, %d unique digests (%.1f%% deduped)\n"
    total_runs unique_runs
    (100.0 *. float_of_int (total_runs - unique_runs) /. float_of_int total_runs);
  { total_runs; unique_runs }

(* ------------------------------------------------------------------ *)
(* Part 4: storage-half throughput                                     *)
(* ------------------------------------------------------------------ *)

let run_storage_bench ~allow_oversubscribe () =
  separator "Storage half (recovery engines, 2PL scheduler, server)";
  let b = Dbm_storage.Storage_bench.run ~allow_oversubscribe ~now:Unix.gettimeofday () in
  Dbm_storage.Storage_bench.print b;
  b

(* ------------------------------------------------------------------ *)
(* The benchmark record (BENCH_10.json by default)                     *)
(* ------------------------------------------------------------------ *)

let bench_record (tr : table_report) (core : event_core) (dr : dedup_report)
    major_words_per_run storage total_s =
  let open Dbm_util.Json in
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
      ("major_words_per_run", Float major_words_per_run);
      ( "top_runs",
        List
          (List.map
             (fun (o : Dbm_core.Experiment.observation) ->
               Obj
                 [
                   ("digest", String (String.sub o.Dbm_core.Experiment.obs_digest 0 12));
                   ("run", String o.Dbm_core.Experiment.obs_label);
                   ("wall_ms", Float o.Dbm_core.Experiment.wall_ms);
                 ])
             tr.top_runs) );
      ("events_per_sec", Float core.tick_events_per_sec);
      ("minor_words_per_event", Float core.tick_minor_words_per_event);
      ("resource_events_per_sec", Float core.resource_events_per_sec);
      ("resource_minor_words_per_event", Float core.resource_minor_words_per_event);
      ("overall_shape_score", Float tr.overall_score);
      ("suite_total_runs", Int dr.total_runs);
      ("suite_unique_runs", Int dr.unique_runs);
      ( "suite_dedup_ratio",
        Float (float_of_int dr.total_runs /. float_of_int dr.unique_runs) );
      ( "tables",
        List
          (List.map
             (fun (id, score, wall_ms) ->
               Obj [ ("id", String id); ("shape_score", Float score); ("wall_ms", Float wall_ms) ])
             tr.per_table) );
      ("storage", Dbm_storage.Storage_bench.to_json storage);
      ("total_wall_s", Float total_s);
    ]

let () =
  let jobs = ref (max 2 (Dbm_util.Pool.default_jobs ())) in
  let json_path = ref "BENCH_10.json" in
  let allow_oversubscribe = ref false in
  Arg.parse
    [
      ("--jobs", Arg.Set_int jobs, "N worker domains for table regeneration");
      ("-j", Arg.Set_int jobs, "N same as --jobs");
      ("--json", Arg.Set_string json_path, "PATH where to write the benchmark record");
      ( "--allow-oversubscribe",
        Arg.Set allow_oversubscribe,
        " run more domains than cores instead of clamping" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench/main.exe [--jobs N] [--json PATH] [--allow-oversubscribe]";
  if !jobs < 1 then begin
    prerr_endline "--jobs must be >= 1";
    exit 2
  end;
  let t0 = Unix.gettimeofday () in
  let table_report =
    run_tables ~jobs:!jobs ~allow_oversubscribe:!allow_oversubscribe ()
  in
  let core = run_event_core () in
  let major_words_per_run = run_arena_alloc () in
  let dedup_report = run_dedup () in
  let storage_report = run_storage_bench ~allow_oversubscribe:!allow_oversubscribe () in
  let total_s = Unix.gettimeofday () -. t0 in
  Printf.printf "\ntotal wall time: %.1f s\n" total_s;
  let oc = open_out !json_path in
  output_string oc
    (Dbm_util.Json.to_string
       (bench_record table_report core dedup_report major_words_per_run storage_report total_s));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" !json_path;
  (* A parallel run that does not reproduce the serial bytes is a
     correctness failure, not a perf datum.  The storage half fails on
     every row, check or floor, that did not hold. *)
  let failures =
    (if table_report.byte_identical_j2 && table_report.byte_identical_j4 then []
     else [ "parallel table output differs from serial output" ])
    @ List.map snd (Dbm_storage.Storage_bench.failed storage_report)
  in
  List.iter (fun m -> prerr_endline ("FAIL: " ^ m)) failures;
  if failures <> [] then exit 1
