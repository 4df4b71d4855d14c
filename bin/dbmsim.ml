(* Command-line driver for the recovery-architecture simulator. *)

open Cmdliner

let scenario_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "conv-random" | "conventional-random" -> Ok Dbm_core.Scenario.Conventional_random
    | "par-random" | "parallel-random" -> Ok Dbm_core.Scenario.Parallel_random
    | "conv-seq" | "conventional-sequential" -> Ok Dbm_core.Scenario.Conventional_sequential
    | "par-seq" | "parallel-sequential" -> Ok Dbm_core.Scenario.Parallel_sequential
    | other -> Error (`Msg (Printf.sprintf "unknown scenario %S" other))
  in
  let print ppf sc = Format.pp_print_string ppf (Dbm_core.Scenario.name sc) in
  Arg.conv (parse, print)

(* Each architecture's name, its canonical descriptor (so a CLI run
   shares its digest with the corresponding table/ablation runs) and
   its constructor. *)
let archs =
  let module L = Dbm_recovery.Logging in
  let module S = Dbm_recovery.Shadow in
  let module D = Dbm_recovery.Diff_file in
  let logging c = (L.descriptor c, L.make c) in
  let shadow c = (S.descriptor c, S.make c) in
  let diff c = (D.descriptor c, D.make c) in
  [
    ("bare", ("bare", fun _ -> Dbm_machine.Arch.bare));
    ("logging", logging L.default);
    ("logging-physical", logging { L.default with L.mode = L.Physical });
    ("shadow", shadow S.default_thru);
    ("shadow-2pt", shadow (S.thru ~n_pt_processors:2 ~buffer_pages:10));
    ("shadow-buf50", shadow (S.thru ~n_pt_processors:1 ~buffer_pages:50));
    ("overwrite", shadow S.overwrite_no_undo);
    ("overwrite-no-redo", shadow S.overwrite_no_redo);
    ("diff", diff D.default);
    ("diff-basic", diff D.basic);
    ("version-select", ("version-select", Dbm_recovery.Version_select.make_sim));
  ]

(* -- numeric converters -------------------------------------------- *)

(* Converters carrying the bounds the libraries enforce, so an
   out-of-range flag is a usage error rather than an uncaught
   Invalid_argument. *)
let bounded conv ok msg =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg msg)
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive_int = bounded Arg.int (fun n -> n >= 1) "must be >= 1"

let non_negative_int = bounded Arg.int (fun n -> n >= 0) "must be >= 0"

let positive_float =
  bounded Arg.float (fun f -> Float.is_finite f && f > 0.0) "must be positive and finite"

let non_negative_float =
  bounded Arg.float (fun f -> Float.is_finite f && f >= 0.0) "must be non-negative and finite"

let fraction = bounded Arg.float (fun f -> f >= 0.0 && f <= 1.0) "must be in [0,1]"

let non_empty_list conv = bounded (Arg.list conv) (fun l -> l <> []) "must not be empty"

(* -- parallel execution -------------------------------------------- *)

let jobs_arg =
  Arg.(
    value
    & opt positive_int (Dbm_util.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for independent simulation runs (default: the number of \
           cores, which is also the clamp — asking for more than the host has only \
           slows every domain down). $(docv)=1 spawns no domains at all and runs \
           inline; any $(docv) produces byte-identical output.")

let oversubscribe_arg =
  Arg.(
    value & flag
    & info [ "allow-oversubscribe" ]
        ~doc:
          "Let $(b,--jobs) exceed the host's core count instead of being clamped to it.  \
           Output is still byte-identical; only useful for exercising the parallel path \
           on small hosts (CI, single-core machines).")

let with_jobs jobs allow_oversubscribe f = Dbm_util.Pool.with_pool ~jobs ~allow_oversubscribe f

(* -- table command ------------------------------------------------- *)

let print_table ~csv t =
  if csv then print_string (Dbm_core.Report.to_csv t)
  else begin
    print_string (Dbm_core.Report.to_string t);
    Printf.printf "shape score (mean |log measured/paper|): %.3f\n\n"
      (Dbm_core.Report.mean_abs_log_ratio t)
  end

(* Top-10 slowest simulations actually executed this process. *)
let print_profile () =
  let open Dbm_core.Experiment in
  let obs = profile () in
  let sorted = List.sort (fun a b -> Float.compare b.wall_ms a.wall_ms) obs in
  let top = List.filteri (fun i _ -> i < 10) sorted in
  Printf.printf "\ntop %d slowest of %d executed runs:\n" (List.length top) (List.length obs);
  Printf.printf "%-13s %-44s %12s\n" "digest" "run" "wall ms";
  List.iter
    (fun o ->
      Printf.printf "%-13s %-44s %12.3f\n" (String.sub o.obs_digest 0 12) o.obs_label o.wall_ms)
    top

let table_cmd =
  let id =
    Arg.(
      value
      & pos 0 (some (bounded Arg.int (fun n -> n >= 1 && n <= 12) "must be in 1-12")) None
      & info [] ~docv:"N" ~doc:"Table number (1-12); all when omitted.")
  in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of aligned text.") in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "After the tables, print the top-10 slowest runs (digest prefix, run, observed \
             wall ms).  A run shared by several cells is simulated, and listed, once.")
  in
  let run id csv profile jobs allow_oversubscribe =
    (match id with
    | Some n -> print_table ~csv (Dbm_core.Tables.by_id n)
    | None ->
      with_jobs jobs allow_oversubscribe (fun pool ->
          List.iter (print_table ~csv) (Dbm_core.Tables.all ~pool ())));
    if profile then print_profile ()
  in
  Cmd.v
    (Cmd.info "table" ~doc:"Regenerate one or all of the paper's Tables 1-12.")
    Term.(const run $ id $ csv $ profile $ jobs_arg $ oversubscribe_arg)

(* -- run command --------------------------------------------------- *)

let run_cmd =
  let scenario =
    Arg.(
      value
      & opt scenario_conv Dbm_core.Scenario.Conventional_random
      & info [ "s"; "scenario" ] ~docv:"SCENARIO"
          ~doc:"conv-random | par-random | conv-seq | par-seq")
  in
  let arch =
    Arg.(
      value
      & opt (enum (List.map (fun (a, _) -> (a, a)) archs)) "bare"
      & info [ "a"; "arch" ] ~docv:"ARCH" ~doc:"Recovery architecture.")
  in
  let txns =
    Arg.(
      value & opt non_negative_int 50
      & info [ "n"; "transactions" ] ~docv:"N" ~doc:"Transaction count.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.") in
  let trace_n =
    Arg.(
      value & opt non_negative_int 0
      & info [ "trace" ] ~docv:"N" ~doc:"Print the last N machine trace events (0 = off).")
  in
  let run scenario arch txns seed trace_n =
    let descriptor, make_arch = List.assoc arch archs in
    let machine = Dbm_core.Scenario.machine_config scenario in
    let workload = Dbm_core.Scenario.workload_config ~n_transactions:txns ~seed scenario in
    let r =
      if trace_n > 0 then begin
        let trace = Dbm_sim.Trace.create ~capacity:trace_n () in
        let txns_arr = Dbm_workload.Workload.generate workload in
        let r =
          Dbm_machine.Machine.run_traced ~trace ~config:machine ~make_arch ~workload:txns_arr
        in
        Format.printf "--- last %d of %d trace events ---@." trace_n
          (Dbm_sim.Trace.total trace);
        Dbm_sim.Trace.dump Format.std_formatter trace;
        r
      end
      else
        Dbm_core.Experiment.(force (request ~arch:descriptor ~machine ~workload ~make_arch))
    in
    Format.printf "%s on %s:@.%a@." arch (Dbm_core.Scenario.name scenario)
      Dbm_machine.Results.pp r;
    List.iter (fun (k, v) -> Format.printf "  %s = %.3f@." k v) r.Dbm_machine.Results.extra
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one architecture on one configuration and print the metrics.")
    Term.(const run $ scenario $ arch $ txns $ seed $ trace_n)

(* -- ablation command ----------------------------------------------- *)

let ablation_cmd =
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of aligned text.") in
  let run csv jobs allow_oversubscribe =
    with_jobs jobs allow_oversubscribe (fun pool ->
        List.iter (print_table ~csv) (Dbm_core.Ablations.all ~pool ()))
  in
  Cmd.v
    (Cmd.info "ablation"
       ~doc:"Run the ablation experiments for the design choices listed in DESIGN.md.")
    Term.(const run $ csv $ jobs_arg $ oversubscribe_arg)

(* -- workload command --------------------------------------------------- *)

let workload_cmd =
  let scenario =
    Arg.(
      value
      & opt scenario_conv Dbm_core.Scenario.Conventional_random
      & info [ "s"; "scenario" ] ~docv:"SCENARIO"
          ~doc:"conv-random | par-random | conv-seq | par-seq")
  in
  let txns =
    Arg.(
      value & opt non_negative_int 50
      & info [ "n"; "transactions" ] ~docv:"N" ~doc:"Transaction count.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.") in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the workload to FILE instead of stdout.")
  in
  let run scenario txns seed out =
    let w =
      Dbm_workload.Workload.generate
        (Dbm_core.Scenario.workload_config ~n_transactions:txns ~seed scenario)
    in
    let text = Dbm_workload.Workload.to_string w in
    match out with
    | None -> print_string text
    | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Printf.printf "wrote %d transactions (%d pages) to %s\n" (Array.length w)
        (Dbm_workload.Workload.total_pages w) path
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:"Generate a paper workload and print or save its exact reference strings.")
    Term.(const run $ scenario $ txns $ seed $ out)

(* -- validate command --------------------------------------------------- *)

let validate_cmd =
  let run () =
    let checks = Dbm_core.Shape_checks.all () in
    List.iter
      (fun c ->
        Printf.printf "[%s] %s\n        (%s)\n"
          (if c.Dbm_core.Shape_checks.holds then "PASS" else "FAIL")
          c.Dbm_core.Shape_checks.claim c.Dbm_core.Shape_checks.where)
      checks;
    let failed = List.length (List.filter (fun c -> not c.Dbm_core.Shape_checks.holds) checks) in
    Printf.printf "\n%d/%d of the paper's conclusions hold in the reproduction\n"
      (List.length checks - failed) (List.length checks);
    if failed > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Check the paper's qualitative conclusions (orderings, crossovers) against the \
             regenerated tables; non-zero exit on any failure.")
    Term.(const run $ const ())

(* -- export command --------------------------------------------------- *)

let export_cmd =
  let dir =
    Arg.(
      value & opt string "results"
      & info [ "d"; "dir" ] ~docv:"DIR" ~doc:"Output directory (created if missing).")
  in
  let slug s = String.map (fun c -> if c = ' ' then '_' else Char.lowercase_ascii c) s in
  let run dir jobs allow_oversubscribe =
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let write t =
      let path = Filename.concat dir (slug t.Dbm_core.Report.id ^ ".csv") in
      let oc = open_out path in
      output_string oc (Dbm_core.Report.to_csv t);
      close_out oc;
      Printf.printf "wrote %s\n" path
    in
    with_jobs jobs allow_oversubscribe (fun pool ->
        List.iter write (Dbm_core.Tables.all ~pool ());
        List.iter write (Dbm_core.Ablations.all ~pool ());
        List.iter write (Dbm_core.Extensions.all ~pool ()))
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Write every table (paper, ablation, extension) as CSV files to a directory.")
    Term.(const run $ dir $ jobs_arg $ oversubscribe_arg)

(* -- extension command ----------------------------------------------- *)

let extension_cmd =
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of aligned text.") in
  let run csv jobs allow_oversubscribe =
    with_jobs jobs allow_oversubscribe (fun pool ->
        List.iter (print_table ~csv) (Dbm_core.Extensions.all ~pool ()))
  in
  Cmd.v
    (Cmd.info "extension"
       ~doc:"Run the extension experiments (hot-spot contention, mixed transaction sizes).")
    Term.(const run $ csv $ jobs_arg $ oversubscribe_arg)

(* -- recovery-time command ------------------------------------------ *)

(* Restart-recovery cost per engine: load W committed transactions of
   10 updates each, crash, and measure the recovery pass (wall time and
   disk traffic).  The differential and shadow families pay nothing at
   restart; logging pays in proportion to the retained log — until a
   checkpoint truncates it. *)
let recovery_time_cmd =
  let measure (module E : Dbm_storage.Kv.S) ~txns ~checkpointed =
    let e = E.create ~n_keys:512 () in
    let rng = Dbm_util.Prng.create 7 in
    for _ = 1 to txns do
      let t = E.begin_txn e in
      for _ = 1 to 10 do
        E.put t (Dbm_util.Prng.int rng 512) "recovery-workload-value"
      done;
      E.commit t
    done;
    if checkpointed then E.checkpoint e;
    (* every engine exports both counters: a missing one is a bug, not a 0 *)
    let counter key = List.assoc key (E.stats e) in
    let reads0 = counter "disk_reads" and writes0 = counter "disk_writes" in
    let t0 = Sys.time () in
    E.crash_and_recover e;
    let dt = (Sys.time () -. t0) *. 1000.0 in
    (dt, counter "disk_reads" - reads0, counter "disk_writes" - writes0)
  in
  let engines : (string * (module Dbm_storage.Kv.S)) list =
    [
      ("logging", (module Dbm_storage.Engine_log));
      ("logging-delta", (module Dbm_storage.Engine_log_delta));
      ("oplog", (module Dbm_storage.Engine_oplog));
      ("shadow", (module Dbm_storage.Engine_shadow));
      ("version-selection", (module Dbm_storage.Engine_versel));
      ("overwrite-no-undo", (module Dbm_storage.Engine_overwrite.No_undo));
      ("overwrite-no-redo", (module Dbm_storage.Engine_overwrite.No_redo));
      ("differential-file", (module Dbm_storage.Engine_diff));
    ]
  in
  let run () =
    Printf.printf
      "Restart-recovery cost after a crash, by committed workload size\n\
       (each transaction updates 10 of 512 keys; cpu ms / disk reads / disk writes):\n\n";
    Printf.printf "%-22s" "engine";
    List.iter (fun w -> Printf.printf "%22s" (Printf.sprintf "%d txns" w)) [ 10; 50; 200 ];
    Printf.printf "%22s\n" "200 txns + ckpt";
    List.iter
      (fun (name, e) ->
        Printf.printf "%-22s" name;
        List.iter
          (fun txns ->
            let ms, r, w = measure e ~txns ~checkpointed:false in
            Printf.printf "%22s" (Printf.sprintf "%.1fms %dr %dw" ms r w))
          [ 10; 50; 200 ];
        let ms, r, w = measure e ~txns:200 ~checkpointed:true in
        Printf.printf "%22s\n" (Printf.sprintf "%.1fms %dr %dw" ms r w))
      engines;
    print_newline ();
    print_endline
      "Shape to expect: logging's recovery work grows with the retained log and\n\
       collapses after a checkpoint; the shadow family and differential files do\n\
       (almost) nothing at restart — they pay during normal processing instead,\n\
       which is exactly the trade-off the paper's Section 3 lays out."
  in
  Cmd.v
    (Cmd.info "recovery-time"
       ~doc:
         "Measure restart-recovery cost for every functional storage engine (an \
          extension experiment beyond the paper).")
    Term.(const run $ const ())

(* -- storage-bench command ------------------------------------------ *)

(* The storage-half suite (Storage_bench), every section at the
   requested sweep.  Prints the same report bench/main does and exits 1
   when a check row fails.  Floor rows are claims about the default
   sweep or wall-clock ratios, so only bench/main gates them. *)
let storage_bench_cmd =
  let open Cmdliner in
  let scale_arg =
    Arg.(
      value & opt positive_int 1
      & info [ "scale" ] ~docv:"N" ~doc:"Workload multiplier (1 = the CI smoke size).")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (list positive_int) [ 1; 2; 4 ]
      & info [ "jobs"; "j" ] ~docv:"N,..."
          ~doc:
            "Worker-domain counts for the parallel-recovery curve (a jobs=1 serial \
             baseline is always included).")
  in
  let oversubscribe_arg =
    Arg.(
      value & flag
      & info [ "allow-oversubscribe" ]
          ~doc:"Measure requested job counts beyond the host's cores instead of skipping them.")
  in
  let read_fracs_arg =
    Arg.(
      value
      & opt (non_empty_list fraction) Dbm_storage.Storage_bench.default_read_fracs
      & info [ "read-frac" ] ~docv:"F,..."
          ~doc:
            "Read fractions (each in [0,1]) for the MVCC snapshot sweep; at each one the \
             same Zipfian workload runs under exclusive-lock reads, S/X shared reads and \
             the lock-free snapshot read-only class.  A Pareto-size heavy-tail point at \
             read fraction 0.9 is always appended.")
  in
  let shard_counts_arg =
    Arg.(
      value
      & opt (non_empty_list positive_int) Dbm_storage.Storage_bench.default_shard_counts
      & info [ "shard-counts" ] ~docv:"N,..."
          ~doc:
            "Shard counts for the sharded-execution sweep (a 1-shard serial baseline is \
             always included; the workload is generated against the largest count so \
             every smaller count serves the identical transactions).")
  in
  let cross_fracs_arg =
    Arg.(
      value
      & opt (list fraction) Dbm_storage.Storage_bench.default_cross_fracs
      & info [ "cross-fracs" ] ~docv:"F,..."
          ~doc:
            "Cross-shard transaction fractions (each in [0,1]) for the two-phase-commit \
             sweep at the largest shard count.")
  in
  let run scale jobs allow_oversubscribe read_fracs shard_counts cross_fracs =
    let b =
      Dbm_storage.Storage_bench.run ~scale ~jobs ~allow_oversubscribe ~read_fracs ~shard_counts
        ~cross_fracs ~now:Unix.gettimeofday ()
    in
    Dbm_storage.Storage_bench.print b;
    let failed_checks =
      List.filter_map
        (function Dbm_storage.Storage_bench.Check, m -> Some m | Floor, _ -> None)
        (Dbm_storage.Storage_bench.failed b)
    in
    List.iter (fun m -> prerr_endline ("FAIL: " ^ m)) failed_checks;
    if failed_checks <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "storage-bench"
       ~doc:
         "Benchmark the storage half: per-engine transaction throughput under the 2PL \
          scheduler, scheduler and lock-manager hot paths against their pre-overhaul \
          versions, recovery wall time vs log length, vs worker-domain count and vs \
          fuzzy-checkpoint age, the physical-vs-delta-vs-oplog log-format head-to-head, \
          the open-loop server sweep, the MVCC snapshot-read sweep ($(b,--read-frac)) \
          and the sharded-execution sweep ($(b,--shard-counts) / $(b,--cross-fracs)).  \
          The server and snapshot-read sweeps run on one engine each (logging and \
          differential-file): in simulated time their figures are the same on every \
          engine.")
    Term.(
      const run $ scale_arg $ jobs_arg $ oversubscribe_arg $ read_fracs_arg $ shard_counts_arg
      $ cross_fracs_arg)

(* -- serve-bench command -------------------------------------------- *)

(* The open-loop transaction server, interactively: offered-load sweep
   through the group-commit pipeline (or per-txn sync under --eager),
   printing sustained throughput and the latency tail at each load.
   Entirely simulated time — the numbers depend on the cost knobs and
   the seed, never on the host.  The simulated costs are fixed per turn
   and per force, so no engine changes a figure: it serves the logging
   engine, which has both snapshot reads and a durable prepare vote.
   The workload and its arrivals are storage-bench's server and shard
   sections'. *)
let serve_bench_cmd =
  let open Cmdliner in
  let module S = Dbm_storage in
  let module E = S.Engine_log in
  let loads_arg =
    Arg.(
      value
      & opt (list positive_float) [ 2_000.0; 10_000.0; 40_000.0; 160_000.0; 400_000.0 ]
      & info [ "load" ] ~docv:"TPS,..."
          ~doc:"Offered arrival rates (transactions per second) to sweep, in order.")
  in
  let batch_arg =
    Arg.(
      value & opt positive_int 32
      & info [ "batch" ] ~docv:"N"
          ~doc:"Group-commit batch size: force the log once every $(docv) commits.")
  in
  let timeout_arg =
    Arg.(
      value & opt positive_float 1000.0
      & info [ "timeout-us" ] ~docv:"US"
          ~doc:
            "Group-commit timeout: a pending batch is forced at most $(docv) simulated \
             microseconds after its first commit, full or not.")
  in
  let mpl_arg =
    Arg.(
      value & opt positive_int 64
      & info [ "mpl" ] ~docv:"N"
          ~doc:"Multiprogramming limit: admission control holds arrivals beyond $(docv) \
                in-flight transactions in a FIFO queue.")
  in
  let txns_arg =
    Arg.(
      value & opt positive_int 800
      & info [ "n"; "transactions" ] ~docv:"N" ~doc:"Transactions per load point.")
  in
  let seed_arg =
    Arg.(value & opt int 20_250 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload/arrival seed.")
  in
  let arrival_arg =
    Arg.(
      value
      & opt (enum [ ("poisson", `Poisson); ("bursty", `Bursty) ]) `Poisson
      & info [ "arrival" ] ~docv:"PROCESS"
          ~doc:
            "Arrival process: poisson | bursty (on/off phases of 10 ms mean at double \
             rate / silence, same long-run offered load).")
  in
  let eager_arg =
    Arg.(
      value & flag
      & info [ "eager" ]
          ~doc:"Sync the log on every commit instead of group-committing (the baseline \
                the group-commit pipeline is measured against).")
  in
  let op_cost_arg =
    Arg.(
      value & opt non_negative_float 1.0
      & info [ "op-cost-us" ] ~docv:"US" ~doc:"Simulated cost of one scheduler turn.")
  in
  let sync_cost_arg =
    Arg.(
      value & opt non_negative_float 100.0
      & info [ "sync-cost-us" ] ~docv:"US" ~doc:"Simulated cost of one log force.")
  in
  let read_frac_arg =
    Arg.(
      value & opt fraction 0.0
      & info [ "read-frac" ] ~docv:"F"
          ~doc:
            "Make each transaction read-only (its whole write set cleared) with \
             probability $(docv) in [0,1].")
  in
  let snapshot_arg =
    Arg.(
      value & flag
      & info [ "snapshot" ]
          ~doc:
            "Run read-only transactions lock-free over pinned MVCC snapshots instead of \
             the locked path; they bypass the commit pipeline and can never restart.  \
             Not supported with $(b,--shards) > 1.")
  in
  let shards_arg =
    Arg.(
      value & opt positive_int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Partition the key space page-wise across $(docv) engine shards, each \
             served by its own domain; transactions spanning shards commit by \
             two-phase commit through a coordinator decision log.")
  in
  let cross_frac_arg =
    Arg.(
      value & opt fraction 0.0
      & info [ "cross-frac" ] ~docv:"F"
          ~doc:
            "Re-home workload pages so a $(docv) fraction of transactions in [0,1] \
             spans two shards and the rest stay confined to one.  Only meaningful \
             with $(b,--shards) > 1.")
  in
  let run loads batch timeout_us mpl txns seed arrival eager op_cost sync_cost read_frac
      use_snapshot shards cross_frac =
    let usage msg =
      prerr_endline ("serve-bench: " ^ msg);
      exit 2
    in
    if cross_frac > 0.0 && shards = 1 then usage "--cross-frac needs --shards > 1";
    if shards > 1 && use_snapshot then usage "--snapshot is not supported with --shards > 1";
    let module Hist = Dbm_util.Stats.Histogram in
    let cross = if shards > 1 then Some (cross_frac, shards) else None in
    let scripts, read_only =
      S.Storage_bench.random_access_workload ~read_frac ?cross ~n:txns ~seed ()
    in
    let n_ro = Array.fold_left (fun a ro -> if ro then a + 1 else a) 0 read_only in
    let arrivals rate =
      let process =
        match arrival with
        | `Poisson -> Dbm_workload.Workload.Poisson { rate }
        | `Bursty ->
          Dbm_workload.Workload.Bursty
            { on_rate = 2.0 *. rate; off_rate = 0.0; mean_on = 0.01; mean_off = 0.01 }
      in
      S.Storage_bench.arrivals_us ~seed:(seed + int_of_float rate) process ~n:txns
    in
    let mode =
      if eager then S.Commit_pipeline.Eager else S.Commit_pipeline.Grouped { batch; timeout_us }
    in
    Printf.printf
      "%s server: engine %s, %s%s commits%s, mpl %d%s, %d txns/point%s, %s arrivals\n\
       (simulated time: %.1f us/turn, %.1f us/force)\n\n"
      (if shards > 1 then "sharded" else "open-loop")
      E.engine_name
      (if shards > 1 then Printf.sprintf "%d shards, cross fraction %.2f, " shards cross_frac
       else "")
      (if eager then "eager" else "grouped")
      (if eager then "" else Printf.sprintf " (batch %d, timeout %.0f us)" batch timeout_us)
      mpl
      (if shards > 1 then " per shard" else "")
      txns
      (if read_frac > 0.0 then
         Printf.sprintf " (%d read-only%s)" n_ro
           (if use_snapshot then ", lock-free snapshot reads" else "")
       else "")
      (match arrival with `Poisson -> "poisson" | `Bursty -> "bursty")
      op_cost sync_cost;
    if shards > 1 then begin
      (* one domain per shard, cross-shard commits through the 2PC
         coordinator *)
      let module Shd = S.Shard.Make (E) in
      Printf.printf "%12s %12s %10s %10s %12s %8s %8s %8s\n" "offered/s" "sustained/s" "p50 us"
        "p99 us" "cross p99" "forces" "restarts" "cross";
      List.iter
        (fun rate ->
          let engines = Array.init shards (fun _ -> E.create ~n_keys:4096 ()) in
          let coordinator = S.Coordinator_log.create () in
          let r =
            Shd.run ~mpl ~op_cost_us:op_cost ~sync_cost_us:sync_cost ~mode
              ~arrivals_us:(arrivals rate) ~scripts ~coordinator engines
          in
          let h = r.S.Shard.latency_us and xh = r.S.Shard.cross_latency_us in
          Printf.printf "%12.0f %12.0f %10.1f %10.1f %12.1f %8d %8d %8d%s\n" rate
            r.S.Shard.sustained_tps (Hist.p50 h) (Hist.p99 h)
            (if Hist.count xh = 0 then 0.0 else Hist.p99 xh)
            r.S.Shard.forces r.S.Shard.restarts r.S.Shard.cross_committed
            (if r.S.Shard.oversubscribed then "  (oversubscribed)" else ""))
        loads
    end
    else begin
      let module Srv = S.Server.Make (E) in
      Printf.printf "%12s %12s %10s %10s %10s %10s %8s %8s %8s\n" "offered/s" "sustained/s"
        "p50 us" "p99 us" "p999 us" "max us" "forces" "restarts" "queue";
      List.iter
        (fun rate ->
          let e = E.create ~n_keys:4096 () in
          let snapshot =
            if use_snapshot then Some (S.Scheduler.snapshot_view (module E) e) else None
          in
          let r =
            Srv.run ?snapshot ~read_only ~mpl ~op_cost_us:op_cost ~sync_cost_us:sync_cost ~mode
              ~arrivals_us:(arrivals rate) ~scripts e
          in
          let h = r.S.Server.latency_us in
          Printf.printf "%12.0f %12.0f %10.1f %10.1f %10.1f %10.1f %8d %8d %8d\n" rate
            r.S.Server.sustained_tps (Hist.p50 h) (Hist.p99 h) (Hist.p999 h) (Hist.max h)
            r.S.Server.forces r.S.Server.restarts r.S.Server.max_queued)
        loads
    end
  in
  Cmd.v
    (Cmd.info "serve-bench"
       ~doc:
         "Drive the open-loop transaction server on the logging engine (the simulated \
          costs are the same for every engine): Poisson or bursty arrivals at each \
          $(b,--load), admission control at $(b,--mpl), commits batched by the \
          group-commit pipeline ($(b,--batch) / $(b,--timeout-us)) or synced per \
          transaction under $(b,--eager); a $(b,--read-frac) share of \
          transactions runs read-only, lock-free over pinned MVCC snapshots under \
          $(b,--snapshot); $(b,--shards) partitions the key space across domain-parallel \
          engine shards with two-phase commit for the $(b,--cross-frac) share of \
          transactions that spans two of them; prints sustained throughput and the \
          arrival-to-durable-ack latency tail per load point.")
    Term.(
      const run $ loads_arg $ batch_arg $ timeout_arg $ mpl_arg $ txns_arg $ seed_arg
      $ arrival_arg $ eager_arg $ op_cost_arg $ sync_cost_arg $ read_frac_arg $ snapshot_arg
      $ shards_arg $ cross_frac_arg)

(* -- version-select command ---------------------------------------- *)

let version_select_cmd =
  let run () =
    let a = Dbm_recovery.Version_select.analyze Dbm_disk.Params.ibm_3350 in
    Printf.printf
      "plain read: %.2f ms\nversioned read: %.2f ms\npenalty: %.2fx\nspace: %.1fx\n%s\n"
      a.Dbm_recovery.Version_select.plain_read_ms a.Dbm_recovery.Version_select.versioned_read_ms
      a.Dbm_recovery.Version_select.read_penalty a.Dbm_recovery.Version_select.space_overhead
      (Dbm_recovery.Version_select.verdict a)
  in
  Cmd.v
    (Cmd.info "version-select"
       ~doc:"Print the Section 4.2.5 analysis of the version-selection architecture.")
    Term.(const run $ const ())

let () =
  let doc =
    "Recovery architectures for multiprocessor database machines (Agrawal & DeWitt 1985)"
  in
  let info = Cmd.info "dbmsim" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info
       [ table_cmd; run_cmd; workload_cmd; ablation_cmd; extension_cmd; export_cmd;
         validate_cmd; recovery_time_cmd; storage_bench_cmd; serve_bench_cmd;
         version_select_cmd ]))
