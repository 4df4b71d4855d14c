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

(* The storage-half suite (Storage_bench), every section on its one
   fixed sweep.  Prints the same report bench/main does and exits 1
   when a check row fails.  Floor rows are thresholds that depend on
   the host (wall-clock ratios, shard scaling), so only bench/main
   gates them. *)
let storage_bench_cmd =
  let scale_arg =
    Arg.(
      value & opt positive_int 1
      & info [ "scale" ] ~docv:"N" ~doc:"Workload multiplier (1 = the CI smoke size).")
  in
  let oversubscribe_arg =
    Arg.(
      value & flag
      & info [ "allow-oversubscribe" ]
          ~doc:
            "Measure the recovery curve's 2- and 4-domain points even where they exceed \
             the host's cores, instead of skipping them.")
  in
  let run scale allow_oversubscribe =
    let b = Dbm_storage.Storage_bench.run ~scale ~allow_oversubscribe ~now:Unix.gettimeofday () in
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
          the open-loop server sweep, the MVCC snapshot-read sweep and the \
          sharded-execution sweep.  The server and snapshot-read sweeps run on one engine \
          each (logging and differential-file): in simulated time their figures are the \
          same on every engine.")
    Term.(const run $ scale_arg $ oversubscribe_arg)

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
         validate_cmd; recovery_time_cmd; storage_bench_cmd; version_select_cmd ]))
