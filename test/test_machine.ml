(* Tests for the database machine: lock table, configuration,
   end-to-end bare-machine simulation invariants. *)

module Config = Dbm_machine.Config
module Lock = Dbm_machine.Lock_table
module Machine = Dbm_machine.Machine
module Arch = Dbm_machine.Arch
module Results = Dbm_machine.Results
module W = Dbm_workload.Workload

let check = Alcotest.check

(* --- Lock_table ------------------------------------------------------- *)

let test_shared_compatible () =
  let t = Lock.create () in
  check Alcotest.bool "t1 S" true (Lock.acquire_all t ~owner:1 ~locks:[ (5, Lock.Shared) ]);
  check Alcotest.bool "t2 S" true (Lock.acquire_all t ~owner:2 ~locks:[ (5, Lock.Shared) ])

let test_exclusive_conflicts () =
  let t = Lock.create () in
  check Alcotest.bool "t1 X" true (Lock.acquire_all t ~owner:1 ~locks:[ (5, Lock.Exclusive) ]);
  check Alcotest.bool "t2 S blocked" false (Lock.acquire_all t ~owner:2 ~locks:[ (5, Lock.Shared) ]);
  check Alcotest.bool "t2 X blocked" false
    (Lock.acquire_all t ~owner:2 ~locks:[ (5, Lock.Exclusive) ])

let test_all_or_nothing () =
  let t = Lock.create () in
  ignore (Lock.acquire_all t ~owner:1 ~locks:[ (7, Lock.Exclusive) ]);
  (* t2 wants pages 6 and 7: must get neither *)
  check Alcotest.bool "refused" false
    (Lock.acquire_all t ~owner:2 ~locks:[ (6, Lock.Shared); (7, Lock.Shared) ]);
  check (Alcotest.option Alcotest.bool) "page 6 untouched" None
    (Option.map (fun _ -> true) (Lock.holds t ~owner:2 ~page:6))

let test_release_unblocks () =
  let t = Lock.create () in
  ignore (Lock.acquire_all t ~owner:1 ~locks:[ (5, Lock.Exclusive) ]);
  Lock.release_all t ~owner:1;
  check Alcotest.bool "free after release" true
    (Lock.acquire_all t ~owner:2 ~locks:[ (5, Lock.Exclusive) ]);
  check Alcotest.int "one page locked" 1 (Lock.locked_pages t)

let test_duplicate_upgrade () =
  let t = Lock.create () in
  check Alcotest.bool "dup request" true
    (Lock.acquire_all t ~owner:1 ~locks:[ (5, Lock.Shared); (5, Lock.Exclusive) ]);
  check Alcotest.bool "holds X" true (Lock.holds t ~owner:1 ~page:5 = Some Lock.Exclusive)

let test_own_locks_never_conflict () =
  let t = Lock.create () in
  ignore (Lock.acquire_all t ~owner:1 ~locks:[ (5, Lock.Exclusive) ]);
  check Alcotest.bool "re-acquire own" true
    (Lock.acquire_all t ~owner:1 ~locks:[ (5, Lock.Shared); (6, Lock.Shared) ])

(* --- Config ------------------------------------------------------------ *)

let test_locate_striping () =
  let cfg = { Config.paper_base with Config.db_pages = 65536 } in
  let per_cyl = Dbm_disk.Params.pages_per_cylinder cfg.Config.disk in
  (* consecutive pages within a chunk stay on one disk *)
  let d0, l0 = Config.locate cfg ~page:0 in
  let d1, l1 = Config.locate cfg ~page:1 in
  check Alcotest.int "same disk" d0 d1;
  check Alcotest.int "adjacent" (l0 + 1) l1;
  (* the next chunk goes to the other disk *)
  let d2, _ = Config.locate cfg ~page:per_cyl in
  check Alcotest.bool "alternating chunks" true (d2 <> d0)

let test_locate_covers_all_pages () =
  let cfg = { Config.paper_base with Config.db_pages = 65536 } in
  let zone = Config.data_zone_pages cfg in
  for page = 0 to cfg.Config.db_pages - 1 do
    let d, local = Config.locate cfg ~page in
    if d < 0 || d >= cfg.Config.n_data_disks then Alcotest.failf "bad disk %d" d;
    if local < 0 || local >= zone then Alcotest.failf "local %d outside data zone %d" local zone
  done

let test_locate_scrambled_bijective () =
  let cfg = Config.with_scramble 11 { Config.paper_base with Config.db_pages = 4096 } in
  let seen = Hashtbl.create 4096 in
  for page = 0 to cfg.Config.db_pages - 1 do
    let key = Config.locate cfg ~page in
    if Hashtbl.mem seen key then Alcotest.failf "collision at page %d" page;
    Hashtbl.replace seen key ()
  done

let test_validate_rejects () =
  let bad cfg = match Config.validate cfg with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.fail "invalid config accepted"
  in
  bad { Config.paper_base with Config.n_query_processors = 0 };
  bad { Config.paper_base with Config.mpl = 0 };
  bad { Config.paper_base with Config.db_pages = 10_000_000 }

(* --- Machine (bare) ----------------------------------------------------- *)

let small_machine = { Config.paper_base with Config.db_pages = 16384 }

let small_workload ?(pattern = W.Random_access) ?(n = 12) () =
  { W.default with W.n_transactions = n; pattern; db_pages = 16384; max_pages = 60; seed = 3 }

let run_bare ?pattern ?n () =
  Machine.run ~config:small_machine
    ~make_arch:(fun _ -> Arch.bare)
    ~workload:(W.generate (small_workload ?pattern ?n ()))

let test_all_pages_processed () =
  let txns = W.generate (small_workload ()) in
  let r = Machine.run ~config:small_machine ~make_arch:(fun _ -> Arch.bare) ~workload:txns in
  check Alcotest.int "pages processed = total read set" (W.total_pages txns)
    r.Results.pages_processed;
  check Alcotest.int "all transactions" (Array.length txns) r.Results.n_transactions

let test_exec_time_consistent () =
  let r = run_bare () in
  check (Alcotest.float 1e-9) "exec/page = makespan / pages"
    (r.Results.makespan_ms /. float_of_int r.Results.pages_processed)
    r.Results.exec_ms_per_page

let test_determinism () =
  let a = run_bare () and b = run_bare () in
  check (Alcotest.float 1e-9) "same makespan" a.Results.makespan_ms b.Results.makespan_ms;
  check (Alcotest.float 1e-9) "same completion" a.Results.mean_completion_ms
    b.Results.mean_completion_ms

let test_utilizations_bounded () =
  let r = run_bare () in
  List.iter
    (fun (d : Results.disk_report) ->
      if d.Results.utilization < 0.0 || d.Results.utilization > 1.0 then
        Alcotest.failf "disk utilization %f out of range" d.Results.utilization)
    r.Results.data_disks;
  check Alcotest.bool "qp util bounded" true
    (r.Results.qp_utilization >= 0.0 && r.Results.qp_utilization <= 1.0)

let test_completion_bounds () =
  let r = run_bare () in
  check Alcotest.bool "mean <= max" true
    (r.Results.mean_completion_ms <= r.Results.max_completion_ms +. 1e-9);
  check Alcotest.bool "max <= makespan" true
    (r.Results.max_completion_ms <= r.Results.makespan_ms +. 1e-9)

let test_sequential_faster_than_random () =
  let rnd = run_bare ~pattern:W.Random_access () in
  let seq = run_bare ~pattern:W.Sequential () in
  check Alcotest.bool "sequential cheaper per page" true
    (seq.Results.exec_ms_per_page < rnd.Results.exec_ms_per_page)

let test_parallel_disks_help_sequential () =
  let txns = W.generate (small_workload ~pattern:W.Sequential ()) in
  let conv = Machine.run ~config:small_machine ~make_arch:(fun _ -> Arch.bare) ~workload:txns in
  let par =
    Machine.run
      ~config:(Config.with_parallel_disks small_machine)
      ~make_arch:(fun _ -> Arch.bare)
      ~workload:txns
  in
  check Alcotest.bool "parallel-access much faster" true
    (par.Results.exec_ms_per_page *. 2.0 < conv.Results.exec_ms_per_page)

let test_bare_no_blocked_frames () =
  let r = run_bare () in
  check (Alcotest.float 1e-9) "no WAL blocking on the bare machine" 0.0
    r.Results.mean_frames_blocked_on_log

let test_writes_hit_disk () =
  let txns = W.generate (small_workload ()) in
  let r = Machine.run ~config:small_machine ~make_arch:(fun _ -> Arch.bare) ~workload:txns in
  (* every read + every write is at least one page transfer *)
  let total = W.total_pages txns + W.total_writes txns in
  let moved =
    List.fold_left (fun acc (d : Results.disk_report) -> acc + d.Results.pages) 0
      r.Results.data_disks
  in
  check Alcotest.int "reads + writes transferred" total moved

let test_empty_workload () =
  let r = Machine.run ~config:small_machine ~make_arch:(fun _ -> Arch.bare) ~workload:[||] in
  check Alcotest.int "nothing processed" 0 r.Results.pages_processed;
  check (Alcotest.float 1e-9) "zero makespan" 0.0 r.Results.makespan_ms

let test_effective_mpl_bounded () =
  let r = run_bare () in
  check Alcotest.bool "effective MPL within configured" true
    (r.Results.mean_active_txns > 0.0
    && r.Results.mean_active_txns <= float_of_int small_machine.Config.mpl +. 1e-9)

let test_completions_list () =
  let txns = W.generate (small_workload ()) in
  let r = Machine.run ~config:small_machine ~make_arch:(fun _ -> Arch.bare) ~workload:txns in
  check Alcotest.int "one completion per txn" (Array.length txns)
    (List.length r.Results.completions);
  let ids = List.sort Int.compare (List.map fst r.Results.completions) in
  check (Alcotest.list Alcotest.int) "every txn id present"
    (List.init (Array.length txns) (fun i -> i))
    ids;
  List.iter
    (fun (_, c) -> if c < 0.0 then Alcotest.fail "negative completion time")
    r.Results.completions

let test_hotspot_reduces_effective_mpl () =
  let uniform = run_bare () in
  let skewed =
    Machine.run ~config:small_machine
      ~make_arch:(fun _ -> Arch.bare)
      ~workload:
        (W.generate
           {
             (small_workload ()) with
             W.pattern = W.Hotspot { hot_fraction = 0.02; hot_access_prob = 0.9 };
             max_pages = 60;
           })
  in
  check Alcotest.bool "contention lowers concurrency" true
    (skewed.Results.mean_active_txns < uniform.Results.mean_active_txns)

let test_mpl_one_serializes () =
  let txns = W.generate (small_workload ~n:4 ()) in
  let r =
    Machine.run
      ~config:{ small_machine with Config.mpl = 1 }
      ~make_arch:(fun _ -> Arch.bare)
      ~workload:txns
  in
  (* with MPL 1, the sum of completions cannot exceed the makespan *)
  check Alcotest.bool "serial execution" true
    (r.Results.mean_completion_ms *. float_of_int r.Results.n_transactions
    <= r.Results.makespan_ms +. 1.0)

(* --- arena recycling ---------------------------------------------------- *)

(* Consecutive runs through one recycled domain arena must be
   byte-identical (marshalled results) to runs on fresh state: the
   recycled engine records, resource rings and lock/arrival scratch may
   carry capacity from earlier runs, but never behaviour. *)
let test_arena_recycling_byte_identical () =
  let marshal (r : Results.t) = Marshal.to_string r [] in
  (* A mixed sequence, so the second run inherits storage sized by a
     differently-shaped first run. *)
  let runs =
    [
      (fun () -> run_bare ());
      (fun () -> run_bare ~pattern:W.Sequential ~n:5 ());
      (fun () -> run_bare ());
    ]
  in
  (* A newly spawned domain starts with a fresh arena and scratch, so
     each reference run gets a domain of its own; one domain for the
     whole sequence would recycle state between its runs. *)
  let fresh = List.map (fun run -> marshal (Domain.join (Domain.spawn run))) runs in
  let sequence () = List.map (fun run -> marshal (run ())) runs in
  let recycled = sequence () in
  let recycled_again = sequence () in
  List.iteri
    (fun i (f, r) ->
      check Alcotest.string (Printf.sprintf "arena run %d = fresh run %d" i i) f r)
    (List.combine fresh recycled);
  List.iteri
    (fun i (f, r) -> check Alcotest.string (Printf.sprintf "second arena pass, run %d" i) f r)
    (List.combine fresh recycled_again)

(* --- metamorphic properties (tiny workloads, many configs) ------------- *)

let tiny_workload seed =
  W.generate
    { W.default with W.n_transactions = 6; db_pages = 16384; max_pages = 30; seed }

let prop_more_disks_never_slower =
  QCheck.Test.make ~name:"more data disks never hurt throughput" ~count:10
    QCheck.(int_range 1 1000)
    (fun seed ->
      let run n_data_disks =
        Machine.run
          ~config:{ small_machine with Config.n_data_disks }
          ~make_arch:(fun _ -> Arch.bare)
          ~workload:(tiny_workload seed)
      in
      let two = run 2 and four = run 4 in
      four.Results.exec_ms_per_page <= two.Results.exec_ms_per_page *. 1.02)

let prop_faster_cpu_never_slower =
  QCheck.Test.make ~name:"faster query processors never hurt" ~count:10
    QCheck.(int_range 1 1000)
    (fun seed ->
      let run cpu_ms_per_page =
        Machine.run
          ~config:{ small_machine with Config.cpu_ms_per_page }
          ~make_arch:(fun _ -> Arch.bare)
          ~workload:(tiny_workload seed)
      in
      (run 10.0).Results.exec_ms_per_page
      <= (run 80.0).Results.exec_ms_per_page *. 1.02)

let prop_seed_independent_conservation =
  QCheck.Test.make ~name:"pages processed equals the read set for any seed" ~count:15
    QCheck.(int_range 1 1000)
    (fun seed ->
      let txns = tiny_workload seed in
      let r = Machine.run ~config:small_machine ~make_arch:(fun _ -> Arch.bare) ~workload:txns in
      r.Results.pages_processed = W.total_pages txns)

let prop_poisson_arrivals_complete =
  QCheck.Test.make ~name:"open-system runs complete for any interarrival mean" ~count:10
    QCheck.(pair (int_range 1 1000) (float_range 50.0 5000.0))
    (fun (seed, mean) ->
      let r =
        Machine.run
          ~config:{ small_machine with Config.arrivals = Config.Poisson mean }
          ~make_arch:(fun _ -> Arch.bare)
          ~workload:(tiny_workload seed)
      in
      r.Results.n_transactions = 6 && List.length r.Results.completions = 6)

let metamorphic =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_more_disks_never_slower; prop_faster_cpu_never_slower;
      prop_seed_independent_conservation; prop_poisson_arrivals_complete;
    ]

let () =
  Alcotest.run "dbm_machine"
    [
      ( "lock_table",
        [
          Alcotest.test_case "shared compatible" `Quick test_shared_compatible;
          Alcotest.test_case "exclusive conflicts" `Quick test_exclusive_conflicts;
          Alcotest.test_case "all or nothing" `Quick test_all_or_nothing;
          Alcotest.test_case "release unblocks" `Quick test_release_unblocks;
          Alcotest.test_case "duplicate upgrade" `Quick test_duplicate_upgrade;
          Alcotest.test_case "own locks never conflict" `Quick test_own_locks_never_conflict;
        ] );
      ( "config",
        [
          Alcotest.test_case "striping" `Quick test_locate_striping;
          Alcotest.test_case "locate covers db" `Quick test_locate_covers_all_pages;
          Alcotest.test_case "scrambled locate bijective" `Quick test_locate_scrambled_bijective;
          Alcotest.test_case "validation" `Quick test_validate_rejects;
        ] );
      ( "machine",
        [
          Alcotest.test_case "all pages processed" `Quick test_all_pages_processed;
          Alcotest.test_case "exec time consistent" `Quick test_exec_time_consistent;
          Alcotest.test_case "deterministic" `Quick test_determinism;
          Alcotest.test_case "utilizations bounded" `Quick test_utilizations_bounded;
          Alcotest.test_case "completion bounds" `Quick test_completion_bounds;
          Alcotest.test_case "sequential < random" `Quick test_sequential_faster_than_random;
          Alcotest.test_case "parallel disks help sequential" `Quick
            test_parallel_disks_help_sequential;
          Alcotest.test_case "bare has no WAL blocking" `Quick test_bare_no_blocked_frames;
          Alcotest.test_case "writes hit disk" `Quick test_writes_hit_disk;
          Alcotest.test_case "empty workload" `Quick test_empty_workload;
          Alcotest.test_case "mpl=1 serializes" `Quick test_mpl_one_serializes;
          Alcotest.test_case "effective MPL bounded" `Quick test_effective_mpl_bounded;
          Alcotest.test_case "completions list" `Quick test_completions_list;
          Alcotest.test_case "hotspot reduces effective MPL" `Quick
            test_hotspot_reduces_effective_mpl;
          Alcotest.test_case "arena recycling byte-identical" `Quick
            test_arena_recycling_byte_identical;
        ] );
      ("metamorphic", metamorphic);
    ]
