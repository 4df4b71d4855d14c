(* Tests for the open-loop server stack: the commit pipeline, the
   admission front end, group-commit equivalence on both recovery
   engines, commit forcing over every log disk, and the server loop's
   livelock guard. *)

module Kv = Dbm_storage.Kv
module Scheduler = Dbm_storage.Scheduler
module Server = Dbm_storage.Server
module Commit_pipeline = Dbm_storage.Commit_pipeline
module Engine_log = Dbm_storage.Engine_log
module Engine_log_delta = Dbm_storage.Engine_log_delta
module Engine_diff = Dbm_storage.Engine_diff
module Engine_oplog = Dbm_storage.Engine_oplog
module Engine_versel = Dbm_storage.Engine_versel
module Storage_bench = Dbm_storage.Storage_bench

let check = Alcotest.check

(* --- grouped-vs-eager equivalence property ------------------------ *)

(* Random programs of group-committed transactions, forces and crashes.
   Every transaction commits through [commit_group]; a transaction
   survives iff a [force_commits] ran after it and before the next
   crash.  The reference engine eagerly commits exactly the surviving
   transactions: after a final force and crash on both sides the state
   fingerprints must be identical — group commit changes {e when}
   durability happens, never {e what} is durable.  Because recovery
   re-seeds the LSN and txn counters from the durable log, the
   surviving records on the grouped side are LSN/id-continuous exactly
   like the reference's, so even the counters agree. *)

type gev = T of int | F | X

let gev_gen =
  QCheck.Gen.(
    frequency [ (5, map (fun k -> T k) (int_range 0 15)); (2, return F); (2, return X) ])

let gev_print evs =
  String.concat ";"
    (List.map (function T k -> Printf.sprintf "T%d" k | F -> "F" | X -> "X") evs)

module Grouped_equiv (E : sig
  include Kv.S

  val commit_group : txn -> unit

  val force_commits : t -> unit

  val crash_and_recover : t -> unit

  val state_fingerprint : t -> string

  val create_fresh : unit -> t
end) =
struct
  let run_program evs =
    let g = E.create_fresh () in
    let durable = ref [] and volatile = ref [] in
    List.iteri
      (fun i ev ->
        match ev with
        | T k ->
          let t = E.begin_txn g in
          E.put t k (Printf.sprintf "v%d" i);
          E.commit_group t;
          volatile := (k, Printf.sprintf "v%d" i) :: !volatile
        | F ->
          E.force_commits g;
          durable := !volatile @ !durable;
          volatile := []
        | X ->
          E.crash_and_recover g;
          volatile := [])
      evs;
    E.force_commits g;
    durable := !volatile @ !durable;
    E.crash_and_recover g;
    let r = E.create_fresh () in
    List.iter
      (fun (k, v) ->
        let t = E.begin_txn r in
        E.put t k v;
        E.commit t)
      (List.rev !durable);
    E.crash_and_recover r;
    (E.state_fingerprint g, E.state_fingerprint r)

  let prop name =
    QCheck.Test.make ~name ~count:150 ~long_factor:20
      (QCheck.make ~print:gev_print QCheck.Gen.(list_size (int_range 0 40) gev_gen))
      (fun evs ->
        let fp_grouped, fp_ref = run_program evs in
        fp_grouped = fp_ref)
end

module Equiv_log = Grouped_equiv (struct
  include Engine_log

  let create_fresh () = create_with ~n_keys:16 ~n_log_disks:3 ()
end)

module Equiv_diff = Grouped_equiv (struct
  include Engine_diff

  let create_fresh () = create ~n_keys:16 ()
end)

let prop_equiv_log = Equiv_log.prop "grouped = eager reference after crash (engine_log)"

let prop_equiv_diff = Equiv_diff.prop "diff: grouped = eager reference after crash"

(* --- commit forcing: every log disk, the decision's own last ------- *)

let log_syncs e = List.assoc "log_syncs" (Engine_log.stats e)

let test_commit_syncs_each_disk_once () =
  (* Cyclic selection on 4 disks puts the two updates on disks 0 and 1
     and the commit record on disk 2: an eager commit forces each of
     those three disks once.  Disk 3 holds nothing to force, so its
     sync is not counted. *)
  let e = Engine_log.create_with ~n_keys:32 ~n_log_disks:4 () in
  let before = log_syncs e in
  let t = Engine_log.begin_txn e in
  Engine_log.put t 0 "a";
  Engine_log.put t 5 "b";
  Engine_log.commit t;
  check Alcotest.int "one sync per disk with a record" 3 (log_syncs e - before);
  (* and it really is durable *)
  Engine_log.crash_and_recover e;
  let t = Engine_log.begin_txn e in
  check (Alcotest.option Alcotest.string) "durable" (Some "a") (Engine_log.get t 0);
  Engine_log.abort t

let test_oplog_forces_once () =
  (* One journal holds every record of an oplog transaction, so an
     eager commit and a prepare each force it exactly once. *)
  let e = Engine_oplog.create ~n_keys:32 () in
  let syncs () = List.assoc "log_syncs" (Engine_oplog.stats e) in
  let before = syncs () in
  let t = Engine_oplog.begin_txn e in
  Engine_oplog.put t 0 "a";
  Engine_oplog.put t 5 "b";
  Engine_oplog.commit t;
  check Alcotest.int "eager commit: one sync" 1 (syncs () - before);
  let before = syncs () in
  let t = Engine_oplog.begin_txn e in
  Engine_oplog.put t 1 "c";
  Engine_oplog.put t 9 "d";
  Engine_oplog.prepare t ~gid:1;
  check Alcotest.int "prepare: one sync" 1 (syncs () - before);
  Engine_oplog.commit_group t

let test_partial_force_closure () =
  (* Cyclic selection on 2 disks: txn A's update goes to disk 0 and its
     group commit record to disk 1.  An empty group commit then takes
     disk 0, so the empty eager commit after it lands on disk 1 and has
     no record on another disk.  Its force must still cover disk 0,
     otherwise A's commit record would be durable without A's update — a
     torn transaction after the crash. *)
  let e = Engine_log.create_with ~n_keys:32 ~n_log_disks:2 () in
  let a = Engine_log.begin_txn e in
  Engine_log.put a 4 "atomic" (* disk 0 *);
  Engine_log.commit_group a (* disk 1 *);
  Engine_log.commit_group (Engine_log.begin_txn e) (* disk 0 *);
  Engine_log.commit (Engine_log.begin_txn e) (* disk 1, after forcing disk 0 *);
  Engine_log.crash_and_recover e;
  let t = Engine_log.begin_txn e in
  check (Alcotest.option Alcotest.string) "group txn durable atomically" (Some "atomic")
    (Engine_log.get t 4);
  Engine_log.abort t

(* --- pipeline edges: exact-timeout boundary, batch of one ---------- *)

module Log_pipe = Commit_pipeline.Make (Engine_log)

(* [poll] forces exactly when the deadline has been {e reached}, not
   only once it is strictly past: a server that jumps its idle clock to
   [deadline] must flush on that very poll, or the batch waits for the
   next unrelated event. *)
let test_pipeline_exact_timeout_boundary () =
  let e = Engine_log.create_with ~n_keys:8 () in
  let acks = ref [] in
  let p =
    Log_pipe.create ~sync_cost_us:100.0
      ~on_ack:(fun ~id ~now -> acks := (id, now) :: !acks)
      (Commit_pipeline.Grouped { batch = 8; timeout_us = 50.0 })
      e
  in
  let t = Engine_log.begin_txn e in
  Engine_log.put t 0 "x";
  let now = Log_pipe.submit p ~now:10.0 ~id:0 t in
  check (Alcotest.float 0.0) "submit does not advance the clock" 10.0 now;
  check (Alcotest.option (Alcotest.float 0.0)) "deadline armed" (Some 60.0)
    (Log_pipe.deadline p);
  let now = Log_pipe.poll p ~now:59.999 in
  check (Alcotest.float 0.0) "just before the deadline: no force" 59.999 now;
  check Alcotest.int "still pending" 1 (Log_pipe.pending p);
  let now = Log_pipe.poll p ~now:60.0 in
  check (Alcotest.float 0.0) "at the deadline: forced, sync charged" 160.0 now;
  check Alcotest.int "drained" 0 (Log_pipe.pending p);
  check Alcotest.int "one force" 1 (Log_pipe.forces p);
  check (Alcotest.list (Alcotest.pair Alcotest.int (Alcotest.float 0.0)))
    "acked at the post-force instant" [ (0, 160.0) ] !acks;
  check (Alcotest.option (Alcotest.float 0.0)) "deadline disarmed" None (Log_pipe.deadline p)

(* Grouped with [batch = 1] degenerates to eager cadence — every submit
   forces inside the submit — while still driving the group-commit
   engine path ([commit_group] + [force_commits]). *)
let test_pipeline_batch_of_one () =
  let e = Engine_log.create_with ~n_keys:8 () in
  let p =
    Log_pipe.create ~sync_cost_us:100.0
      (Commit_pipeline.Grouped { batch = 1; timeout_us = 1000.0 })
      e
  in
  let now = ref 0.0 in
  for i = 0 to 2 do
    let t = Engine_log.begin_txn e in
    Engine_log.put t i (Printf.sprintf "b%d" i);
    now := Log_pipe.submit p ~now:!now ~id:i t;
    check (Alcotest.float 0.0)
      (Printf.sprintf "submit %d forced immediately" i)
      (float_of_int (i + 1) *. 100.0)
      !now;
    check Alcotest.int "nothing pending" 0 (Log_pipe.pending p);
    check (Alcotest.option (Alcotest.float 0.0)) "no deadline" None (Log_pipe.deadline p)
  done;
  check Alcotest.int "one force per submit" 3 (Log_pipe.forces p);
  check Alcotest.int "all acked" 3 (Log_pipe.acked p);
  (* durable without any flush: batch-1 leaves no window *)
  Engine_log.crash_and_recover e;
  let t = Engine_log.begin_txn e in
  for i = 0 to 2 do
    check (Alcotest.option Alcotest.string) "survived" (Some (Printf.sprintf "b%d" i))
      (Engine_log.get t i)
  done;
  Engine_log.abort t

(* --- the open-loop server ------------------------------------------ *)

module Log_server = Server.Make (Engine_log)
module Diff_server = Server.Make (Engine_diff)

let burst_scripts n = Array.init n (fun i -> [ Scheduler.Put (i mod 32, Printf.sprintf "s%d" i) ])

let grouped = Commit_pipeline.Grouped { batch = 4; timeout_us = 200.0 }

let test_backpressure_never_drops () =
  let n = 200 in
  let e = Engine_log.create_with ~n_keys:32 () in
  let r =
    Log_server.run ~mpl:8 ~mode:grouped ~arrivals_us:(Array.make n 0.0)
      ~scripts:(burst_scripts n) e
  in
  check Alcotest.int "every arrival acked" n r.Server.completed;
  check Alcotest.int "every latency recorded" n
    (Dbm_util.Stats.Histogram.count r.Server.latency_us);
  check Alcotest.bool "admission bound respected" true (r.Server.max_inflight <= 8);
  check Alcotest.bool "the burst queued" true (r.Server.max_queued >= n - 8);
  let p50 = Dbm_util.Stats.Histogram.p50 r.Server.latency_us in
  let p99 = Dbm_util.Stats.Histogram.p99 r.Server.latency_us in
  let p999 = Dbm_util.Stats.Histogram.p999 r.Server.latency_us in
  check Alcotest.bool "tail ordering" true
    (p50 <= p99 && p99 <= p999 && Float.is_finite p999 && p50 > 0.0)

let test_acked_means_durable () =
  let n = 64 in
  let e = Engine_log.create_with ~n_keys:64 () in
  let scripts = Array.init n (fun i -> [ Scheduler.Put (i, Printf.sprintf "d%d" i) ]) in
  let r = Log_server.run ~mpl:16 ~mode:grouped ~arrivals_us:(Array.make n 0.0) ~scripts e in
  check Alcotest.int "all acked" n r.Server.completed;
  Engine_log.crash_and_recover e;
  let t = Engine_log.begin_txn e in
  for i = 0 to n - 1 do
    check (Alcotest.option Alcotest.string)
      (Printf.sprintf "acked txn %d survived the crash" i)
      (Some (Printf.sprintf "d%d" i))
      (Engine_log.get t i)
  done;
  Engine_log.abort t

let test_grouped_beats_eager () =
  let n = 256 in
  let run mode =
    let e = Engine_log.create_with ~n_keys:32 () in
    Log_server.run ~mpl:32 ~op_cost_us:1.0 ~sync_cost_us:100.0 ~mode
      ~arrivals_us:(Array.make n 0.0) ~scripts:(burst_scripts n) e
  in
  let eager = run Commit_pipeline.Eager in
  let batched = run (Commit_pipeline.Grouped { batch = 32; timeout_us = 1000.0 }) in
  check Alcotest.bool "fewer forces" true (batched.Server.forces * 4 < eager.Server.forces);
  check Alcotest.bool "at least 2x sustained throughput" true
    (batched.Server.sustained_tps >= 2.0 *. eager.Server.sustained_tps)

let test_server_deterministic () =
  let n = 128 in
  let rng = Dbm_util.Prng.create 7 in
  let arrivals = Array.init n (fun i -> float_of_int i *. 40.0) in
  let scripts =
    Array.init n (fun _ ->
        [
          Scheduler.Put (Dbm_util.Prng.int_in rng ~lo:0 ~hi:31, "w");
          Scheduler.Get (Dbm_util.Prng.int_in rng ~lo:0 ~hi:31);
        ])
  in
  let run () =
    let e = Engine_log.create_with ~n_keys:32 () in
    Log_server.run ~mpl:8 ~mode:grouped ~arrivals_us:arrivals ~scripts e
  in
  let r1 = run () and r2 = run () in
  check (Alcotest.float 0.0) "same makespan" r1.Server.makespan_us r2.Server.makespan_us;
  check Alcotest.int "same forces" r1.Server.forces r2.Server.forces;
  check (Alcotest.float 0.0) "same p99"
    (Dbm_util.Stats.Histogram.p99 r1.Server.latency_us)
    (Dbm_util.Stats.Histogram.p99 r2.Server.latency_us)

(* Two fixed runs whose decisions are pinned.  [Naive] has no server
   twin, so these figures are the reference.  They were recorded with
   the lock manager that searched the waits-for graph on every blocked
   acquire and woke every parked script on every new waiter; any change
   to deadlock detection or wakeups must reproduce them exactly.
   (a) 4 keys per page over 3 pages: even transactions read a key and
   then write one on the same page (an S-to-X upgrade), odd ones write
   blindly.  An upgrade queued behind a blind writer that waits for the
   upgrader's S lock closes a cycle that only a later retry reports.
   (b) A snapshot read-mostly burst on the differential-file engine:
   one transaction in ten writes, and the writers block on two hot
   pages. *)
let test_server_decisions_pinned () =
  let pin name (r : Server.result) ~completed ~restarts ~forces ~makespan_us ~p99 =
    check Alcotest.int (name ^ " completed") completed r.Server.completed;
    check Alcotest.int (name ^ " restarts") restarts r.Server.restarts;
    check Alcotest.int (name ^ " forces") forces r.Server.forces;
    check (Alcotest.float 0.0) (name ^ " makespan") makespan_us r.Server.makespan_us;
    check (Alcotest.float 1e-6) (name ^ " latency p99") p99
      (Dbm_util.Stats.Histogram.p99 r.Server.latency_us)
  in
  let n = 120 in
  let rng = Dbm_util.Prng.create 11 in
  let scripts =
    Array.init n (fun i ->
        let page = Dbm_util.Prng.int rng 3 in
        let key () = (page * 4) + Dbm_util.Prng.int rng 4 in
        let k = key () in
        if i mod 2 = 0 then [ Scheduler.Get k; Scheduler.Put (key (), Printf.sprintf "u%d" i) ]
        else [ Scheduler.Put (k, Printf.sprintf "w%d" i) ])
  in
  let e = Engine_log.create_with ~n_keys:12 () in
  let r =
    Log_server.run ~mpl:8 ~mode:grouped
      ~arrivals_us:(Array.init n (fun i -> float_of_int (2 * i)))
      ~scripts e
  in
  pin "upgrades" r ~completed:120 ~restarts:22 ~forces:30 ~makespan_us:3340.0 ~p99:3104.62;
  let n = 200 in
  let rng = Dbm_util.Prng.create 3 in
  let read_only = Array.init n (fun i -> i mod 10 <> 0) in
  let hot () = Scheduler.Put (Dbm_util.Prng.int rng 2, "h") in
  let scripts =
    Array.init n (fun i ->
        if read_only.(i) then List.init 3 (fun _ -> Scheduler.Get (Dbm_util.Prng.int rng 16))
        else
          let first = hot () in
          let cold = Scheduler.Put (2 + Dbm_util.Prng.int rng 14, "c") in
          [ first; cold; hot () ])
  in
  let e = Engine_diff.create ~n_keys:16 () in
  let snapshot () =
    let s = Engine_diff.snapshot e in
    {
      Scheduler.view_get = Engine_diff.snapshot_get s;
      view_close = (fun () -> Engine_diff.snapshot_release s);
    }
  in
  let r =
    Diff_server.run ~mpl:32 ~snapshot ~read_only ~mode:grouped ~arrivals_us:(Array.make n 0.0)
      ~scripts e
  in
  pin "read-mostly" r ~completed:200 ~restarts:13 ~forces:7 ~makespan_us:2124.0 ~p99:1821.0

let test_server_contention_completes () =
  (* every transaction updates the same hot page: heavy parking and
     deadlock restarts, but the server must still drain the queue *)
  let n = 96 in
  let scripts =
    Array.init n (fun i -> [ Scheduler.Put (0, Printf.sprintf "h%d" i); Scheduler.Put (1 + (i mod 3), "x") ])
  in
  let e = Engine_log.create_with ~n_keys:8 () in
  let r = Log_server.run ~mpl:6 ~mode:grouped ~arrivals_us:(Array.make n 0.0) ~scripts e in
  check Alcotest.int "hot-page burst drains" n r.Server.completed

let test_server_diff_engine () =
  let n = 80 in
  let e = Engine_diff.create ~n_keys:64 () in
  let scripts = Array.init n (fun i -> [ Scheduler.Put (i mod 64, Printf.sprintf "d%d" i) ]) in
  let r = Diff_server.run ~mpl:8 ~mode:grouped ~arrivals_us:(Array.make n 0.0) ~scripts e in
  check Alcotest.int "diff engine serves the burst" n r.Server.completed;
  Engine_diff.crash_and_recover e;
  let t = Engine_diff.begin_txn e in
  check (Alcotest.option Alcotest.string) "acked write durable" (Some (Printf.sprintf "d%d" (n - 1)))
    (Engine_diff.get t ((n - 1) mod 64));
  Engine_diff.abort t

let test_open_loop_idle_gaps () =
  (* arrivals far apart: the server must jump its clock across idle
     gaps, and each lone transaction pays the batch timeout before its
     force — the group-commit latency floor at low load *)
  let n = 10 in
  let e = Engine_log.create_with ~n_keys:32 () in
  let arrivals = Array.init n (fun i -> float_of_int i *. 100_000.0) in
  let r =
    Log_server.run ~mpl:4
      ~mode:(Commit_pipeline.Grouped { batch = 64; timeout_us = 500.0 })
      ~arrivals_us:arrivals ~scripts:(burst_scripts n) e
  in
  check Alcotest.int "all served" n r.Server.completed;
  check Alcotest.bool "makespan spans the arrival horizon" true
    (r.Server.makespan_us >= 900_000.0);
  let p50 = Dbm_util.Stats.Histogram.p50 r.Server.latency_us in
  check Alcotest.bool "lone txns wait out the batch timeout" true (p50 >= 500.0)

let test_server_validation () =
  let e = Engine_log.create_with ~n_keys:8 () in
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  check Alcotest.bool "mpl >= 1" true
    (raises (fun () ->
         Log_server.run ~mpl:0 ~mode:Commit_pipeline.Eager ~arrivals_us:[| 0.0 |]
           ~scripts:[| [] |] e));
  check Alcotest.bool "length mismatch" true
    (raises (fun () ->
         Log_server.run ~mode:Commit_pipeline.Eager ~arrivals_us:[| 0.0; 1.0 |]
           ~scripts:[| [] |] e));
  check Alcotest.bool "decreasing arrivals" true
    (raises (fun () ->
         Log_server.run ~mode:Commit_pipeline.Eager ~arrivals_us:[| 5.0; 1.0 |]
           ~scripts:[| []; [] |] e));
  let drive ids =
    raises (fun () ->
        Log_server.drive ~mode:Commit_pipeline.Eager ~arrivals_us:[| 0.0; 1.0 |] ~ids
          ~scripts:(Array.map (fun _ -> [ Scheduler.Put (0, "x"); Scheduler.Put (1, "y") ]) ids)
          e)
  in
  check Alcotest.bool "duplicate ids" true (drive [| 0; 0 |]);
  check Alcotest.bool "descending ids" true (drive [| 1; 0 |]);
  check Alcotest.bool "id past the arrivals" true (drive [| 0; 2 |]);
  check Alcotest.bool "negative id" true (drive [| -1 |]);
  check Alcotest.bool "ascending subset accepted" false (drive [| 1 |]);
  check Alcotest.bool "bad batch" true
    (raises (fun () ->
         Log_server.run
           ~mode:(Commit_pipeline.Grouped { batch = 0; timeout_us = 1.0 })
           ~arrivals_us:[| 0.0 |] ~scripts:[| [] |] e))

(* A script key outside the engine's key space raises.  On the locked
   path key -1 rounds to page 0 and fails the engine's key check, and
   the others lie past the lock table; the snapshot path takes no lock,
   and the engine's read rejects every one. *)
let test_server_keys_outside_key_space () =
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  List.iter
    (fun k ->
      let arrivals_us = [| 0.0; 1.0 |] in
      List.iter
        (fun op ->
          check Alcotest.bool (Printf.sprintf "logging, key %d" k) true
            (raises (fun () ->
                 Log_server.run ~mode:Commit_pipeline.Eager ~arrivals_us
                   ~scripts:[| [ Scheduler.Put (0, "ok") ]; [ op ] |]
                   (Engine_log.create_with ~n_keys:8 ()))))
        [ Scheduler.Get k; Scheduler.Put (k, "x") ];
      let e = Engine_diff.create ~n_keys:8 () in
      check Alcotest.bool (Printf.sprintf "snapshot read, key %d" k) true
        (raises (fun () ->
             Diff_server.run ~snapshot:(Scheduler.snapshot_view (module Engine_diff) e)
               ~read_only:[| false; true |] ~mode:Commit_pipeline.Eager ~arrivals_us
               ~scripts:[| [ Scheduler.Put (0, "ok") ]; [ Scheduler.Get k ] |]
               e)))
    [ -1; 8; max_int ]

(* Storage_bench's server sweep runs on the logging engine alone and
   stands for every engine: the server decides from the scripts, the
   arrivals, lock outcomes at the page granule and its cost constants.
   On the sweep's random-access workload (one key per lock page on every
   engine) at its top load, each pipeline must report the same figures
   on every engine. *)
let test_engines_agree () =
  let n = 800 and seed = 20_250 and rate = 400_000.0 in
  let scripts = Storage_bench.random_access_workload ~n ~seed () in
  let arrivals_us =
    Storage_bench.arrivals_us ~seed:(seed + int_of_float rate)
      (Dbm_workload.Workload.Poisson { rate }) ~n
  in
  let figures (r : Server.result) =
    Printf.sprintf
      "tps %.17g, makespan %.17g, restarts %d, %d lock acquires, %d forces, queue peak %d, p50 \
       %.17g, p99 %.17g"
      r.Server.sustained_tps r.Server.makespan_us r.Server.restarts r.Server.lock_acquires
      r.Server.forces r.Server.max_queued
      (Dbm_util.Stats.Histogram.p50 r.Server.latency_us)
      (Dbm_util.Stats.Histogram.p99 r.Server.latency_us)
  in
  List.iter
    (fun (mode_name, mode) ->
      let run (module E : Server.ENGINE) =
        let module Srv = Server.Make (E) in
        figures (Srv.run ~mode ~arrivals_us ~scripts (E.create ~n_keys:4096 ()))
      in
      let reference = run (module Engine_log) in
      List.iter
        (fun (module E : Server.ENGINE) ->
          check Alcotest.string
            (Printf.sprintf "%s, %s: same figures as logging" E.engine_name mode_name)
            reference
            (run (module E)))
        [
          (module Engine_log_delta : Server.ENGINE);
          (module Engine_oplog);
          (module Engine_diff);
          (module Engine_versel);
        ])
    [
      ("eager", Commit_pipeline.Eager);
      ("grouped", Commit_pipeline.Grouped { batch = 32; timeout_us = 1000.0 });
    ]

(* A participant whose gate never admits and which has no vote pending:
   nothing can run and no event is due, so every pass is idle until the
   server loop's livelock guard gives up. *)
let test_livelock_guard_raises () =
  let e = Engine_log.create_with ~n_keys:8 () in
  let participant =
    {
      Log_server.votes = (fun _ -> false);
      vote = (fun ~now:_ ~id:_ _ -> ());
      admit = (fun _ -> false);
      decided = (fun () -> None);
      await = (fun () -> false);
    }
  in
  Alcotest.check_raises "no progress"
    (Failure "Server.run: no progress (livelock or undetected deadlock)") (fun () ->
      ignore
        (Log_server.drive ~participant ~mode:Commit_pipeline.Eager ~arrivals_us:[| 0.0 |]
           ~ids:[| 0 |] ~scripts:[| [ Scheduler.Put (0, "x") ] |] e))

let () =
  Alcotest.run "dbm_storage open-loop server"
    [
      ( "grouped vs eager equivalence",
        [
          QCheck_alcotest.to_alcotest prop_equiv_log;
          QCheck_alcotest.to_alcotest prop_equiv_diff;
        ] );
      ( "every-disk forcing",
        [
          Alcotest.test_case "commit syncs each disk once" `Quick
            test_commit_syncs_each_disk_once;
          Alcotest.test_case "partial force closes dependencies" `Quick
            test_partial_force_closure;
          Alcotest.test_case "oplog: one sync per commit or prepare" `Quick
            test_oplog_forces_once;
        ] );
      ( "pipeline edges",
        [
          Alcotest.test_case "exact-timeout boundary" `Quick
            test_pipeline_exact_timeout_boundary;
          Alcotest.test_case "batch of one degenerates to eager cadence" `Quick
            test_pipeline_batch_of_one;
        ] );
      ( "open-loop server",
        [
          Alcotest.test_case "backpressure never drops" `Quick test_backpressure_never_drops;
          Alcotest.test_case "acked means durable" `Quick test_acked_means_durable;
          Alcotest.test_case "grouped beats eager" `Quick test_grouped_beats_eager;
          Alcotest.test_case "deterministic" `Quick test_server_deterministic;
          Alcotest.test_case "decisions pinned" `Quick test_server_decisions_pinned;
          Alcotest.test_case "hot-page contention completes" `Quick
            test_server_contention_completes;
          Alcotest.test_case "differential engine" `Quick test_server_diff_engine;
          Alcotest.test_case "idle gaps and timeout floor" `Quick test_open_loop_idle_gaps;
          Alcotest.test_case "validation" `Quick test_server_validation;
          Alcotest.test_case "keys outside the key space" `Quick
            test_server_keys_outside_key_space;
          Alcotest.test_case "livelock guard raises" `Quick test_livelock_guard_raises;
          Alcotest.test_case "every engine, same figures" `Quick test_engines_agree;
        ] );
    ]
