(* Tests for MVCC snapshot reads: a pinned snapshot must observe
   exactly the committed state at its pin point — never a later commit,
   never uncommitted work — under random histories of transactions,
   crashes and engine housekeeping, for every snapshot-capable engine;
   the scheduler's snapshot read-only class must run lock-free and
   restart-free; and the per-class latency histograms must merge into
   the combined one exactly. *)

module Kv = Dbm_storage.Kv
module Scheduler = Dbm_storage.Scheduler
module Server = Dbm_storage.Server
module Commit_pipeline = Dbm_storage.Commit_pipeline
module Engine_diff = Dbm_storage.Engine_diff
module Engine_versel = Dbm_storage.Engine_versel
module Engine_oplog = Dbm_storage.Engine_oplog
module Engine_log = Dbm_storage.Engine_log
module Engine_log_delta = Dbm_storage.Engine_log_delta
module Hist = Dbm_util.Stats.Histogram
module W = Dbm_workload.Workload

let check = Alcotest.check

(* --- snapshot-vs-model equivalence property ----------------------- *)

(* A random history interleaves transactional writes with snapshot
   pins, reads and releases, plus crashes and checkpoints.  The
   reference is a plain committed-state array maintained alongside
   (one live transaction at a time, so commit = apply the pending
   writes).  Every live snapshot carries the copy of the committed
   state taken at its pin; at every [SRead] each live snapshot must
   return exactly that copy for all keys — later commits and the open
   transaction's pending writes must both be invisible.  An [SGet]
   reads through the open transaction instead, which must see its own
   pending write, else the committed value.  A crash kills every
   snapshot: reading through one must raise [Txn_finished]. *)

type sop =
  | SPut of int
  | SDel of int
  | SCommit
  | SAbort
  | SCrash
  | SCheckpoint
  | SPin
  | SRead
  | SRelease
  | SGet of int

let n_keys = 32

let sop_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun k -> SPut k) (int_range 0 (n_keys - 1)));
        (2, map (fun k -> SDel k) (int_range 0 (n_keys - 1)));
        (3, return SCommit);
        (1, return SAbort);
        (1, return SCrash);
        (1, return SCheckpoint);
        (3, return SPin);
        (3, return SRead);
        (2, return SRelease);
        (3, map (fun k -> SGet k) (int_range 0 (n_keys - 1)));
      ])

let sop_print = function
  | SPut k -> Printf.sprintf "put%d" k
  | SDel k -> Printf.sprintf "del%d" k
  | SCommit -> "commit"
  | SAbort -> "abort"
  | SCrash -> "crash"
  | SCheckpoint -> "ckpt"
  | SPin -> "pin"
  | SRead -> "read"
  | SRelease -> "release"
  | SGet k -> Printf.sprintf "get%d" k

let history_arb =
  QCheck.make
    ~print:(fun ops -> String.concat ";" (List.map sop_print ops))
    (QCheck.Gen.list_size (QCheck.Gen.int_range 0 80) sop_gen)

module Snapshot_equiv (E : Kv.SNAPSHOT) = struct
  let run ops =
    let e = E.create ~n_keys () in
    let committed = Array.make n_keys None in
    let pending : (int, string option) Hashtbl.t = Hashtbl.create 16 in
    let txn = ref None in
    let snaps : (E.snapshot * string option array) list ref = ref [] in
    let ok = ref true in
    let ensure_txn () =
      match !txn with
      | Some t -> t
      | None ->
        let t = E.begin_txn e in
        txn := Some t;
        t
    in
    let check_snaps () =
      List.iter
        (fun (s, pinned) ->
          for k = 0 to n_keys - 1 do
            if E.snapshot_get s k <> pinned.(k) then ok := false
          done)
        !snaps
    in
    List.iteri
      (fun step op ->
        match op with
        | SPut k ->
          let v = Printf.sprintf "v%d" step in
          E.put (ensure_txn ()) k v;
          Hashtbl.replace pending k (Some v);
          check_snaps ()
        | SDel k ->
          E.delete (ensure_txn ()) k;
          Hashtbl.replace pending k None;
          check_snaps ()
        | SCommit -> (
          match !txn with
          | None -> ()
          | Some t ->
            E.commit t;
            txn := None;
            Hashtbl.iter (fun k v -> committed.(k) <- v) pending;
            Hashtbl.reset pending;
            check_snaps ())
        | SAbort -> (
          match !txn with
          | None -> ()
          | Some t ->
            E.abort t;
            txn := None;
            Hashtbl.reset pending;
            check_snaps ())
        | SCrash ->
          E.crash_and_recover e;
          txn := None;
          Hashtbl.reset pending;
          (* every snapshot died with the crash *)
          List.iter
            (fun (s, _) ->
              match E.snapshot_get s 0 with
              | _ -> ok := false
              | exception Kv.Txn_finished -> ())
            !snaps;
          snaps := [];
          if E.live_snapshots e <> 0 then ok := false
        | SCheckpoint ->
          (* housekeeping (merge/truncation) may require quiescence but
             must respect the snapshot horizon *)
          if !txn = None then begin
            E.checkpoint e;
            check_snaps ()
          end
        | SPin ->
          if List.length !snaps < 6 then
            snaps := (E.snapshot e, Array.copy committed) :: !snaps;
          check_snaps ()
        | SRead -> check_snaps ()
        | SRelease -> (
          match !snaps with
          | [] -> ()
          | (s, _) :: rest ->
            E.snapshot_release s;
            snaps := rest;
            check_snaps ())
        | SGet k ->
          let expected =
            match Hashtbl.find_opt pending k with Some v -> v | None -> committed.(k)
          in
          if E.get (ensure_txn ()) k <> expected then ok := false)
      ops;
    (match !txn with Some t -> E.abort t | None -> ());
    List.iter (fun (s, _) -> E.snapshot_release s) !snaps;
    if E.live_snapshots e <> 0 then ok := false;
    (* with every snapshot gone the store must still read back the
       committed state through an ordinary transaction *)
    let t = E.begin_txn e in
    for k = 0 to n_keys - 1 do
      if E.get t k <> committed.(k) then ok := false
    done;
    E.abort t;
    !ok

  let property name =
    QCheck.Test.make ~name ~count:120 ~long_factor:20 history_arb run
end

module Diff_equiv = Snapshot_equiv (Engine_diff)
module Versel_equiv = Snapshot_equiv (Engine_versel)
module Oplog_equiv = Snapshot_equiv (Engine_oplog)
module Physical_equiv = Snapshot_equiv (Engine_log)
module Delta_equiv = Snapshot_equiv (Engine_log_delta)

(* --- the handle lifecycle ------------------------------------------ *)

(* What the random histories above never do: read or release a handle
   after its release, release a pre-crash handle after the crash, or
   read outside the key space. *)
let handle_lifecycle (module E : Kv.SNAPSHOT) =
  let commit_put e k v =
    let t = E.begin_txn e in
    E.put t k v;
    E.commit t
  in
  Alcotest.test_case (E.engine_name ^ " lifecycle") `Quick (fun () ->
      let e = E.create ~n_keys () in
      commit_put e 1 "a";
      (* Pinned first: a registry that reused ids after a crash would
         hand its id to the post-crash snapshot. *)
      let pre_crash = E.snapshot e in
      let s = E.snapshot e in
      E.snapshot_release s;
      Alcotest.check_raises "read after release" Kv.Txn_finished (fun () ->
          ignore (E.snapshot_get s 1));
      E.snapshot_release s;
      check Alcotest.int "a second release changes nothing" 1 (E.live_snapshots e);
      List.iter
        (fun k ->
          Alcotest.check_raises "key outside the store"
            (Invalid_argument (Printf.sprintf "key %d out of range" k))
            (fun () -> ignore (E.snapshot_get pre_crash k)))
        [ -1; n_keys ];
      E.crash_and_recover e;
      let s = E.snapshot e in
      E.snapshot_release pre_crash;
      check Alcotest.int "the post-crash snapshot stays pinned" 1 (E.live_snapshots e);
      commit_put e 1 "b";
      commit_put e 2 "c";
      check Alcotest.(option string) "pinned value" (Some "a") (E.snapshot_get s 1);
      check Alcotest.(option string) "later commit invisible" None (E.snapshot_get s 2);
      E.snapshot_release s;
      check Alcotest.int "all released" 0 (E.live_snapshots e))

(* Every snapshot-capable engine, with the commit hooks the server
   drives. *)
let engines : (module Server.SNAPSHOT_ENGINE) list =
  [
    (module Engine_log);
    (module Engine_log_delta);
    (module Engine_oplog);
    (module Engine_diff);
    (module Engine_versel);
  ]

let handle_tests =
  List.map (fun (module E : Server.SNAPSHOT_ENGINE) -> handle_lifecycle (module E)) engines

(* --- the read-only class is lock-free and restart-free ------------ *)

(* Drive the open-loop server over every engine with every transaction
   read-only on the snapshot path: the lock manager must never be
   consulted and nothing can restart.  Then a contended mixed run:
   writers may restart, the read-only class may not, and the per-class
   histograms must partition the combined one.  Last, the three read
   regimes on every engine: the server's figures must not depend on
   the engine. *)

let snapshot_factory = Scheduler.snapshot_view (module Engine_diff)

let mixed_workload ~n ~seed ~read_frac =
  let cfg =
    {
      W.n_transactions = n;
      min_pages = 2;
      max_pages = 6;
      write_fraction = 0.8;
      pattern = W.Zipfian { theta = 0.99 };
      db_pages = 32;
      seed;
    }
  in
  let txns =
    W.apply_read_fraction (Dbm_util.Prng.create (seed lxor 0x5eed)) ~read_frac (W.generate cfg)
  in
  let read_only = Array.map (fun t -> W.write_set_size t = 0) txns in
  let scripts =
    Array.map
      (fun t ->
        List.init (Array.length t.W.pages) (fun i ->
            let k = t.W.pages.(i) * 4 in
            if t.W.writes.(i) then Scheduler.Put (k, "snap-test") else Scheduler.Get k))
      txns
  in
  (scripts, read_only)

let arrivals ~n ~seed =
  let rng = Dbm_util.Prng.create seed in
  Array.map (fun s -> s *. 1e6) (W.gen_arrival_times rng (W.Poisson { rate = 20_000.0 }) ~n)

let scan_keys = 256

(* Serve [scripts] on a fresh engine through the eager pipeline, the
   read-only class on the snapshot path unless [snapshot] is false.
   Returns the result, the engine's live snapshots at the end, and a
   thunk that crash-recovers the engine and reads every key. *)
let serve (module E : Server.SNAPSHOT_ENGINE) ?(snapshot = true) ?read_mode ~read_only
    ~arrivals_us scripts =
  let module Srv = Server.Make (E) in
  let e = E.create ~n_keys:scan_keys () in
  let snapshot = if snapshot then Some (Scheduler.snapshot_view (module E) e) else None in
  let r =
    Srv.run ?snapshot ?read_mode ~read_only ~mode:Commit_pipeline.Eager ~arrivals_us ~scripts e
  in
  let recovered_scan () =
    E.crash_and_recover e;
    let t = E.begin_txn e in
    let values = List.init scan_keys (E.get t) in
    E.abort t;
    values
  in
  (r, E.live_snapshots e, recovered_scan)

let test_all_read_only_lock_free () =
  let n = 80 in
  let scripts, _ = mixed_workload ~n ~seed:77 ~read_frac:1.0 in
  let read_only = Array.make n true in
  List.iter
    (fun (module E : Server.SNAPSHOT_ENGINE) ->
      let r, live, _ = serve (module E) ~read_only ~arrivals_us:(arrivals ~n ~seed:77) scripts in
      let check_int what = check Alcotest.int (E.engine_name ^ ": " ^ what) in
      check_int "all transactions acknowledged" n r.Server.completed;
      check_int "zero lock acquisitions" 0 r.Server.lock_acquires;
      check_int "zero restarts" 0 r.Server.restarts;
      check_int "zero read-only restarts" 0 r.Server.ro_restarts;
      check_int "no leaked snapshot" 0 live)
    engines

let test_mixed_run_read_only_class () =
  let n = 120 in
  let scripts, read_only = mixed_workload ~n ~seed:9125 ~read_frac:0.5 in
  let n_ro = Array.fold_left (fun a ro -> if ro then a + 1 else a) 0 read_only in
  List.iter
    (fun (module E : Server.SNAPSHOT_ENGINE) ->
      let r, live, _ =
        serve (module E) ~read_only ~arrivals_us:(arrivals ~n ~seed:9125) scripts
      in
      let check_int what = check Alcotest.int (E.engine_name ^ ": " ^ what) in
      check_int "all transactions acknowledged" n r.Server.completed;
      check_int "zero read-only restarts" 0 r.Server.ro_restarts;
      check_int "no leaked snapshot" 0 live;
      check_int "read-only class histogram" n_ro (Hist.count r.Server.ro_latency_us);
      check_int "read-write class histogram" (n - n_ro) (Hist.count r.Server.rw_latency_us);
      check_int "combined histogram is the merge" n (Hist.count r.Server.latency_us))
    engines

(* Storage_bench's read-heavy sweep runs on one engine and stands for
   all of them.  A small read-heavy workload under exclusive-lock,
   shared-lock and snapshot reads: in each regime every engine must
   report the same figures, and every run must leak no snapshot and
   recover to the same scan; the snapshot path restarts no read-only
   transaction. *)
let test_read_modes_agree () =
  let n = 150 in
  let scripts, read_only = mixed_workload ~n ~seed:4711 ~read_frac:0.9 in
  let arrivals_us = arrivals ~n ~seed:4711 in
  let figures (r : Server.result) =
    Printf.sprintf
      "tps %.17g, restarts %d (%d ro), %d lock acquires, %d forces, p50 %.17g, p99 %.17g"
      r.Server.sustained_tps r.Server.restarts r.Server.ro_restarts r.Server.lock_acquires
      r.Server.forces (Hist.p50 r.Server.latency_us) (Hist.p99 r.Server.latency_us)
  in
  (* the first value put in [first] is the one every later one must equal *)
  let agree testable first what v =
    match !first with None -> first := Some v | Some v0 -> check testable what v0 v
  in
  let scan = ref None in
  List.iter
    (fun (mode, snapshot, read_mode) ->
      let mode_figures = ref None in
      List.iter
        (fun (module E : Server.SNAPSHOT_ENGINE) ->
          let name = Printf.sprintf "%s, %s: " E.engine_name mode in
          let r, live, recovered_scan =
            serve (module E) ~snapshot ?read_mode ~read_only ~arrivals_us scripts
          in
          check Alcotest.int (name ^ "no leaked snapshot") 0 live;
          if snapshot then
            check Alcotest.int (name ^ "zero read-only restarts") 0 r.Server.ro_restarts;
          agree Alcotest.string mode_figures (name ^ "same figures as every engine") (figures r);
          agree
            Alcotest.(list (option string))
            scan (name ^ "same recovered scan") (recovered_scan ()))
        engines)
    [
      ("xlock", false, Some Dbm_storage.Lock_mgr.X);
      ("slock", false, None);
      ("snapshot", true, None);
    ]

(* a read-only script containing a write must be rejected up front *)
let test_read_only_script_validated () =
  let e = Engine_diff.create ~n_keys:64 () in
  let module Sch = Scheduler.Make (Engine_diff) in
  let ex = Sch.Exec.create ~snapshot:(snapshot_factory e) e in
  Alcotest.check_raises "write in a read-only script"
    (Invalid_argument "Scheduler.Exec.spawn: write in read-only script")
    (fun () ->
      ignore (Sch.Exec.spawn ex ~read_only:true ~index:0 ~id:0 [ Scheduler.Put (0, "x") ]))

(* --- Histogram.merge ---------------------------------------------- *)

(* Merging two histograms must be indistinguishable from recording the
   union into one: same count, total, max and percentiles — on the
   exact small-sample path and on the bucketed path alike (sizes up to
   1200 straddle the default 512-sample exact limit). *)
let prop_histogram_merge =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 0 1200) (map abs_float (float_bound_exclusive 1e6)))
        (list_size (int_range 0 1200) (map abs_float (float_bound_exclusive 1e6))))
  in
  let arb =
    QCheck.make
      ~print:(fun (a, b) -> Printf.sprintf "|a|=%d |b|=%d" (List.length a) (List.length b))
      gen
  in
  QCheck.Test.make ~name:"Histogram.merge = recording the union" ~count:200 arb
    (fun (l1, l2) ->
      let h1 = Hist.create () and h2 = Hist.create () and u = Hist.create () in
      List.iter (fun x -> Hist.add h1 x; Hist.add u x) l1;
      List.iter (fun x -> Hist.add h2 x; Hist.add u x) l2;
      let m = Hist.merge h1 h2 in
      (* totals are float sums taken in different orders; only the
         percentile machinery (counts, buckets, exact prefixes, max) is
         bit-exact under merge *)
      Hist.count m = Hist.count u
      && Float.abs (Hist.total m -. Hist.total u)
         <= 1e-9 *. (1.0 +. Float.abs (Hist.total u))
      && (Hist.count u = 0
         || Float.equal (Hist.max m) (Hist.max u)
            && List.for_all
                 (fun p -> Float.equal (Hist.percentile m ~p) (Hist.percentile u ~p))
                 [ 1.0; 50.0; 90.0; 99.0; 99.9; 100.0 ]))

let test_merge_empty_sides () =
  let h = Hist.create () in
  Hist.add h 5.0;
  Hist.add h 7.0;
  let e = Hist.create () in
  check Alcotest.int "empty right" 2 (Hist.count (Hist.merge h e));
  check Alcotest.int "empty left" 2 (Hist.count (Hist.merge e h));
  check Alcotest.int "both empty" 0 (Hist.count (Hist.merge e e));
  check (Alcotest.float 1e-9) "values survive" 7.0 (Hist.max (Hist.merge e h))

(* --- heavy-tailed size distributions ------------------------------ *)

let size_cfg =
  {
    W.n_transactions = 400;
    min_pages = 2;
    max_pages = 64;
    write_fraction = 0.2;
    pattern = W.Random_access;
    db_pages = 1024;
    seed = 4242;
  }

let sizes dist = Array.map W.read_set_size (W.generate_with ~size_dist:dist size_cfg)

let test_size_dist_bounds () =
  List.iter
    (fun dist ->
      Array.iter
        (fun s ->
          if s < size_cfg.W.min_pages || s > size_cfg.W.max_pages then
            Alcotest.failf "size %d outside [%d,%d]" s size_cfg.W.min_pages
              size_cfg.W.max_pages)
        (sizes dist))
    [
      W.Uniform_size;
      W.Pareto_size { alpha = 1.5 };
    ]

let test_size_dist_heavy_tail () =
  (* Pareto at alpha 1.5 must be mostly-small with a real tail: the
     median stays near min_pages while the maximum escapes it. *)
  let s = sizes (W.Pareto_size { alpha = 1.5 }) in
  let sorted = Array.copy s in
  Array.sort compare sorted;
  let median = sorted.(Array.length sorted / 2) in
  let max_s = sorted.(Array.length sorted - 1) in
  if median > 8 then Alcotest.failf "Pareto median %d too large" median;
  if max_s < 32 then Alcotest.failf "Pareto max %d shows no tail" max_s

let test_size_dist_deterministic_and_uniform_identity () =
  let a = W.generate_with ~size_dist:(W.Pareto_size { alpha = 1.5 }) size_cfg in
  let b = W.generate_with ~size_dist:(W.Pareto_size { alpha = 1.5 }) size_cfg in
  check Alcotest.string "same seed, same stream" (W.to_string a) (W.to_string b);
  check Alcotest.string "Uniform_size = generate"
    (W.to_string (W.generate size_cfg))
    (W.to_string (W.generate_with ~size_dist:W.Uniform_size size_cfg))

let test_size_dist_validation () =
  List.iter
    (fun dist ->
      match W.validate_size_dist dist with
      | () -> Alcotest.fail "bad size_dist accepted"
      | exception Invalid_argument _ -> ())
    [
      W.Pareto_size { alpha = 0.0 };
      W.Pareto_size { alpha = Float.nan };
    ]

(* --- apply_read_fraction ------------------------------------------ *)

let test_read_fraction_extremes () =
  let txns = W.generate size_cfg in
  let before = W.to_string txns in
  let none = W.apply_read_fraction (Dbm_util.Prng.create 1) ~read_frac:0.0 txns in
  let all = W.apply_read_fraction (Dbm_util.Prng.create 1) ~read_frac:1.0 txns in
  check Alcotest.string "read_frac 0 changes nothing" before (W.to_string none);
  Array.iter
    (fun t ->
      if W.write_set_size t <> 0 then Alcotest.fail "read_frac 1 left a write")
    all;
  check Alcotest.string "input not modified" before (W.to_string txns)

let test_read_fraction_deterministic () =
  let txns = W.generate size_cfg in
  let a = W.apply_read_fraction (Dbm_util.Prng.create 7) ~read_frac:0.5 txns in
  let b = W.apply_read_fraction (Dbm_util.Prng.create 7) ~read_frac:0.5 txns in
  check Alcotest.string "same rng, same carve" (W.to_string a) (W.to_string b);
  let ro = Array.fold_left (fun n t -> if W.write_set_size t = 0 then n + 1 else n) 0 a in
  if ro = 0 || ro = Array.length a then
    Alcotest.failf "read_frac 0.5 carved a degenerate class (%d of %d)" ro (Array.length a)

let () =
  Alcotest.run "snapshot"
    [
      ( "snapshot-vs-model",
        [
          QCheck_alcotest.to_alcotest
            (Diff_equiv.property "diff snapshot sees exactly the pinned committed state");
          QCheck_alcotest.to_alcotest
            (Versel_equiv.property "versel snapshot sees exactly the pinned committed state");
          QCheck_alcotest.to_alcotest
            (Oplog_equiv.property "oplog snapshot sees exactly the pinned committed state");
          QCheck_alcotest.to_alcotest
            (Physical_equiv.property "physical log snapshot sees exactly the pinned state");
          QCheck_alcotest.to_alcotest
            (Delta_equiv.property "delta log snapshot sees exactly the pinned state");
        ] );
      ("snapshot-handle", handle_tests);
      ( "read-only-class",
        [
          Alcotest.test_case "all-read-only run is lock-free" `Quick
            test_all_read_only_lock_free;
          Alcotest.test_case "mixed run: ro class never restarts" `Quick
            test_mixed_run_read_only_class;
          Alcotest.test_case "read-only script with a write is rejected" `Quick
            test_read_only_script_validated;
          Alcotest.test_case "read modes agree on every engine" `Quick test_read_modes_agree;
        ] );
      ( "histogram-merge",
        [
          QCheck_alcotest.to_alcotest prop_histogram_merge;
          Alcotest.test_case "empty sides" `Quick test_merge_empty_sides;
        ] );
      ( "size-dist",
        [
          Alcotest.test_case "draws clipped to the page range" `Quick test_size_dist_bounds;
          Alcotest.test_case "Pareto is mostly-small with a tail" `Quick
            test_size_dist_heavy_tail;
          Alcotest.test_case "deterministic; Uniform_size = generate" `Quick
            test_size_dist_deterministic_and_uniform_identity;
          Alcotest.test_case "bad parameters rejected" `Quick test_size_dist_validation;
        ] );
      ( "read-fraction",
        [
          Alcotest.test_case "extremes" `Quick test_read_fraction_extremes;
          Alcotest.test_case "deterministic, non-degenerate" `Quick
            test_read_fraction_deterministic;
        ] );
    ]
