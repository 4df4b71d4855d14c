(* Tests for the sharded execution layer: the page-aligned router, the
   two-phase-commit engine hooks and their crash-recovery resolution
   against a serial reference, and the Shard server itself (state
   equivalence across shard counts; shards = 1 identity with the plain
   server; argument validation at every shard count). *)

module Scheduler = Dbm_storage.Scheduler
module Server = Dbm_storage.Server
module Shard = Dbm_storage.Shard
module Shard_router = Dbm_storage.Shard_router
module Coordinator_log = Dbm_storage.Coordinator_log
module Commit_pipeline = Dbm_storage.Commit_pipeline
module Engine_log = Dbm_storage.Engine_log
module Engine_oplog = Dbm_storage.Engine_oplog
module Prng = Dbm_util.Prng
module Histogram = Dbm_util.Stats.Histogram

let check = Alcotest.check

(* --- router properties -------------------------------------------- *)

(* A random script over a small key space, plus a shard count. *)
let script_gen =
  QCheck.Gen.(
    let op =
      frequency
        [
          (3, map (fun k -> Scheduler.Get k) (int_range 0 255));
          (3, map (fun k -> Scheduler.Put (k, "v")) (int_range 0 255));
          (1, map (fun k -> Scheduler.Delete k) (int_range 0 255));
        ]
    in
    pair (int_range 1 8) (list_size (int_range 0 30) op))

let script_print (shards, script) =
  Printf.sprintf "shards=%d [%s]" shards
    (String.concat ";"
       (List.map
          (function
            | Scheduler.Get k -> Printf.sprintf "G%d" k
            | Scheduler.Put (k, _) -> Printf.sprintf "P%d" k
            | Scheduler.Delete k -> Printf.sprintf "D%d" k)
          script))

let key_of = function Scheduler.Get k | Scheduler.Put (k, _) | Scheduler.Delete k -> k

(* Every operation of a script lands in exactly one slice, slices
   preserve per-shard operation order, every op sits on the shard the
   router assigns its key, and routing is page-aligned and total. *)
let prop_router_covers =
  QCheck.Test.make ~name:"split covers every op exactly once, on its routed shard"
    ~count:500
    (QCheck.make ~print:script_print script_gen)
    (fun (shards, script) ->
      let keys_per_page = 4 in
      let slices = Shard_router.split ~shards ~keys_per_page script in
      (* slice shards ascend, are distinct, in range, never empty *)
      let shards_of = List.map fst slices in
      let ascending =
        List.sort_uniq Int.compare shards_of = shards_of
        && List.for_all (fun s -> s >= 0 && s < shards) shards_of
        && List.for_all (fun (_, ops) -> ops <> []) slices
      in
      (* concatenating the slices is a permutation of the script that
         keeps each op on its routed shard, in original relative order *)
      let remaining = Hashtbl.create 16 in
      List.iter (fun (s, ops) -> Hashtbl.replace remaining s ops) slices;
      let routed_ok =
        List.for_all
          (fun op ->
            let s = Shard_router.shard_of_key ~shards ~keys_per_page (key_of op) in
            match Hashtbl.find_opt remaining s with
            | Some (hd :: tl) when hd = op ->
              Hashtbl.replace remaining s tl;
              true
            | _ -> false)
          script
        && Hashtbl.fold (fun _ ops acc -> acc && ops = []) remaining true
      in
      (* participants agrees with split *)
      let parts = Shard_router.participants ~shards ~keys_per_page script in
      let parts_ok = parts = shards_of in
      (* page alignment: keys of one page agree; determinism: pure *)
      let page_aligned =
        List.for_all
          (fun op ->
            let k = key_of op in
            Shard_router.shard_of_key ~shards ~keys_per_page k
            = Shard_router.shard_of_page ~shards (k / keys_per_page))
          script
      in
      let deterministic = Shard_router.split ~shards ~keys_per_page script = slices in
      ascending && routed_ok && parts_ok && page_aligned && deterministic)

let prop_router_single_shard =
  QCheck.Test.make ~name:"shards = 1 routes everything to shard 0" ~count:100
    (QCheck.make ~print:script_print script_gen)
    (fun (_, script) ->
      match Shard_router.split ~shards:1 ~keys_per_page:4 script with
      | [] -> script = []
      | [ (0, ops) ] -> ops = script
      | _ -> false)

(* --- 2PC crash-recovery equivalence ------------------------------- *)

(* Random histories of cross-shard transactions over two participant
   engines and one coordinator.  Each episode writes one key on each
   shard and then follows one of five fates:

     Commit        prepare both, coordinator decides, both apply
     LocalAbort    deadlock victim before any vote: both roll back
     CrashPrepare  only shard 0 voted, crash — coordinator never
                   decided, so presumed abort must win
     CrashDecide   both voted and the coordinator's decision is
                   durable, crash — recovery must commit both sides
     CrashApplied  decided and applied (unforced!), crash — the local
                   decision records may be lost, the coordinator still
                   resolves commit

   A crash hits both participants and the coordinator, recovery runs
   with the coordinator's resolver, and the surviving state must equal
   a serial reference that eagerly applied exactly the episodes whose
   fate is commit.  Afterwards no transaction may be in doubt, and no
   episode may be half-applied (one shard committed, the other not). *)

type fate = Commit | LocalAbort | CrashPrepare | CrashDecide | CrashApplied

let fate_gen =
  QCheck.Gen.(
    frequency
      [
        (4, return Commit);
        (2, return LocalAbort);
        (2, return CrashPrepare);
        (2, return CrashDecide);
        (2, return CrashApplied);
      ])

let fate_print f =
  match f with
  | Commit -> "C"
  | LocalAbort -> "A"
  | CrashPrepare -> "Xp"
  | CrashDecide -> "Xd"
  | CrashApplied -> "Xa"

let prop_2pc_equivalence =
  QCheck.Test.make ~name:"2PC histories recover to the serial reference" ~count:120
    (QCheck.make
       ~print:(fun fs -> String.concat ";" (List.map fate_print fs))
       QCheck.Gen.(list_size (int_range 0 25) fate_gen))
    (fun fates ->
      let n_keys = 32 in
      let fresh () = Engine_log.create_with ~n_keys ~n_log_disks:2 () in
      let shards = [| fresh (); fresh () |] in
      let coord = Coordinator_log.create () in
      let resolve ~gid = Coordinator_log.resolve coord ~gid in
      let recover_all () =
        Coordinator_log.crash_and_recover coord;
        Array.iter (Engine_log.crash_and_recover_resolved ~resolve) shards
      in
      let committed = Hashtbl.create 16 in
      List.iteri
        (fun gid fate ->
          let key = gid mod (n_keys / 2) in
          let v = Printf.sprintf "g%d" gid in
          let t0 = Engine_log.begin_txn shards.(0) in
          let t1 = Engine_log.begin_txn shards.(1) in
          Engine_log.put t0 key v;
          Engine_log.put t1 key v;
          match fate with
          | Commit ->
            Engine_log.prepare t0 ~gid;
            Engine_log.prepare t1 ~gid;
            Coordinator_log.decide coord ~gid ~commit:true;
            Engine_log.commit_group t0;
            Engine_log.commit_group t1;
            Hashtbl.replace committed key v
          | LocalAbort ->
            Engine_log.abort t0;
            Engine_log.abort t1
          | CrashPrepare ->
            Engine_log.prepare t0 ~gid;
            recover_all ()
          | CrashDecide ->
            Engine_log.prepare t0 ~gid;
            Engine_log.prepare t1 ~gid;
            Coordinator_log.decide coord ~gid ~commit:true;
            recover_all ();
            Hashtbl.replace committed key v
          | CrashApplied ->
            Engine_log.prepare t0 ~gid;
            Engine_log.prepare t1 ~gid;
            Coordinator_log.decide coord ~gid ~commit:true;
            Engine_log.commit_group t0;
            Engine_log.commit_group t1;
            recover_all ();
            Hashtbl.replace committed key v)
        fates;
      recover_all ();
      (* nothing in doubt once resolution records are down, and a second
         restart (without any resolver) must not change the state *)
      let no_doubt = Array.for_all (fun e -> Engine_log.in_doubt e = []) shards in
      let fp = Array.map Engine_log.state_fingerprint shards in
      Array.iter Engine_log.crash_and_recover shards;
      let idempotent =
        Array.for_all2 (fun f e -> f = Engine_log.state_fingerprint e) fp shards
      in
      (* surviving values vs the serial reference, and never half-applied *)
      let read e k =
        let t = Engine_log.begin_txn e in
        let v = Engine_log.get t k in
        Engine_log.abort t;
        v
      in
      let state_ok = ref true in
      for k = 0 to n_keys - 1 do
        let expect = Hashtbl.find_opt committed k in
        let v0 = read shards.(0) k and v1 = read shards.(1) k in
        if v0 <> v1 then state_ok := false (* half-applied *)
        else if v0 <> expect then state_ok := false
      done;
      no_doubt && idempotent && !state_ok)

(* The oplog engine exposes the same participant hooks; run a focused
   version of the crash fates through it. *)
let test_2pc_oplog () =
  let e = Engine_oplog.create ~n_keys:16 () in
  let coord = Coordinator_log.create () in
  (* decided but unapplied: must commit after recovery *)
  let t = Engine_oplog.begin_txn e in
  Engine_oplog.put t 3 "yes";
  Engine_oplog.prepare t ~gid:7;
  Coordinator_log.decide coord ~gid:7 ~commit:true;
  (* prepared, never decided: presumed abort *)
  let u = Engine_oplog.begin_txn e in
  Engine_oplog.put u 4 "no";
  Engine_oplog.prepare u ~gid:8;
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) "both in doubt pre-crash"
    [ (1, 7); (2, 8) ]
    (Engine_oplog.in_doubt e);
  Coordinator_log.crash_and_recover coord;
  Engine_oplog.crash_and_recover_resolved e
    ~resolve:(fun ~gid -> Coordinator_log.resolve coord ~gid);
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) "resolved" []
    (Engine_oplog.in_doubt e);
  let r = Engine_oplog.begin_txn e in
  check (Alcotest.option Alcotest.string) "decided commit applied" (Some "yes")
    (Engine_oplog.get r 3);
  check (Alcotest.option Alcotest.string) "presumed abort" None (Engine_oplog.get r 4);
  Engine_oplog.abort r

(* --- the sharded server ------------------------------------------- *)

module Sharded = Shard.Make (Engine_log)
module Serial = Server.Make (Engine_log)

let n_keys = 256

let fresh_engine () = Engine_log.create_with ~n_keys ~n_log_disks:2 ()

(* Scripts whose final state is commit-order independent: every put
   writes a constant function of the key, so any serializable execution
   of the same transaction set ends in the same store. *)
let mk_workload ~n ~rng ~cross_frac =
  let arrivals = Array.init n (fun i -> float_of_int i *. 40.0) in
  let scripts =
    Array.init n (fun i ->
        let len = 1 + Prng.int rng 4 in
        let base = Prng.int rng (n_keys - len) in
        List.init len (fun j ->
            let k =
              if cross_frac > 0.0 && i mod int_of_float (1.0 /. cross_frac) = 0 then
                (base + (j * 64)) mod n_keys (* long stride: hops shards *)
              else base + j
            in
            if Prng.bool rng ~p:0.5 then Scheduler.Put (k, Printf.sprintf "k%d" k)
            else Scheduler.Get k))
  in
  (arrivals, scripts)

let scan_digest ~shards engines =
  let keys_per_page = Engine_log.keys_per_page engines.(0) in
  let buf = Buffer.create 1024 in
  for k = 0 to n_keys - 1 do
    let s = Shard_router.shard_of_key ~shards ~keys_per_page k in
    let t = Engine_log.begin_txn engines.(s) in
    (match Engine_log.get t k with
    | Some v ->
      Buffer.add_string buf (string_of_int k);
      Buffer.add_char buf '=';
      Buffer.add_string buf v;
      Buffer.add_char buf ';'
    | None -> ());
    Engine_log.abort t
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let run_sharded ~shards ~cross_frac =
  let rng = Prng.create 7 in
  let arrivals_us, scripts = mk_workload ~n:60 ~rng ~cross_frac in
  let serial_engine = fresh_engine () in
  let sr =
    Serial.run ~mode:(Commit_pipeline.Grouped { batch = 4; timeout_us = 300.0 })
      ~arrivals_us ~scripts serial_engine
  in
  Engine_log.crash_and_recover serial_engine;
  let reference = scan_digest ~shards:1 [| serial_engine |] in
  let engines = Array.init shards (fun _ -> fresh_engine ()) in
  let coord = Coordinator_log.create () in
  let r =
    Sharded.run ~mode:(Commit_pipeline.Grouped { batch = 4; timeout_us = 300.0 })
      ~arrivals_us ~scripts ~coordinator:coord engines
  in
  Coordinator_log.crash_and_recover coord;
  Array.iter
    (Engine_log.crash_and_recover_resolved ~resolve:(fun ~gid ->
         Coordinator_log.resolve coord ~gid))
    engines;
  let in_doubt =
    Array.fold_left (fun acc e -> acc + List.length (Engine_log.in_doubt e)) 0 engines
  in
  (sr, r, reference, scan_digest ~shards engines, in_doubt)

let test_sharded_state_equivalence () =
  List.iter
    (fun (shards, cross_frac) ->
      let sr, r, reference, sharded, in_doubt = run_sharded ~shards ~cross_frac in
      check Alcotest.int "all completed" sr.Server.completed r.Shard.completed;
      check Alcotest.string
        (Printf.sprintf "scan digest (%d shards, cross %.2f)" shards cross_frac)
        reference sharded;
      check Alcotest.int "no in-doubt transactions" 0 in_doubt)
    [ (2, 0.0); (2, 0.25); (4, 0.0); (4, 0.25); (3, 0.5) ]

let test_sharded_cross_counted () =
  let _, r, _, _, _ = run_sharded ~shards:4 ~cross_frac:0.25 in
  Alcotest.(check bool) "some cross-shard transactions ran" true (r.Shard.cross_committed > 0);
  Alcotest.(check bool)
    "cross latencies recorded" true
    (Dbm_util.Stats.Histogram.count r.Shard.cross_latency_us = r.Shard.cross_committed)

(* One shard runs the plain server's driver with no transaction voting,
   so every result field, both latency histograms and the engine state
   must match Server.run exactly. *)
let test_single_shard_delegates () =
  let rng = Prng.create 11 in
  let arrivals_us, scripts = mk_workload ~n:40 ~rng ~cross_frac:0.2 in
  let mode = Commit_pipeline.Grouped { batch = 4; timeout_us = 300.0 } in
  let e1 = fresh_engine () in
  let direct = Serial.run ~mode ~arrivals_us ~scripts e1 in
  let e2 = fresh_engine () in
  let via =
    Sharded.run ~mode ~arrivals_us ~scripts ~coordinator:(Coordinator_log.create ()) [| e2 |]
  in
  let exact = Alcotest.float 0.0 in
  let same_hist name a b =
    check Alcotest.int (name ^ " count") (Histogram.count a) (Histogram.count b);
    check exact (name ^ " total") (Histogram.total a) (Histogram.total b);
    check exact (name ^ " max") (Histogram.max a) (Histogram.max b);
    check exact (name ^ " p50") (Histogram.p50 a) (Histogram.p50 b);
    check exact (name ^ " p99") (Histogram.p99 a) (Histogram.p99 b)
  in
  check Alcotest.int "completed" direct.Server.completed via.Shard.completed;
  check exact "makespan" direct.Server.makespan_us via.Shard.makespan_us;
  check exact "sustained tps" direct.Server.sustained_tps via.Shard.sustained_tps;
  check Alcotest.int "restarts" direct.Server.restarts via.Shard.restarts;
  check Alcotest.int "forces" direct.Server.forces via.Shard.forces;
  check Alcotest.int "lock acquires" direct.Server.lock_acquires via.Shard.lock_acquires;
  check Alcotest.int "cross" 0 via.Shard.cross_committed;
  check Alcotest.bool "not oversubscribed" false via.Shard.oversubscribed;
  same_hist "latency" direct.Server.latency_us via.Shard.latency_us;
  same_hist "single-shard latency" direct.Server.latency_us via.Shard.single_latency_us;
  check Alcotest.int "no cross latencies" 0 (Histogram.count via.Shard.cross_latency_us);
  check Alcotest.string "engine states identical"
    (Engine_log.state_fingerprint e1) (Engine_log.state_fingerprint e2)

(* Server.Make.drive's argument checks hold at every shard count: on two
   engines a zero mpl must be rejected up front, not spin each shard
   into the livelock guard. *)
let test_sharded_validation () =
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  let run ?mpl ?op_cost_us () =
    Sharded.run ?mpl ?op_cost_us ~mode:Commit_pipeline.Eager ~arrivals_us:[| 0.0 |]
      ~scripts:[| [ Scheduler.Put (0, "v") ] |]
      ~coordinator:(Coordinator_log.create ())
      [| fresh_engine (); fresh_engine () |]
  in
  check Alcotest.bool "mpl >= 1" true (raises (fun () -> run ~mpl:0 ()));
  check Alcotest.bool "finite op cost" true (raises (fun () -> run ~op_cost_us:Float.infinity ()));
  check Alcotest.bool "non-negative op cost" true (raises (fun () -> run ~op_cost_us:(-1.0) ()))

(* An engine that fails on one key.  A cross-shard transaction that
   writes it and a key of the other shard leaves the healthy shard
   prepared and waiting on a decision only the failing shard could
   complete: it must leave through the failure flag, so Shard.run
   raises instead of hanging. *)
module Put_fails = struct
  include Engine_log

  let first_key_on shard =
    let keys_per_page = keys_per_page (fresh_engine ()) in
    List.find
      (fun k -> Shard_router.shard_of_key ~shards:2 ~keys_per_page k = shard)
      (List.init n_keys Fun.id)

  (* on shard 1, so shard 0's exception — the one Pool.map_ordered
     re-raises — is the healthy shard's exit *)
  let poison = first_key_on 1

  let put t k v = if k = poison then failwith "injected put failure" else put t k v
end

module Sharded_failing = Shard.Make (Put_fails)

let test_peer_failure_raises () =
  let script =
    [ Scheduler.Put (Put_fails.first_key_on 0, "v"); Scheduler.Put (Put_fails.poison, "v") ]
  in
  match
    Sharded_failing.run ~mode:Commit_pipeline.Eager ~arrivals_us:[| 0.0 |] ~scripts:[| script |]
      ~coordinator:(Coordinator_log.create ())
      [| fresh_engine (); fresh_engine () |]
  with
  | exception Failure msg ->
    check Alcotest.string "healthy shard's exit" "Shard.run: a peer shard failed" msg
  | _ -> Alcotest.fail "a failing shard's peer completed"

let () =
  Alcotest.run "dbm_storage sharded execution"
    [
      ( "shard router",
        [
          QCheck_alcotest.to_alcotest prop_router_covers;
          QCheck_alcotest.to_alcotest prop_router_single_shard;
        ] );
      ( "two-phase commit",
        [
          QCheck_alcotest.to_alcotest prop_2pc_equivalence;
          Alcotest.test_case "oplog participant hooks" `Quick test_2pc_oplog;
        ] );
      ( "sharded server",
        [
          Alcotest.test_case "state equals serial reference" `Quick
            test_sharded_state_equivalence;
          Alcotest.test_case "cross-shard transactions counted" `Quick
            test_sharded_cross_counted;
          Alcotest.test_case "one shard delegates to Server" `Quick
            test_single_shard_delegates;
          Alcotest.test_case "validation at every shard count" `Quick test_sharded_validation;
          Alcotest.test_case "peer failure raises" `Quick test_peer_failure_raises;
        ] );
    ]
