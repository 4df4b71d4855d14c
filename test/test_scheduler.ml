(* Tests for the strict-2PL scheduler and group commit.

   The central property: a scheduler run over any engine is equivalent
   to executing the committed scripts serially in commit order (checked
   against the model). *)

module Kv = Dbm_storage.Kv
module Scheduler = Dbm_storage.Scheduler
module Engine_log = Dbm_storage.Engine_log

let check = Alcotest.check

let n_keys = 32

(* Replay scripts serially (in the given order) on the model and read
   the final state. *)
let serial_state ~order ~scripts =
  let m = Kv.Model.create ~n_keys () in
  List.iter
    (fun id ->
      let script = List.assoc id scripts in
      let t = Kv.Model.begin_txn m in
      List.iter
        (function
          | Scheduler.Get k -> ignore (Kv.Model.get t k)
          | Scheduler.Put (k, v) -> Kv.Model.put t k v
          | Scheduler.Delete k -> Kv.Model.delete t k)
        script;
      Kv.Model.commit t)
    order;
  let t = Kv.Model.begin_txn m in
  let state = List.init n_keys (fun k -> Kv.Model.get t k) in
  Kv.Model.abort t;
  state

let engine_state (type a) (module E : Kv.S with type t = a) (e : a) =
  let t = E.begin_txn e in
  let state = List.init n_keys (fun k -> E.get t k) in
  E.abort t;
  state

module Harness (E : Kv.S) = struct
  module S = Scheduler.Make (E)

  let run_and_check scripts =
    let e = E.create ~n_keys () in
    let report = S.run e ~scripts in
    check Alcotest.int "all scripts committed" (List.length scripts)
      (List.length report.Scheduler.commit_order);
    let expected = serial_state ~order:report.Scheduler.commit_order ~scripts in
    let actual = engine_state (module E) e in
    check
      (Alcotest.list (Alcotest.option Alcotest.string))
      "equivalent to serial execution in commit order" expected actual;
    report

  let test_disjoint () =
    let scripts =
      [
        (1, [ Scheduler.Put (0, "a"); Scheduler.Put (1, "b") ]);
        (2, [ Scheduler.Put (16, "c"); Scheduler.Put (17, "d") ]);
      ]
    in
    let r = run_and_check scripts in
    check Alcotest.int "no restarts on disjoint scripts" 0 r.Scheduler.restarts

  let test_crossing_deadlock () =
    (* keys 0 and 16 are on different pages for every engine: the
       scripts acquire them in opposite orders, forcing a deadlock *)
    let scripts =
      [
        (1, [ Scheduler.Put (0, "t1"); Scheduler.Put (16, "t1") ]);
        (2, [ Scheduler.Put (16, "t2"); Scheduler.Put (0, "t2") ]);
      ]
    in
    let r = run_and_check scripts in
    check Alcotest.bool "a deadlock victim restarted" true (r.Scheduler.restarts >= 1)

  let test_shared_reads () =
    let scripts =
      [
        (1, [ Scheduler.Get 0; Scheduler.Get 1; Scheduler.Put (16, "x") ]);
        (2, [ Scheduler.Get 0; Scheduler.Get 1; Scheduler.Put (24, "y") ]);
      ]
    in
    let r = run_and_check scripts in
    check Alcotest.int "readers share locks" 0 r.Scheduler.restarts

  let test_empty_scripts () =
    let r = run_and_check [ (1, []); (2, [ Scheduler.Put (0, "v") ]) ] in
    check Alcotest.int "both committed" 2 (List.length r.Scheduler.commit_order)

  let test_write_conflict_serializes () =
    let scripts =
      [
        (1, [ Scheduler.Put (0, "first"); Scheduler.Put (1, "first") ]);
        (2, [ Scheduler.Put (0, "second"); Scheduler.Put (1, "second") ]);
        (3, [ Scheduler.Put (0, "third"); Scheduler.Put (1, "third") ]);
      ]
    in
    (* run_and_check verifies equivalence to commit order; additionally
       both keys must end with the same writer (no interleaving) *)
    let e = E.create ~n_keys () in
    let report = S.run e ~scripts in
    let t = E.begin_txn e in
    check
      (Alcotest.option Alcotest.string)
      "no lost update / interleaving" (E.get t 0) (E.get t 1);
    E.abort t;
    ignore report

  let prop_serializable =
    let op_gen =
      QCheck.Gen.(
        frequency
          [
            (3, map2 (fun k v -> Scheduler.Put (k, v)) (int_range 0 (n_keys - 1))
                 (string_size (int_range 1 4)));
            (1, map (fun k -> Scheduler.Delete k) (int_range 0 (n_keys - 1)));
            (2, map (fun k -> Scheduler.Get k) (int_range 0 (n_keys - 1)));
          ])
    in
    let scripts_gen =
      QCheck.Gen.(
        map
          (fun opss -> List.mapi (fun i ops -> (i, ops)) opss)
          (list_size (int_range 1 5) (list_size (int_range 0 8) op_gen)))
    in
    QCheck.Test.make
      ~name:(E.engine_name ^ ": 2PL runs are serializable")
      ~count:60
      (QCheck.make
         ~print:(fun scripts ->
           String.concat "\n"
             (List.map
                (fun (id, ops) ->
                  Printf.sprintf "%d: %s" id
                    (String.concat ";"
                       (List.map
                          (function
                            | Scheduler.Get k -> Printf.sprintf "G%d" k
                            | Scheduler.Put (k, v) -> Printf.sprintf "P%d=%s" k v
                            | Scheduler.Delete k -> Printf.sprintf "D%d" k)
                          ops)))
                scripts))
         scripts_gen)
      (fun scripts ->
        let e = E.create ~n_keys () in
        let report = S.run e ~scripts in
        serial_state ~order:report.Scheduler.commit_order ~scripts
        = engine_state (module E) e)

  let suite =
    ( "scheduler: " ^ E.engine_name,
      [
        Alcotest.test_case "disjoint scripts" `Quick test_disjoint;
        Alcotest.test_case "crossing deadlock" `Quick test_crossing_deadlock;
        Alcotest.test_case "shared reads" `Quick test_shared_reads;
        Alcotest.test_case "empty scripts" `Quick test_empty_scripts;
        Alcotest.test_case "write conflicts serialize" `Quick test_write_conflict_serializes;
        QCheck_alcotest.to_alcotest prop_serializable;
      ] )
end

module H_log = Harness (Engine_log)
module H_shadow = Harness (Dbm_storage.Engine_shadow)
module H_versel = Harness (Dbm_storage.Engine_versel)
module H_no_undo = Harness (Dbm_storage.Engine_overwrite.No_undo)
module H_no_redo = Harness (Dbm_storage.Engine_overwrite.No_redo)
module H_diff = Harness (Dbm_storage.Engine_diff)
module H_model = Harness (Kv.Model)

(* --- scheduler validation --------------------------------------------- *)

let test_duplicate_ids_rejected () =
  let module S = Scheduler.Make (Kv.Model) in
  let e = Kv.Model.create ~n_keys () in
  match S.run e ~scripts:[ (1, []); (1, []) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate script ids accepted"

(* A key outside the engine's key space fails the run loudly, whether
   its page lies outside the lock table (a negative page, the page past
   the last, max_int's) or inside it (on the logging engine's 4-key
   pages key -1 rounds to page 0, and the engine's key check rejects
   it). *)
let test_keys_outside_key_space () =
  let module S = Scheduler.Make (Kv.Model) in
  let module L = Scheduler.Make (Engine_log) in
  let raises run = match run () with exception Invalid_argument _ -> true | _ -> false in
  List.iter
    (fun k ->
      List.iter
        (fun op ->
          let scripts = [ (1, [ Scheduler.Put (0, "ok") ]); (2, [ op ]) ] in
          check Alcotest.bool (Printf.sprintf "model, key %d" k) true
            (raises (fun () -> S.run (Kv.Model.create ~n_keys ()) ~scripts));
          check Alcotest.bool (Printf.sprintf "logging, key %d" k) true
            (raises (fun () -> L.run (Engine_log.create ~n_keys ()) ~scripts)))
        [ Scheduler.Get k; Scheduler.Put (k, "x"); Scheduler.Delete k ])
    [ -5; -1; n_keys; n_keys + 3; max_int ]

(* --- group commit ------------------------------------------------------ *)

let test_group_commit_lost_without_force () =
  let e = Engine_log.create () in
  let t = Engine_log.begin_txn e in
  Engine_log.put t 1 "grouped";
  Engine_log.commit_group t;
  (* committed in memory, never forced *)
  Engine_log.crash_and_recover e;
  let t = Engine_log.begin_txn e in
  check (Alcotest.option Alcotest.string) "lost in the group-commit window" None
    (Engine_log.get t 1);
  Engine_log.abort t

let test_group_commit_durable_after_force () =
  let e = Engine_log.create () in
  let t1 = Engine_log.begin_txn e in
  Engine_log.put t1 1 "one";
  Engine_log.commit_group t1;
  let t2 = Engine_log.begin_txn e in
  Engine_log.put t2 2 "two";
  Engine_log.commit_group t2;
  Engine_log.force_commits e;
  Engine_log.crash_and_recover e;
  let t = Engine_log.begin_txn e in
  check (Alcotest.option Alcotest.string) "txn 1 durable" (Some "one") (Engine_log.get t 1);
  check (Alcotest.option Alcotest.string) "txn 2 durable" (Some "two") (Engine_log.get t 2);
  Engine_log.abort t

let test_group_commit_visible_before_force () =
  let e = Engine_log.create () in
  let t = Engine_log.begin_txn e in
  Engine_log.put t 1 "visible";
  Engine_log.commit_group t;
  let t2 = Engine_log.begin_txn e in
  check (Alcotest.option Alcotest.string) "visible to later txns while up" (Some "visible")
    (Engine_log.get t2 1);
  Engine_log.abort t2

let test_group_commit_amortizes_syncs () =
  let syncs e = List.assoc "log_syncs" (Engine_log.stats e) in
  let eager = Engine_log.create () in
  for i = 0 to 49 do
    let t = Engine_log.begin_txn eager in
    Engine_log.put t (i mod 16) "v";
    Engine_log.commit t
  done;
  let grouped = Engine_log.create () in
  for i = 0 to 49 do
    let t = Engine_log.begin_txn grouped in
    Engine_log.put t (i mod 16) "v";
    Engine_log.commit_group t;
    if i mod 10 = 9 then Engine_log.force_commits grouped
  done;
  check Alcotest.bool "an order of magnitude fewer forces" true
    (syncs grouped * 5 < syncs eager);
  (* and the grouped store is just as durable after the last force *)
  Engine_log.crash_and_recover grouped;
  let t = Engine_log.begin_txn grouped in
  check (Alcotest.option Alcotest.string) "data intact" (Some "v") (Engine_log.get t 9);
  Engine_log.abort t

let test_regular_commit_forces_group () =
  (* a regular commit forces the log disks it uses; a group-committed
     txn whose records share those disks becomes durable with it *)
  let e = Engine_log.create_with ~n_log_disks:1 () in
  let t1 = Engine_log.begin_txn e in
  Engine_log.put t1 1 "piggybacked";
  Engine_log.commit_group t1;
  let t2 = Engine_log.begin_txn e in
  Engine_log.put t2 2 "forcing";
  Engine_log.commit t2;
  Engine_log.crash_and_recover e;
  let t = Engine_log.begin_txn e in
  check (Alcotest.option Alcotest.string) "group txn rode the force" (Some "piggybacked")
    (Engine_log.get t 1);
  Engine_log.abort t

(* Property: the group-commit durability window.  Random sequences of
   put / commit / commit_group / force / crash, mirrored against the
   model where a group-committed transaction reaches the model only
   when a force (or a regular commit, which forces the logs) makes it
   durable before the next crash.  Records rotate over three log disks,
   so a commit's force must also cover disks that hold only other
   transactions' group commits. *)

type gop = GPut of int * string | GCommit | GCommitGroup | GForce | GCrash

let gop_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun k v -> GPut (k, v)) (int_range 0 15) (string_size (int_range 1 4)));
        (2, return GCommit);
        (2, return GCommitGroup);
        (2, return GForce);
        (2, return GCrash);
      ])

let prop_group_commit_window =
  QCheck.Test.make ~name:"group-commit durability window matches the model" ~count:200
    ~long_factor:20
    (QCheck.make
       ~print:(fun ops ->
         String.concat ";"
           (List.map
              (function
                | GPut (k, v) -> Printf.sprintf "P%d=%s" k v
                | GCommit -> "C"
                | GCommitGroup -> "G"
                | GForce -> "F"
                | GCrash -> "X")
              ops))
       (QCheck.Gen.list_size (QCheck.Gen.int_range 0 40) gop_gen))
    (fun ops ->
      let e = Engine_log.create_with ~n_keys:16 ~n_log_disks:3 () in
      let m = Kv.Model.create ~n_keys:16 () in
      (* live engine txn + its mirrored model writes *)
      let live : (Engine_log.txn * (int * string) list ref) option ref = ref None in
      (* model writes of group-committed txns not yet durable *)
      let pending_group : (int * string) list ref = ref [] in
      let ensure () =
        match !live with
        | Some pair -> pair
        | None ->
          let pair = (Engine_log.begin_txn e, ref []) in
          live := Some pair;
          pair
      in
      (* [model_apply] takes writes in chronological order *)
      let model_apply writes =
        let tm = Kv.Model.begin_txn m in
        List.iter (fun (k, v) -> Kv.Model.put tm k v) writes;
        Kv.Model.commit tm
      in
      List.iter
        (fun op ->
          match op with
          | GPut (k, v) ->
            let te, ws = ensure () in
            Engine_log.put te k v;
            ws := (k, v) :: !ws
          | GCommit ->
            (match !live with
            | Some (te, ws) ->
              Engine_log.commit te;
              (* a regular commit forces the logs: everything pending
                 becomes durable with it *)
              model_apply !pending_group;
              pending_group := [];
              model_apply (List.rev !ws);
              live := None
            | None -> ())
          | GCommitGroup ->
            (match !live with
            | Some (te, ws) ->
              Engine_log.commit_group te;
              pending_group := !pending_group @ List.rev !ws;
              live := None
            | None -> ())
          | GForce ->
            Engine_log.force_commits e;
            model_apply !pending_group;
            pending_group := []
          | GCrash ->
            Engine_log.crash_and_recover e;
            Kv.Model.crash_and_recover m;
            live := None;
            pending_group := [])
        ops;
      (* settle: force everything, then compare *)
      (match !live with Some (te, _) -> Engine_log.abort te | None -> ());
      Engine_log.force_commits e;
      model_apply !pending_group;
      let te = Engine_log.begin_txn e and tm = Kv.Model.begin_txn m in
      let ok = ref true in
      for k = 0 to 15 do
        if Engine_log.get te k <> Kv.Model.get tm k then ok := false
      done;
      Engine_log.abort te;
      Kv.Model.abort tm;
      !ok)

let () =
  Alcotest.run "dbm_storage scheduler + group commit"
    [
      H_model.suite;
      H_log.suite;
      H_shadow.suite;
      H_versel.suite;
      H_no_undo.suite;
      H_no_redo.suite;
      H_diff.suite;
      ( "scheduler validation",
        [
          Alcotest.test_case "duplicate ids" `Quick test_duplicate_ids_rejected;
          Alcotest.test_case "keys outside the key space" `Quick test_keys_outside_key_space;
        ] );
      ( "group commit",
        [
          Alcotest.test_case "lost without force" `Quick test_group_commit_lost_without_force;
          Alcotest.test_case "durable after force" `Quick test_group_commit_durable_after_force;
          Alcotest.test_case "visible before force" `Quick test_group_commit_visible_before_force;
          Alcotest.test_case "regular commit forces group" `Quick
            test_regular_commit_forces_group;
          Alcotest.test_case "group commit amortizes syncs" `Quick
            test_group_commit_amortizes_syncs;
          QCheck_alcotest.to_alcotest prop_group_commit_window;
        ] );
    ]
