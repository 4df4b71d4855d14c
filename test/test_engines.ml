(* Crash-recovery tests for every storage engine.

   The generic part runs random operation sequences (puts, deletes,
   commits, aborts, crashes, checkpoints) simultaneously against an
   engine and against the executable specification (Kv.Model), checking
   full-state equality after every crash and at the end: committed data
   is durable, uncommitted data is invisible — atomicity + durability
   for each of the paper's recovery mechanisms. *)

module Kv = Dbm_storage.Kv
module Engine_log = Dbm_storage.Engine_log
module Engine_oplog = Dbm_storage.Engine_oplog
module Engine_log_delta = Dbm_storage.Engine_log_delta
module Engine_shadow = Dbm_storage.Engine_shadow
module Engine_versel = Dbm_storage.Engine_versel
module Engine_overwrite = Dbm_storage.Engine_overwrite
module Engine_diff = Dbm_storage.Engine_diff

let check = Alcotest.check

let n_keys = 64

type op =
  | Put of int * string
  | Delete of int
  | Commit
  | Abort
  | Crash
  | Checkpoint

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun k v -> Put (k, v)) (int_range 0 (n_keys - 1)) (string_size (int_range 0 12)));
        (2, map (fun k -> Delete k) (int_range 0 (n_keys - 1)));
        (3, return Commit);
        (1, return Abort);
        (2, return Crash);
        (1, return Checkpoint);
      ])

let ops_arbitrary =
  let print ops =
    String.concat ";"
      (List.map
         (function
           | Put (k, v) -> Printf.sprintf "Put(%d,%S)" k v
           | Delete k -> Printf.sprintf "Del(%d)" k
           | Commit -> "Commit"
           | Abort -> "Abort"
           | Crash -> "Crash"
           | Checkpoint -> "Ckpt")
         ops)
  in
  QCheck.make ~print (QCheck.Gen.list_size (QCheck.Gen.int_range 0 60) op_gen)

module Crash_harness (E : Kv.S) = struct
  (* Compare the full committed state of engine and model. *)
  let states_equal e m =
    let te = E.begin_txn e and tm = Kv.Model.begin_txn m in
    let ok = ref true in
    for k = 0 to n_keys - 1 do
      if E.get te k <> Kv.Model.get tm k then ok := false
    done;
    E.abort te;
    Kv.Model.abort tm;
    !ok

  let run_ops ops =
    let e = E.create ~n_keys () and m = Kv.Model.create ~n_keys () in
    let live = ref None in
    let ensure_live () =
      match !live with
      | Some pair -> pair
      | None ->
        let pair = (E.begin_txn e, Kv.Model.begin_txn m) in
        live := Some pair;
        pair
    in
    let ok = ref true in
    List.iter
      (fun op ->
        match op with
        | Put (k, v) ->
          let te, tm = ensure_live () in
          E.put te k v;
          Kv.Model.put tm k v
        | Delete k ->
          let te, tm = ensure_live () in
          E.delete te k;
          Kv.Model.delete tm k
        | Commit ->
          (match !live with
          | Some (te, tm) ->
            E.commit te;
            Kv.Model.commit tm;
            live := None
          | None -> ())
        | Abort ->
          (match !live with
          | Some (te, tm) ->
            E.abort te;
            Kv.Model.abort tm;
            live := None
          | None -> ())
        | Crash ->
          E.crash_and_recover e;
          Kv.Model.crash_and_recover m;
          live := None;
          if not (states_equal e m) then ok := false
        | Checkpoint ->
          (* Checkpoints/merges require quiescence in some engines;
             exercise them only between transactions. *)
          if !live = None then begin
            E.checkpoint e;
            Kv.Model.checkpoint m
          end)
      ops;
    (match !live with
    | Some (te, tm) ->
      E.commit te;
      Kv.Model.commit tm
    | None -> ());
    !ok && states_equal e m

  let property =
    QCheck.Test.make
      ~name:(E.engine_name ^ " matches the model under crashes")
      ~count:150 ~long_factor:20 ops_arbitrary run_ops

  (* --- deterministic scenarios, one per core guarantee -------------- *)

  let test_committed_survives_crash () =
    let e = E.create ~n_keys () in
    let t = E.begin_txn e in
    E.put t 1 "alpha";
    E.put t 2 "beta";
    E.commit t;
    E.crash_and_recover e;
    let t = E.begin_txn e in
    check (Alcotest.option Alcotest.string) "key 1 durable" (Some "alpha") (E.get t 1);
    check (Alcotest.option Alcotest.string) "key 2 durable" (Some "beta") (E.get t 2);
    E.abort t

  let test_uncommitted_invisible_after_crash () =
    let e = E.create ~n_keys () in
    let t = E.begin_txn e in
    E.put t 1 "committed";
    E.commit t;
    let t = E.begin_txn e in
    E.put t 1 "torn";
    E.put t 5 "torn";
    E.crash_and_recover e;
    let t2 = E.begin_txn e in
    check (Alcotest.option Alcotest.string) "old value back" (Some "committed") (E.get t2 1);
    check (Alcotest.option Alcotest.string) "never-committed key empty" None (E.get t2 5);
    E.abort t2;
    (* the dead handle is unusable *)
    match E.get t 1 with
    | exception Kv.Txn_finished -> ()
    | _ -> Alcotest.fail "stale handle still usable"

  let test_abort_undoes () =
    let e = E.create ~n_keys () in
    let t = E.begin_txn e in
    E.put t 3 "keep";
    E.commit t;
    let t = E.begin_txn e in
    E.put t 3 "drop";
    E.delete t 3;
    E.put t 4 "drop";
    E.abort t;
    let t = E.begin_txn e in
    check (Alcotest.option Alcotest.string) "abort undone" (Some "keep") (E.get t 3);
    check (Alcotest.option Alcotest.string) "no leak" None (E.get t 4);
    E.abort t

  let test_read_own_writes () =
    let e = E.create ~n_keys () in
    let t = E.begin_txn e in
    E.put t 7 "mine";
    check (Alcotest.option Alcotest.string) "own write visible" (Some "mine") (E.get t 7);
    E.delete t 7;
    check (Alcotest.option Alcotest.string) "own delete visible" None (E.get t 7);
    E.abort t

  let test_delete_then_crash () =
    let e = E.create ~n_keys () in
    let t = E.begin_txn e in
    E.put t 9 "gone soon";
    E.commit t;
    let t = E.begin_txn e in
    E.delete t 9;
    E.commit t;
    E.crash_and_recover e;
    let t = E.begin_txn e in
    check (Alcotest.option Alcotest.string) "committed delete durable" None (E.get t 9);
    E.abort t

  let test_double_crash () =
    let e = E.create ~n_keys () in
    let t = E.begin_txn e in
    E.put t 2 "v";
    E.commit t;
    E.crash_and_recover e;
    E.crash_and_recover e;
    let t = E.begin_txn e in
    check (Alcotest.option Alcotest.string) "stable across repeated recovery" (Some "v")
      (E.get t 2);
    E.abort t

  let test_checkpoint_preserves_state () =
    let e = E.create ~n_keys () in
    let t = E.begin_txn e in
    E.put t 11 "a";
    E.put t 12 "b";
    E.commit t;
    E.checkpoint e;
    E.crash_and_recover e;
    let t = E.begin_txn e in
    check (Alcotest.option Alcotest.string) "after checkpoint+crash" (Some "a") (E.get t 11);
    check (Alcotest.option Alcotest.string) "after checkpoint+crash 2" (Some "b") (E.get t 12);
    E.abort t

  let test_key_bounds () =
    let e = E.create ~n_keys () in
    let t = E.begin_txn e in
    List.iter
      (fun k ->
        let out_of_range = Invalid_argument (Printf.sprintf "key %d out of range" k) in
        Alcotest.check_raises "get" out_of_range (fun () -> ignore (E.get t k));
        Alcotest.check_raises "put" out_of_range (fun () -> E.put t k "x");
        Alcotest.check_raises "delete" out_of_range (fun () -> E.delete t k))
      [ -1; n_keys ];
    E.abort t;
    match E.create ~n_keys:0 () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "a store with no keys"

  let suite =
    ( E.engine_name,
      [
        Alcotest.test_case "committed survives crash" `Quick test_committed_survives_crash;
        Alcotest.test_case "uncommitted invisible after crash" `Quick
          test_uncommitted_invisible_after_crash;
        Alcotest.test_case "abort undoes" `Quick test_abort_undoes;
        Alcotest.test_case "read own writes" `Quick test_read_own_writes;
        Alcotest.test_case "delete then crash" `Quick test_delete_then_crash;
        Alcotest.test_case "double crash" `Quick test_double_crash;
        Alcotest.test_case "checkpoint preserves state" `Quick test_checkpoint_preserves_state;
        Alcotest.test_case "key bounds" `Quick test_key_bounds;
        QCheck_alcotest.to_alcotest property;
      ] )
end

(* Engine variants under test. *)

module Log_default = Crash_harness (Engine_log)

module Log3 = Crash_harness (struct
  include Engine_log

  let engine_name = "logging-cyclic-on-3-disks"
  let create ?n_keys () = create_with ?n_keys ~n_log_disks:3 ()
end)

module Log_delta = Crash_harness (struct
  include Engine_log_delta

  let engine_name = "logging-delta-records"
end)

module Log_logical = Crash_harness (struct
  include Engine_log

  let engine_name = "logging-logical-2-disks"
  let create ?n_keys () = create_with ?n_keys ~log_format:Engine_log.Logical ()
end)

module Oplog_h = Crash_harness (Engine_oplog)
module Shadow_h = Crash_harness (Engine_shadow)
module Versel_h = Crash_harness (Engine_versel)
module No_undo_h = Crash_harness (Engine_overwrite.No_undo)
module No_redo_h = Crash_harness (Engine_overwrite.No_redo)
module Diff_h = Crash_harness (Engine_diff)
module Model_h = Crash_harness (Kv.Model)

(* --- engine-specific behaviours -------------------------------------- *)

let test_log_wal_order () =
  let e = Engine_log.create () in
  let t = Engine_log.begin_txn e in
  Engine_log.put t 0 "x";
  Engine_log.commit t;
  (* somewhere in the logs there is an Update for page 0 followed (in
     LSN order) by a Commit of the same transaction *)
  let records =
    List.concat
      (List.init (Engine_log.log_disks e) (fun d -> Engine_log.dump_log e ~disk:d))
  in
  let ordered = List.sort (fun a b -> Int.compare (Dbm_storage.Wal.lsn a) (Dbm_storage.Wal.lsn b)) records in
  let rec scan saw_update = function
    | [] -> Alcotest.fail "no commit after update"
    | Dbm_storage.Wal.Update _ :: rest -> scan true rest
    | Dbm_storage.Wal.Commit _ :: _ when saw_update -> ()
    | _ :: rest -> scan saw_update rest
  in
  scan false ordered

let test_log_distributes_over_disks () =
  let e = Engine_log.create_with ~n_log_disks:3 () in
  let t = Engine_log.begin_txn e in
  for k = 0 to 20 do
    Engine_log.put t k "v"
  done;
  Engine_log.commit t;
  for d = 0 to 2 do
    if Engine_log.dump_log e ~disk:d = [] then Alcotest.failf "log disk %d unused" d
  done

let test_log_checkpoint_truncates () =
  let e = Engine_log.create () in
  for i = 0 to 9 do
    let t = Engine_log.begin_txn e in
    Engine_log.put t i "v";
    Engine_log.commit t
  done;
  let before = List.assoc "durable_records" (Engine_log.stats e) in
  Engine_log.checkpoint e;
  let after = List.assoc "durable_records" (Engine_log.stats e) in
  check Alcotest.bool "log shrank" true (after < before);
  Engine_log.crash_and_recover e;
  let t = Engine_log.begin_txn e in
  check (Alcotest.option Alcotest.string) "state preserved" (Some "v") (Engine_log.get t 4);
  Engine_log.abort t

let test_log_sharp_checkpoint_keeps_undo () =
  let e = Engine_log.create () in
  let t1 = Engine_log.begin_txn e in
  Engine_log.put t1 1 "uncommitted";
  (* sharp checkpoint with t1 still active: its page is forced (steal)
     and its record must survive the truncation *)
  Engine_log.checkpoint e;
  Engine_log.crash_and_recover e;
  let t = Engine_log.begin_txn e in
  check (Alcotest.option Alcotest.string) "active txn undone despite checkpoint" None
    (Engine_log.get t 1);
  Engine_log.abort t

let test_log_sharp_checkpoint_keeps_both_disks () =
  (* Cyclic selection spreads the live transaction's updates over both
     log disks; the committed history before it gives the truncation
     something to drop on each disk.  The checkpoint forces the loser's
     pages (steal), so every one of its records must survive on its
     own disk for the crash to undo it. *)
  let e = Engine_log.create () in
  for i = 0 to 5 do
    let t = Engine_log.begin_txn e in
    Engine_log.put t (i * 4) "committed";
    Engine_log.commit t
  done;
  let loser = Engine_log.begin_txn e in
  List.iter (fun k -> Engine_log.put loser k "loser") [ 0; 4; 8; 12 ];
  let loser_updates disk =
    List.length
      (List.filter
         (function Dbm_storage.Wal.Update { txn; _ } -> txn = 7 | _ -> false)
         (Engine_log.dump_log e ~disk))
  in
  Engine_log.checkpoint e;
  check Alcotest.(pair int int) "loser records kept on both disks" (2, 2)
    (loser_updates 0, loser_updates 1);
  check Alcotest.int "only the loser's records and the checkpoint remain" 5
    (List.assoc "durable_records" (Engine_log.stats e));
  Engine_log.crash_and_recover e;
  let t = Engine_log.begin_txn e in
  List.iter
    (fun k ->
      check (Alcotest.option Alcotest.string) "loser undone" (Some "committed")
        (Engine_log.get t k))
    [ 0; 4; 8; 12 ];
  Engine_log.abort t

(* Two crashes around a steal.  The first recovery leaves a loser's
   page alone, because its durable image predates every retained record
   of the loser; the loser's records stay in the log.  A later writer's
   steal moves the page past them, so the second recovery restores the
   before image of the loser's earliest retained record.  That image
   must predate the whole loser: a force that left its earlier records
   volatile on another log disk would make it hold a lost update. *)
let two_crashes_around_a_steal ~fmt ~loser ~writer ~keys =
  List.iter
    (fun (path, recover) ->
      let e = Engine_log.create_with ~log_format:fmt () in
      loser e;
      Engine_log.commit (Engine_log.begin_txn e);
      recover e;
      writer (Engine_log.begin_txn e);
      Engine_log.flush e;
      recover e;
      let t = Engine_log.begin_txn e in
      check
        Alcotest.(list (option string))
        (path ^ ": loser invisible") (List.map (fun _ -> None) keys)
        (List.map (Engine_log.get t) keys);
      Engine_log.abort t)
    [
      ("parallel", Engine_log.crash_and_recover);
      ("reference", Engine_log.crash_and_recover_reference);
    ]

let test_log_loser_out_after_two_crashes () =
  (* The loser's three updates of page 0 go to disks 0, 1 and 0, and the
     empty transaction's commit record to disk 1. *)
  two_crashes_around_a_steal ~fmt:Engine_log.Physical ~keys:[ 0; 1; 2; 3 ]
    ~loser:(fun e ->
      let t = Engine_log.begin_txn e in
      List.iter (fun k -> Engine_log.put t k "loser") [ 1; 2; 3 ])
    ~writer:(fun t -> Engine_log.put t 0 "writer")

let test_delta_abort_out_after_two_crashes () =
  (* The aborted put of key 5 goes to disk 0, its logged restore of page
     1 to disk 1, its abort record to disk 0 and the empty transaction's
     commit record to disk 1. *)
  two_crashes_around_a_steal ~fmt:Engine_log.Delta ~keys:[ 5; 6 ]
    ~loser:(fun e ->
      let t = Engine_log.begin_txn e in
      Engine_log.put t 5 "aborted";
      Engine_log.abort t)
    ~writer:(fun t -> Engine_log.put t 6 "writer")

(* Interleaved transactions with crashes around steals.  Up to three
   transactions are live at once, one per slot; a slot owns the pages p
   with p mod 3 = slot, so live writers never share a page
   ([Engine_log] does not lock).  The model holds every key's durable
   committed value.  A group commit joins it at the next force: an
   eager decision, [force_commits], [flush] or either checkpoint, each
   of which forces every log disk.  A crash drops pending group commits
   and live transactions, and every key must then read the model's
   value. *)
type iop =
  | I_put of int * string
  | I_delete of int
  | I_commit of int
  | I_group of int
  | I_abort of int
  | I_force
  | I_flush
  | I_sharp
  | I_fuzzy
  | I_crash

let i_keys = 24

let iop_arbitrary =
  let slot = QCheck.Gen.int_range 0 2 and key = QCheck.Gen.int_range 0 (i_keys - 1) in
  let gen =
    QCheck.Gen.(
      frequency
        [
          (6, map2 (fun k v -> I_put (k, v)) key (string_size ~gen:printable (int_range 1 6)));
          (2, map (fun k -> I_delete k) key);
          (2, map (fun s -> I_commit s) slot);
          (2, map (fun s -> I_group s) slot);
          (2, map (fun s -> I_abort s) slot);
          (1, return I_force);
          (1, return I_flush);
          (1, return I_sharp);
          (1, return I_fuzzy);
          (2, return I_crash);
        ])
  in
  let print =
    List.map (function
      | I_put (k, v) -> Printf.sprintf "Put(%d,%S)" k v
      | I_delete k -> Printf.sprintf "Del(%d)" k
      | I_commit s -> Printf.sprintf "Commit%d" s
      | I_group s -> Printf.sprintf "Group%d" s
      | I_abort s -> Printf.sprintf "Abort%d" s
      | I_force -> "Force"
      | I_flush -> "Flush"
      | I_sharp -> "Sharp"
      | I_fuzzy -> "Fuzzy"
      | I_crash -> "Crash")
  in
  QCheck.make
    ~print:(fun ops -> String.concat ";" (print ops))
    QCheck.Gen.(list_size (int_range 0 80) gen)

(* The first key that reads other than the model after a crash, if any;
   the history ends with a crash. *)
let run_interleaved ~log_format ~n_log_disks ops =
  let e = Engine_log.create_with ~n_keys:i_keys ~n_log_disks ~log_format () in
  let slot k = k / Engine_log.keys_per_page e mod 3 in
  let durable = Array.make i_keys None in
  (* Writes newest first: the live transaction's per slot, and the
     group-committed ones no force has covered yet. *)
  let live = Array.make 3 None and pending = ref [] in
  let apply writes = List.iter (fun (k, v) -> durable.(k) <- v) (List.rev writes) in
  let forced () =
    apply !pending;
    pending := []
  in
  let txn s = match live.(s) with Some tw -> tw | None -> (Engine_log.begin_txn e, []) in
  let write k v =
    let t, ws = txn (slot k) in
    (match v with Some v -> Engine_log.put t k v | None -> Engine_log.delete t k);
    live.(slot k) <- Some (t, (k, v) :: ws)
  in
  let mismatch = ref None in
  List.iter
    (function
      | I_put (k, v) -> write k (Some v)
      | I_delete k -> write k None
      | I_commit s ->
        let t, ws = txn s in
        Engine_log.commit t;
        live.(s) <- None;
        forced ();
        apply ws
      | I_group s ->
        Option.iter
          (fun (t, ws) ->
            Engine_log.commit_group t;
            live.(s) <- None;
            pending := ws @ !pending)
          live.(s)
      | I_abort s ->
        Option.iter
          (fun (t, _) ->
            Engine_log.abort t;
            live.(s) <- None)
          live.(s)
      | I_force ->
        Engine_log.force_commits e;
        forced ()
      | I_flush ->
        Engine_log.flush e;
        forced ()
      | I_sharp ->
        Engine_log.checkpoint e;
        forced ()
      | I_fuzzy ->
        Engine_log.checkpoint_fuzzy e;
        forced ()
      | I_crash ->
        Engine_log.crash_and_recover e;
        Array.fill live 0 3 None;
        pending := [];
        let t = Engine_log.begin_txn e in
        Array.iteri
          (fun k v -> if !mismatch = None && Engine_log.get t k <> v then mismatch := Some k)
          durable;
        Engine_log.abort t)
    (ops @ [ I_crash ]);
  !mismatch

let prop_log_interleaved =
  QCheck.Test.make ~name:"log: interleaved txns match the model after crashes" ~count:75
    ~long_factor:20 iop_arbitrary (fun ops ->
      List.for_all
        (fun (fmt, log_format) ->
          List.for_all
            (fun n_log_disks ->
              match run_interleaved ~log_format ~n_log_disks ops with
              | None -> true
              | Some k ->
                QCheck.Test.fail_reportf "%s on %d disks: key %d differs from the model" fmt
                  n_log_disks k)
            [ 2; 3 ])
        [ ("physical", Engine_log.Physical); ("delta", Engine_log.Delta); ("logical", Engine_log.Logical) ])

let test_oplog_sharp_checkpoint_truncates_live () =
  (* No steal under a live writer: the sharp checkpoint cannot force the
     data disk, so its start is the first operation the durable image
     lacks (the fifth commit's, after the flush), and the records below
     it go. *)
  let e = Engine_oplog.create () in
  let commit k =
    let t = Engine_oplog.begin_txn e in
    Engine_oplog.put t k "committed";
    Engine_oplog.commit t
  in
  List.iter commit [ 0; 1; 2; 3 ];
  Engine_oplog.flush e;
  List.iter commit [ 4; 5; 6; 7 ];
  Engine_oplog.put (Engine_oplog.begin_txn e) 8 "loser";
  let records () = List.assoc "durable_records" (Engine_oplog.stats e) in
  let before = records () in
  Engine_oplog.checkpoint e;
  check Alcotest.bool "log shrank" true (records () < before);
  Engine_oplog.crash_and_recover e;
  let t = Engine_oplog.begin_txn e in
  check
    Alcotest.(list (option string))
    "committed kept, writer dropped"
    (List.init 8 (fun _ -> Some "committed") @ [ None ])
    (List.map (Engine_oplog.get t) (List.init 9 Fun.id));
  Engine_oplog.abort t

let test_log_checkpoint_keeps_prepared_votes () =
  (* gid 7 votes with no update, so its prepare is its first record: a
     start taken from first updates alone would truncate the vote. *)
  let e = Engine_log.create () in
  Engine_log.prepare (Engine_log.begin_txn e) ~gid:7;
  let t = Engine_log.begin_txn e in
  Engine_log.put t 3 "prepared";
  Engine_log.prepare t ~gid:8;
  Engine_log.checkpoint e;
  check Alcotest.(list int) "both in doubt" [ 7; 8 ] (List.map snd (Engine_log.in_doubt e));
  Engine_log.crash_and_recover_resolved ~resolve:(fun ~gid:_ -> true) e;
  check Alcotest.int "none in doubt" 0 (List.length (Engine_log.in_doubt e));
  let t = Engine_log.begin_txn e in
  check (Alcotest.option Alcotest.string) "update applied" (Some "prepared") (Engine_log.get t 3);
  Engine_log.abort t

let test_log_checkpoint_keeps_abort_whole () =
  (* The loser's second update of page 0 logs a before image holding its
     first, the writer's first record falls between the two, and the
     flush forces the undone page.  Whether the writer is still live or
     aborted after the flush, neither checkpoint may start between the
     loser's records: replay would reinstate its first update. *)
  let run fmt writer_aborts checkpoint =
    let e = Engine_log.create_with ~log_format:fmt () in
    let loser = Engine_log.begin_txn e and writer = Engine_log.begin_txn e in
    Engine_log.put loser 0 "loser";
    Engine_log.put writer 40 "writer";
    Engine_log.put loser 1 "loser";
    Engine_log.abort loser;
    Engine_log.flush e;
    if writer_aborts then Engine_log.abort writer;
    checkpoint e;
    Engine_log.crash_and_recover e;
    let t = Engine_log.begin_txn e in
    check
      Alcotest.(list (option string))
      "nothing survives" [ None; None; None ]
      (List.map (Engine_log.get t) [ 0; 1; 40 ])
  in
  List.iter
    (fun fmt ->
      List.iter
        (fun writer_aborts ->
          run fmt writer_aborts Engine_log.checkpoint;
          run fmt writer_aborts (fun e -> Engine_log.checkpoint_fuzzy e))
        [ false; true ])
    [ Engine_log.Physical; Engine_log.Delta ]

let test_delta_sharp_checkpoint_rewinds_loser () =
  (* The committed puts leave page 0 dirty, so the loser's two updates
     of it log slices, not a full image.  The sharp checkpoint forces
     the page with both slices applied and truncates the committed
     records, anchor included: replay must rewind the durable page over
     both slices, the newest one at its header LSN too, to undo the
     loser. *)
  List.iter
    (fun (path, recover) ->
      let e = Engine_log.create_with ~log_format:Engine_log.Delta () in
      List.iter
        (fun k ->
          let t = Engine_log.begin_txn e in
          Engine_log.put t k "committed";
          Engine_log.commit t)
        [ 0; 1; 2 ];
      let loser = Engine_log.begin_txn e in
      Engine_log.put loser 1 "loser";
      Engine_log.put loser 3 "loser";
      Engine_log.checkpoint e;
      check Alcotest.bool (path ^ ": replay window opens on slices") true
        (List.for_all
           (function Dbm_storage.Wal.Update _ -> false | _ -> true)
           (Engine_log.dump_log e ~disk:0 @ Engine_log.dump_log e ~disk:1));
      recover e;
      let t = Engine_log.begin_txn e in
      check
        Alcotest.(list (option string))
        (path ^ ": loser undone")
        [ Some "committed"; Some "committed"; Some "committed"; None ]
        (List.map (Engine_log.get t) [ 0; 1; 2; 3 ]);
      Engine_log.abort t)
    [
      ("parallel", Engine_log.crash_and_recover);
      ("reference", Engine_log.crash_and_recover_reference);
    ]

let test_log_flush_steal_then_crash () =
  let e = Engine_log.create () in
  let t = Engine_log.begin_txn e in
  Engine_log.put t 1 "dirty";
  (* steal: the dirty page reaches disk before commit *)
  Engine_log.flush e;
  Engine_log.crash_and_recover e;
  let t2 = Engine_log.begin_txn e in
  check (Alcotest.option Alcotest.string) "stolen page rolled back" None (Engine_log.get t2 1);
  Engine_log.abort t2;
  match Engine_log.get t 1 with
  | exception Kv.Txn_finished -> ()
  | _ -> Alcotest.fail "stale handle usable"

let test_shadow_blocks_move () =
  let e = Engine_shadow.create () in
  let b0 = Engine_shadow.current_block e ~page:0 in
  let t = Engine_shadow.begin_txn e in
  Engine_shadow.put t 0 "moved";
  Engine_shadow.commit t;
  let b1 = Engine_shadow.current_block e ~page:0 in
  check Alcotest.bool "update relocated the page" true (b0 <> b1)

let test_shadow_free_blocks_conserved () =
  let e = Engine_shadow.create () in
  let before = Engine_shadow.free_blocks e in
  let t = Engine_shadow.begin_txn e in
  Engine_shadow.put t 0 "x";
  Engine_shadow.commit t;
  check Alcotest.int "one old block freed, one new used" before (Engine_shadow.free_blocks e);
  let t = Engine_shadow.begin_txn e in
  Engine_shadow.put t 4 "y";
  Engine_shadow.abort t;
  check Alcotest.int "abort returns the block" before (Engine_shadow.free_blocks e)

let test_shadow_crash_keeps_generation () =
  let e = Engine_shadow.create () in
  let t = Engine_shadow.begin_txn e in
  Engine_shadow.put t 0 "committed";
  Engine_shadow.commit t;
  let flips = Engine_shadow.table_flips e in
  let t = Engine_shadow.begin_txn e in
  Engine_shadow.put t 0 "uncommitted";
  Engine_shadow.crash_and_recover e;
  check Alcotest.int "flips survive" flips (Engine_shadow.table_flips e);
  ignore t

let test_versel_versions_grow () =
  let e = Engine_versel.create () in
  let t = Engine_versel.begin_txn e in
  Engine_versel.put t 0 "v1";
  Engine_versel.commit t;
  let a1, b1 = Engine_versel.slot_versions e ~page:0 in
  let t = Engine_versel.begin_txn e in
  Engine_versel.put t 0 "v2";
  Engine_versel.commit t;
  let a2, b2 = Engine_versel.slot_versions e ~page:0 in
  check Alcotest.bool "version advanced" true (max a2 b2 > max a1 b1);
  check Alcotest.bool "both slots populated" true (min a2 b2 > 0)

let test_versel_txn_ids_not_reused_after_crash () =
  let e = Engine_versel.create () in
  let t = Engine_versel.begin_txn e in
  Engine_versel.put t 0 "garbage";
  (* crash with the uncommitted slot written but not selected *)
  Engine_versel.crash_and_recover e;
  (* a new transaction must NOT pick up the crashed transaction's id,
     or the garbage slot would suddenly become visible on its commit *)
  let t2 = Engine_versel.begin_txn e in
  Engine_versel.put t2 5 "fresh";
  Engine_versel.commit t2;
  let t3 = Engine_versel.begin_txn e in
  check (Alcotest.option Alcotest.string) "garbage still invisible" None (Engine_versel.get t3 0);
  Engine_versel.abort t3

let test_overwrite_scratch_released () =
  let e = Engine_overwrite.No_undo.create () in
  let t = Engine_overwrite.No_undo.begin_txn e in
  Engine_overwrite.No_undo.put t 0 "a";
  Engine_overwrite.No_undo.put t 10 "b";
  check Alcotest.int "two slots held" 2 (Engine_overwrite.No_undo.scratch_in_use e);
  Engine_overwrite.No_undo.commit t;
  check Alcotest.int "slots released after install" 0 (Engine_overwrite.No_undo.scratch_in_use e)

let test_overwrite_scratch_overflow () =
  let e = Engine_overwrite.No_undo.create_with ~n_keys:64 ~scratch_slots:2 () in
  let t = Engine_overwrite.No_undo.begin_txn e in
  Engine_overwrite.No_undo.put t 0 "a";
  Engine_overwrite.No_undo.put t 4 "b";
  match Engine_overwrite.No_undo.put t 8 "c" with
  | exception Kv.Scratch_full -> ()
  | _ -> Alcotest.fail "scratch overflow not detected"

let test_overwrite_no_undo_reinstall_after_crash () =
  let e = Engine_overwrite.No_undo.create () in
  let t = Engine_overwrite.No_undo.begin_txn e in
  Engine_overwrite.No_undo.put t 3 "durable";
  (* committed, but the install pass never ran *)
  Engine_overwrite.No_undo.commit_without_install t;
  Engine_overwrite.No_undo.crash_and_recover e;
  let t2 = Engine_overwrite.No_undo.begin_txn e in
  check (Alcotest.option Alcotest.string) "recovery re-installed" (Some "durable")
    (Engine_overwrite.No_undo.get t2 3);
  Engine_overwrite.No_undo.abort t2;
  check Alcotest.int "slots reclaimed" 0 (Engine_overwrite.No_undo.scratch_in_use e)

let test_overwrite_no_redo_restores_after_crash () =
  let e = Engine_overwrite.No_redo.create () in
  let t = Engine_overwrite.No_redo.begin_txn e in
  Engine_overwrite.No_redo.put t 3 "old";
  Engine_overwrite.No_redo.commit t;
  let t = Engine_overwrite.No_redo.begin_txn e in
  Engine_overwrite.No_redo.put t 3 "overwritten in place";
  (* the home block now holds uncommitted data; crash *)
  Engine_overwrite.No_redo.crash_and_recover e;
  let t2 = Engine_overwrite.No_redo.begin_txn e in
  check (Alcotest.option Alcotest.string) "shadow restored" (Some "old")
    (Engine_overwrite.No_redo.get t2 3);
  Engine_overwrite.No_redo.abort t2;
  ignore t

let test_shadow_out_of_blocks () =
  (* spare_factor 1 gives one spare block per logical page; a single
     transaction can shadow every page, but two concurrent ones cannot *)
  let e = Engine_shadow.create_with ~n_keys:8 ~spare_factor:1 () in
  let t1 = Engine_shadow.begin_txn e in
  Engine_shadow.put t1 0 "a";
  Engine_shadow.put t1 4 "b";
  let t2 = Engine_shadow.begin_txn e in
  (match Engine_shadow.put t2 0 "c" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "block exhaustion not reported");
  Engine_shadow.abort t2;
  Engine_shadow.commit t1;
  (* after commit the old blocks are free again *)
  let t3 = Engine_shadow.begin_txn e in
  Engine_shadow.put t3 0 "d";
  Engine_shadow.commit t3

let test_journal_truncate_then_crash_recovery () =
  (* checkpoint truncation followed by a crash must still recover: the
     truncated history's effects are on the durable data disk *)
  let e = Engine_log.create () in
  for i = 0 to 5 do
    let t = Engine_log.begin_txn e in
    Engine_log.put t i (Printf.sprintf "v%d" i);
    Engine_log.commit t
  done;
  Engine_log.checkpoint e;
  let t = Engine_log.begin_txn e in
  Engine_log.put t 0 "after-checkpoint";
  Engine_log.commit t;
  Engine_log.crash_and_recover e;
  let t = Engine_log.begin_txn e in
  check (Alcotest.option Alcotest.string) "pre-checkpoint data" (Some "v5") (Engine_log.get t 5);
  check (Alcotest.option Alcotest.string) "post-checkpoint data" (Some "after-checkpoint")
    (Engine_log.get t 0);
  Engine_log.abort t

let test_versel_interleaved_commits () =
  (* two transactions on different pages, interleaved commit order *)
  let e = Engine_versel.create () in
  let t1 = Engine_versel.begin_txn e in
  let t2 = Engine_versel.begin_txn e in
  Engine_versel.put t1 0 "from-t1";
  Engine_versel.put t2 8 "from-t2";
  Engine_versel.commit t2;
  Engine_versel.commit t1;
  Engine_versel.crash_and_recover e;
  let t = Engine_versel.begin_txn e in
  check (Alcotest.option Alcotest.string) "t1 durable" (Some "from-t1") (Engine_versel.get t 0);
  check (Alcotest.option Alcotest.string) "t2 durable" (Some "from-t2") (Engine_versel.get t 8);
  Engine_versel.abort t

let test_diff_files_grow_then_merge () =
  let e = Engine_diff.create () in
  let t = Engine_diff.begin_txn e in
  Engine_diff.put t 0 "a";
  Engine_diff.put t 1 "b";
  Engine_diff.delete t 2;
  Engine_diff.commit t;
  check Alcotest.int "A records" 2 (Engine_diff.a_size e);
  check Alcotest.int "D records" 1 (Engine_diff.d_size e);
  Engine_diff.checkpoint e;
  check Alcotest.int "A merged away" 0 (Engine_diff.a_size e);
  check Alcotest.int "D merged away" 0 (Engine_diff.d_size e);
  check Alcotest.int "one merge" 1 (Engine_diff.merges e);
  let t = Engine_diff.begin_txn e in
  check (Alcotest.option Alcotest.string) "base holds the value" (Some "a") (Engine_diff.get t 0);
  Engine_diff.abort t

let test_diff_merge_requires_quiescence () =
  let e = Engine_diff.create () in
  let t = Engine_diff.begin_txn e in
  Engine_diff.put t 0 "x";
  (match Engine_diff.checkpoint e with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "merge with a live transaction accepted");
  Engine_diff.abort t

let test_diff_newest_wins () =
  let e = Engine_diff.create () in
  let t = Engine_diff.begin_txn e in
  Engine_diff.put t 0 "first";
  Engine_diff.commit t;
  let t = Engine_diff.begin_txn e in
  Engine_diff.delete t 0;
  Engine_diff.commit t;
  let t = Engine_diff.begin_txn e in
  Engine_diff.put t 0 "second";
  Engine_diff.commit t;
  let t = Engine_diff.begin_txn e in
  check (Alcotest.option Alcotest.string) "A beats older D" (Some "second") (Engine_diff.get t 0);
  Engine_diff.abort t

let minor_words_of f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

(* A repeat put to a page its transaction has already dirtied copies no
   page into a fresh buffer: the after image is built in the engine's
   scratch and written into the page's own buffer, and the undo copy was
   taken by the first put.  A 1 KB page copy is 129 words; a physical
   record's 2 KB encoding is allocated outside the minor heap. *)
let test_log_repeat_put_allocation () =
  List.iter
    (fun (name, log_format) ->
      let e = Engine_log.create_with ~n_keys:64 ~log_format () in
      let t = Engine_log.begin_txn e in
      Engine_log.put t 4 "first";
      Engine_log.put t 5 "other";
      let words = minor_words_of (fun () -> Engine_log.put t 5 "again") in
      if words >= 64.0 then Alcotest.failf "%s: a repeat put allocates %.0f minor words" name words;
      Engine_log.abort t)
    [
      ("physical", Engine_log.Physical);
      ("delta", Engine_log.Delta);
      ("logical", Engine_log.Logical);
    ]

(* A read walks only its own key's versions: reading key 0 costs the
   base-page lookup, however many records (here 10,000) the
   differential files hold for other keys.  A scan of both files
   allocates per record. *)
let test_diff_read_allocation_bounded () =
  let e = Engine_diff.create ~n_keys:64 () in
  for i = 0 to 99 do
    let t = Engine_diff.begin_txn e in
    for j = 0 to 99 do
      Engine_diff.put t (1 + ((i + j) mod 63)) "v"
    done;
    Engine_diff.commit t
  done;
  let t = Engine_diff.begin_txn e in
  let s = Engine_diff.snapshot e in
  let get = minor_words_of (fun () -> Engine_diff.get t 0) in
  let snapshot_get = minor_words_of (fun () -> Engine_diff.snapshot_get s 0) in
  if get > 64.0 || snapshot_get > 64.0 then
    Alcotest.failf "reading an untouched key allocates %.0f (get) / %.0f (snapshot_get) words"
      get snapshot_get;
  Engine_diff.snapshot_release s;
  Engine_diff.abort t

(* Recovery leaves the read index to the first read: it decodes each
   of 10,000 records once for the counters, and allocates less than the
   first read after it, which decodes them again and builds and sorts
   the chains. *)
let test_diff_recovery_leaves_index_to_reads () =
  let e = Engine_diff.create ~n_keys:64 () in
  for _ = 1 to 20 do
    let t = Engine_diff.begin_txn e in
    for j = 0 to 499 do
      Engine_diff.put t (j mod 64) (Printf.sprintf "v%d" j)
    done;
    Engine_diff.commit t
  done;
  let recover = minor_words_of (fun () -> Engine_diff.crash_and_recover e) in
  let t = Engine_diff.begin_txn e in
  let read = minor_words_of (fun () -> Engine_diff.get t 3) in
  check (Alcotest.option Alcotest.string) "first read sees the files" (Some "v451")
    (Engine_diff.get t 3);
  Engine_diff.abort t;
  if recover >= read then
    Alcotest.failf "recovery allocates %.0f words, the first read after it %.0f" recover read

(* Recovery restarts the transaction ids past every durable record's
   writer, not only past the committed ids: a loser's record made
   durable by another commit's force must stay a loser's. *)
let test_diff_txn_ids_not_reused () =
  let e = Engine_diff.create ~n_keys () in
  let w = Engine_diff.begin_txn e in
  let l = Engine_diff.begin_txn e in
  Engine_diff.put l 0 "loser";
  Engine_diff.put w 1 "winner";
  (* forces the shared A file, the loser's record with it *)
  Engine_diff.commit w;
  Engine_diff.crash_and_recover e;
  let t = Engine_diff.begin_txn e in
  check (Alcotest.option Alcotest.string) "loser invisible" None (Engine_diff.get t 0);
  Engine_diff.put t 2 "fresh";
  Engine_diff.commit t;
  Engine_diff.crash_and_recover e;
  let t = Engine_diff.begin_txn e in
  check (Alcotest.option Alcotest.string) "loser invisible after a commit" None
    (Engine_diff.get t 0);
  Engine_diff.abort t

(* The merge folds group-committed transactions into the base, so it
   must make their commit records durable too: merging and crashing
   recovers the state an eager commit would. *)
let test_diff_merge_makes_group_commits_durable () =
  let merged_then_crashed commit =
    let e = Engine_diff.create ~n_keys () in
    let t = Engine_diff.begin_txn e in
    Engine_diff.put t 0 "zero";
    Engine_diff.delete t 1;
    commit t;
    Engine_diff.checkpoint e;
    Engine_diff.crash_and_recover e;
    Engine_diff.state_fingerprint e
  in
  check Alcotest.string "grouped = eager after merge and crash"
    (merged_then_crashed Engine_diff.commit)
    (merged_then_crashed Engine_diff.commit_group)

(* The merge bounds the read index as it bounds the files: once a read
   follows the last merge, the store holds about as much after 10,000
   merged records as after 1,000.  The slack covers the journals'
   buffers, which keep their largest capacity. *)
let test_diff_merge_bounds_index () =
  let held ~puts =
    let e = Engine_diff.create ~n_keys:64 () in
    for _ = 1 to 10 do
      let t = Engine_diff.begin_txn e in
      for j = 0 to puts - 1 do
        Engine_diff.put t (j mod 64) "v"
      done;
      Engine_diff.commit t;
      Engine_diff.checkpoint e
    done;
    let t = Engine_diff.begin_txn e in
    check (Alcotest.option Alcotest.string) "merged value" (Some "v") (Engine_diff.get t 0);
    Engine_diff.abort t;
    Obj.reachable_words (Obj.repr e)
  in
  let short = held ~puts:100 and long = held ~puts:1000 in
  if long > short + 4096 then
    Alcotest.failf "store holds %d words after 10,000 merged records, %d after 1,000" long short

(* --- log-format head-to-head: physical / delta / logical -------------- *)

(* The three formats' LSN streams are aligned by construction (one LSN
   per update, one per commit/abort, one per abort-restored page), so on
   the same history they must recover to identical state fingerprints —
   page images, header LSNs and re-seeded counters alike.  Run the same
   random op script against two engines and compare the fingerprint
   after every crash, after the final crash, and after the serial
   reference recovery. *)
module type Fp_engine = sig
  include Kv.S

  val crash_and_recover_reference : t -> unit
  val state_fingerprint : t -> string
end

module Fp_harness (E : Fp_engine) = struct
  let run ops =
    let e = E.create ~n_keys () in
    let live = ref None in
    let fps = ref [] in
    let ensure () =
      match !live with
      | Some t -> t
      | None ->
        let t = E.begin_txn e in
        live := Some t;
        t
    in
    List.iter
      (fun op ->
        match op with
        | Put (k, v) -> E.put (ensure ()) k v
        | Delete k -> E.delete (ensure ()) k
        | Commit ->
          (match !live with
          | Some t ->
            E.commit t;
            live := None
          | None -> ())
        | Abort ->
          (match !live with
          | Some t ->
            E.abort t;
            live := None
          | None -> ())
        | Crash ->
          live := None;
          E.crash_and_recover e;
          fps := E.state_fingerprint e :: !fps
        | Checkpoint -> if !live = None then E.checkpoint e)
      ops;
    (match !live with
    | Some t ->
      E.commit t;
      live := None
    | None -> ());
    E.crash_and_recover e;
    fps := E.state_fingerprint e :: !fps;
    E.crash_and_recover_reference e;
    fps := E.state_fingerprint e :: !fps;
    List.rev !fps
end

module Fp_physical = Fp_harness (Engine_log)

module Fp_delta = Fp_harness (Engine_log_delta)
module Fp_oplog = Fp_harness (Engine_oplog)

module Fp_logical = Fp_harness (struct
  include Engine_log

  let create ?n_keys () = create_with ?n_keys ~log_format:Engine_log.Logical ()
end)

let prop_delta_fingerprint_parity =
  QCheck.Test.make ~name:"delta log recovers to the physical fingerprint" ~count:100
    ops_arbitrary (fun ops -> Fp_physical.run ops = Fp_delta.run ops)

let prop_oplog_fingerprint_parity =
  QCheck.Test.make ~name:"operation log recovers to the physical fingerprint" ~count:100
    ops_arbitrary (fun ops -> Fp_physical.run ops = Fp_oplog.run ops)

let prop_logical_fingerprint_parity =
  QCheck.Test.make ~name:"two-disk operation log recovers to the physical fingerprint" ~count:100
    ops_arbitrary (fun ops -> Fp_physical.run ops = Fp_logical.run ops)

let test_delta_steal_then_crash_matches_physical () =
  (* a steal (flush with a live loser) is the sharpest delta-chain test:
     the durable base holds the loser's bytes and replay must unwind
     through delta records to reproduce the rollback *)
  let build fmt =
    let e = Engine_log.create_with ~log_format:fmt () in
    let t = Engine_log.begin_txn e in
    Engine_log.put t 1 "committed-1";
    Engine_log.put t 9 "committed-9";
    Engine_log.commit t;
    let t = Engine_log.begin_txn e in
    Engine_log.put t 1 "churn-a";
    Engine_log.put t 1 "churn-b";
    Engine_log.commit t;
    let loser = Engine_log.begin_txn e in
    Engine_log.put loser 1 "loser";
    Engine_log.put loser 5 "loser";
    Engine_log.flush e;
    (* steal: loser pages durable *)
    Engine_log.crash_and_recover e;
    e
  in
  let p = build Engine_log.Physical and d = build Engine_log.Delta in
  check Alcotest.string "fingerprints equal after steal+crash"
    (Engine_log.state_fingerprint p) (Engine_log.state_fingerprint d);
  let t = Engine_log.begin_txn d in
  check (Alcotest.option Alcotest.string) "winner survived" (Some "churn-b") (Engine_log.get t 1);
  check (Alcotest.option Alcotest.string) "stolen loser page rolled back" None
    (Engine_log.get t 5);
  Engine_log.abort t

let test_delta_log_diet () =
  (* repeated small in-place updates: delta records must at least halve
     the log volume relative to full before/after images *)
  let run fmt =
    let e = Engine_log.create_with ~log_format:fmt () in
    for i = 0 to 199 do
      let t = Engine_log.begin_txn e in
      Engine_log.put t (i mod 8) (Printf.sprintf "v%03d" i);
      Engine_log.commit t
    done;
    e
  in
  let p = run Engine_log.Physical and d = run Engine_log.Delta in
  let pb = Engine_log.log_bytes p and db = Engine_log.log_bytes d in
  check Alcotest.bool
    (Printf.sprintf "delta log at most half the physical log (%d vs %d bytes)" db pb)
    true
    (2 * db <= pb);
  Engine_log.crash_and_recover p;
  Engine_log.crash_and_recover d;
  check Alcotest.string "same recovered fingerprint" (Engine_log.state_fingerprint p)
    (Engine_log.state_fingerprint d)

let test_oplog_log_diet () =
  let run_log () =
    let e = Engine_log.create () in
    for i = 0 to 199 do
      let t = Engine_log.begin_txn e in
      Engine_log.put t (i mod 8) (Printf.sprintf "v%03d" i);
      Engine_log.commit t
    done;
    Engine_log.log_bytes e
  in
  let run_oplog () =
    let e = Engine_oplog.create () in
    for i = 0 to 199 do
      let t = Engine_oplog.begin_txn e in
      Engine_oplog.put t (i mod 8) (Printf.sprintf "v%03d" i);
      Engine_oplog.commit t
    done;
    Engine_oplog.log_bytes e
  in
  let pb = run_log () and ob = run_oplog () in
  check Alcotest.bool
    (Printf.sprintf "operation log an order of magnitude smaller (%d vs %d bytes)" ob pb)
    true
    (10 * ob <= pb)

let test_oplog_no_steal_gate () =
  (* flush with a live writer must not force the dirty page to the
     durable image: a crash right after may not surface the uncommitted
     value *)
  let e = Engine_oplog.create () in
  let t = Engine_oplog.begin_txn e in
  Engine_oplog.put t 1 "committed";
  Engine_oplog.commit t;
  Engine_oplog.flush e;
  let loser = Engine_oplog.begin_txn e in
  Engine_oplog.put loser 1 "uncommitted";
  Engine_oplog.flush e;
  (* gated: no data force *)
  Engine_oplog.crash_and_recover e;
  let t2 = Engine_oplog.begin_txn e in
  check (Alcotest.option Alcotest.string) "uncommitted never durable" (Some "committed")
    (Engine_oplog.get t2 1);
  Engine_oplog.abort t2

(* Every engine's [stats] holds exactly the keys some caller reads by
   name.  perfbench reads a missing key as 0, so a renamed one would
   otherwise pass every test. *)
let test_stats_keys () =
  let io = [ "disk_reads"; "disk_writes" ] in
  let log = io @ [ "durable_records"; "log_syncs" ] in
  List.iter
    (fun ((module E : Kv.S), expected) ->
      check Alcotest.(list string) E.engine_name expected (List.map fst (E.stats (E.create ()))))
    [
      ((module Engine_log), log);
      ((module Engine_log_delta), log);
      ((module Engine_oplog), log);
      ((module Engine_diff), io @ [ "a_records"; "d_records"; "merges" ]);
      ((module Engine_shadow), io);
      ((module Engine_versel), io);
      ((module Engine_overwrite.No_undo), io);
      ((module Engine_overwrite.No_redo), io);
      ((module Kv.Model), []);
    ]

let specific =
  [
    Alcotest.test_case "log: WAL order" `Quick test_log_wal_order;
    Alcotest.test_case "log: distributes over disks" `Quick test_log_distributes_over_disks;
    Alcotest.test_case "log: checkpoint truncates" `Quick test_log_checkpoint_truncates;
    Alcotest.test_case "log: sharp ckpt keeps undo" `Quick test_log_sharp_checkpoint_keeps_undo;
    Alcotest.test_case "log: steal then crash rolls back" `Quick test_log_flush_steal_then_crash;
    Alcotest.test_case "log: sharp checkpoint keeps a live txn on both disks" `Quick
      test_log_sharp_checkpoint_keeps_both_disks;
    Alcotest.test_case "log: loser out after two crashes" `Quick
      test_log_loser_out_after_two_crashes;
    Alcotest.test_case "delta: abort out after two crashes" `Quick
      test_delta_abort_out_after_two_crashes;
    QCheck_alcotest.to_alcotest prop_log_interleaved;
    Alcotest.test_case "shadow: blocks move" `Quick test_shadow_blocks_move;
    Alcotest.test_case "shadow: free blocks conserved" `Quick test_shadow_free_blocks_conserved;
    Alcotest.test_case "shadow: crash keeps generation" `Quick test_shadow_crash_keeps_generation;
    Alcotest.test_case "versel: versions grow" `Quick test_versel_versions_grow;
    Alcotest.test_case "versel: txn ids not reused" `Quick
      test_versel_txn_ids_not_reused_after_crash;
    Alcotest.test_case "overwrite: scratch released" `Quick test_overwrite_scratch_released;
    Alcotest.test_case "overwrite: scratch overflow" `Quick test_overwrite_scratch_overflow;
    Alcotest.test_case "overwrite: no-undo reinstall" `Quick
      test_overwrite_no_undo_reinstall_after_crash;
    Alcotest.test_case "overwrite: no-redo restore" `Quick
      test_overwrite_no_redo_restores_after_crash;
    Alcotest.test_case "shadow: out of blocks" `Quick test_shadow_out_of_blocks;
    Alcotest.test_case "log: truncate then crash" `Quick
      test_journal_truncate_then_crash_recovery;
    Alcotest.test_case "versel: interleaved commits" `Quick test_versel_interleaved_commits;
    Alcotest.test_case "diff: grow then merge" `Quick test_diff_files_grow_then_merge;
    Alcotest.test_case "diff: merge needs quiescence" `Quick test_diff_merge_requires_quiescence;
    Alcotest.test_case "diff: newest wins" `Quick test_diff_newest_wins;
    Alcotest.test_case "diff: read allocation bounded" `Quick test_diff_read_allocation_bounded;
    Alcotest.test_case "diff: recovery leaves the index to reads" `Quick
      test_diff_recovery_leaves_index_to_reads;
    Alcotest.test_case "diff: merge bounds the read index" `Quick test_diff_merge_bounds_index;
    Alcotest.test_case "diff: txn ids not reused" `Quick test_diff_txn_ids_not_reused;
    Alcotest.test_case "diff: merge makes group commits durable" `Quick
      test_diff_merge_makes_group_commits_durable;
    Alcotest.test_case "delta: steal then crash matches physical" `Quick
      test_delta_steal_then_crash_matches_physical;
    Alcotest.test_case "delta: log diet >= 2x" `Quick test_delta_log_diet;
    Alcotest.test_case "oplog: log diet >= 10x" `Quick test_oplog_log_diet;
    Alcotest.test_case "oplog: no-steal gate" `Quick test_oplog_no_steal_gate;
    QCheck_alcotest.to_alcotest prop_delta_fingerprint_parity;
    QCheck_alcotest.to_alcotest prop_oplog_fingerprint_parity;
    QCheck_alcotest.to_alcotest prop_logical_fingerprint_parity;
    Alcotest.test_case "delta: sharp checkpoint rewinds a loser" `Quick
      test_delta_sharp_checkpoint_rewinds_loser;
    Alcotest.test_case "oplog: sharp ckpt truncates under a live writer" `Quick
      test_oplog_sharp_checkpoint_truncates_live;
    Alcotest.test_case "log: ckpt keeps prepared votes" `Quick
      test_log_checkpoint_keeps_prepared_votes;
    Alcotest.test_case "log: ckpt keeps an abort whole" `Quick
      test_log_checkpoint_keeps_abort_whole;
    Alcotest.test_case "log: repeat put copies no page" `Quick test_log_repeat_put_allocation;
    Alcotest.test_case "stats: keys" `Quick test_stats_keys;
  ]

let () =
  Alcotest.run "dbm_storage engines"
    [
      Model_h.suite;
      Log_default.suite;
      Log3.suite;
      Log_delta.suite;
      Log_logical.suite;
      Oplog_h.suite;
      Shadow_h.suite;
      Versel_h.suite;
      No_undo_h.suite;
      No_redo_h.suite;
      Diff_h.suite;
      ("engine specifics", specific);
    ]
