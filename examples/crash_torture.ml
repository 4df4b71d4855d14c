(* Crash torture: hammer every storage engine with random operations
   and frequent crashes, continuously cross-checking against the
   in-memory model.  A longer-running, human-readable version of the
   qcheck crash properties in the test suite.

   Run with: dune exec examples/crash_torture.exe [-- <rounds>] *)

module Kv = Dbm_storage.Kv

let n_keys = 48

let torture (module E : Kv.S) ~rounds ~seed =
  let rng = Dbm_util.Prng.create seed in
  let engine = E.create ~n_keys () in
  let model = Kv.Model.create ~n_keys () in
  let ops = ref 0 and crashes = ref 0 and checkpoints = ref 0 in
  let mismatches = ref 0 in
  let verify () =
    let te = E.begin_txn engine and tm = Kv.Model.begin_txn model in
    for k = 0 to n_keys - 1 do
      if E.get te k <> Kv.Model.get tm k then incr mismatches
    done;
    E.abort te;
    Kv.Model.abort tm
  in
  for _ = 1 to rounds do
    let te = E.begin_txn engine and tm = Kv.Model.begin_txn model in
    let n_ops = 1 + Dbm_util.Prng.int rng 8 in
    for _ = 1 to n_ops do
      incr ops;
      let k = Dbm_util.Prng.int rng n_keys in
      if Dbm_util.Prng.bool rng ~p:0.75 then begin
        let v = Printf.sprintf "v%d" (Dbm_util.Prng.int rng 1000) in
        E.put te k v;
        Kv.Model.put tm k v
      end
      else begin
        E.delete te k;
        Kv.Model.delete tm k
      end
    done;
    (match Dbm_util.Prng.int rng 10 with
    | 0 | 1 ->
      (* die mid-transaction *)
      E.crash_and_recover engine;
      Kv.Model.crash_and_recover model;
      incr crashes;
      verify ()
    | 2 ->
      E.abort te;
      Kv.Model.abort tm
    | 3 ->
      E.commit te;
      Kv.Model.commit tm;
      E.checkpoint engine;
      incr checkpoints
    | _ ->
      E.commit te;
      Kv.Model.commit tm;
      if Dbm_util.Prng.bool rng ~p:0.3 then begin
        E.crash_and_recover engine;
        Kv.Model.crash_and_recover model;
        incr crashes;
        verify ()
      end)
  done;
  verify ();
  Printf.printf "%-22s %5d ops, %3d crashes, %3d checkpoints: %s\n" E.engine_name !ops !crashes
    !checkpoints
    (if !mismatches = 0 then "consistent with the model"
     else Printf.sprintf "%d MISMATCHES" !mismatches);
  !mismatches = 0

let engines : (module Kv.S) list =
  [
    (module Dbm_storage.Engine_log);
    (module Dbm_storage.Engine_log_delta);
    (module Dbm_storage.Engine_oplog);
    (module Dbm_storage.Engine_shadow);
    (module Dbm_storage.Engine_versel);
    (module Dbm_storage.Engine_overwrite.No_undo);
    (module Dbm_storage.Engine_overwrite.No_redo);
    (module Dbm_storage.Engine_diff);
  ]

let () =
  let rounds =
    if Array.length Sys.argv > 1 then max 1 (int_of_string Sys.argv.(1)) else 400
  in
  Printf.printf "Crash-torturing every engine for %d transaction rounds:\n\n" rounds;
  let ok = List.for_all (fun e -> torture e ~rounds ~seed:99) engines in
  print_newline ();
  if ok then print_endline "All engines match the executable specification."
  else begin
    print_endline "AT LEAST ONE ENGINE DIVERGED FROM THE SPECIFICATION.";
    exit 1
  end
