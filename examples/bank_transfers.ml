(* Bank transfers under crashes, on every recovery engine.

   N accounts each start with 100 units; random transfers move money
   between accounts inside transactions; the machine crashes at random
   points.  After every crash+recovery the invariant "total balance =
   N * 100" must hold — atomic transactions cannot create or destroy
   money, whichever recovery architecture is underneath.

   Run with: dune exec examples/bank_transfers.exe *)

module Kv = Dbm_storage.Kv

let n_accounts = 32

let initial = 100

let balance_of s = int_of_string s

let run_bank (module E : Kv.S) ~seed =
  let rng = Dbm_util.Prng.create seed in
  let store = E.create ~n_keys:n_accounts () in
  (* deposit the opening balances *)
  let t = E.begin_txn store in
  for a = 0 to n_accounts - 1 do
    E.put t a (string_of_int initial)
  done;
  E.commit t;
  let crashes = ref 0 and commits = ref 0 and aborts = ref 0 in
  for _ = 1 to 200 do
    let t = E.begin_txn store in
    let src = Dbm_util.Prng.int rng n_accounts in
    let dst = Dbm_util.Prng.int rng n_accounts in
    let amount = 1 + Dbm_util.Prng.int rng 20 in
    let read a = balance_of (Option.value (E.get t a) ~default:"0") in
    if src <> dst && read src >= amount then begin
      E.put t src (string_of_int (read src - amount));
      E.put t dst (string_of_int (read dst + amount));
      (* sometimes the system dies mid-transaction, sometimes the user
         changes their mind, usually the transfer commits *)
      match Dbm_util.Prng.int rng 10 with
      | 0 ->
        E.crash_and_recover store;
        incr crashes
      | 1 ->
        E.abort t;
        incr aborts
      | _ ->
        E.commit t;
        incr commits
    end
    else E.abort t
  done;
  (* audit *)
  let t = E.begin_txn store in
  let total = ref 0 in
  for a = 0 to n_accounts - 1 do
    total := !total + balance_of (Option.value (E.get t a) ~default:"0")
  done;
  E.abort t;
  let expected = n_accounts * initial in
  Printf.printf "%-22s %4d transfers, %2d aborts, %2d crashes: total %5d (%s)\n"
    E.engine_name !commits !aborts !crashes !total
    (if !total = expected then "conserved" else "LOST MONEY!");
  !total = expected

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
  Printf.printf "Transferring money between %d accounts with crash injection:\n\n" n_accounts;
  let ok = List.for_all (fun e -> run_bank e ~seed:2024) engines in
  print_newline ();
  if ok then print_endline "Every recovery architecture conserved the money."
  else begin
    print_endline "INVARIANT VIOLATION — a recovery engine lost or created money.";
    exit 1
  end
