(* Equivalence tests for the storage-half data-structure overhaul.

   The optimized lock manager (per-transaction page lists) and scheduler
   (wakeup parking) must make decisions indistinguishable from the
   pre-overhaul algorithms, which are preserved verbatim in
   Dbm_storage.Naive.  The journal's growable
   array must behave like the reference list model under any mix of
   append/sync/crash/truncate, including logs long enough to have blown
   the old non-tail-recursive truncate. *)

module Journal = Dbm_storage.Journal
module Lock = Dbm_storage.Lock_mgr
module Naive = Dbm_storage.Naive
module Scheduler = Dbm_storage.Scheduler
module Kv = Dbm_storage.Kv

let check = Alcotest.check

(* --- lock manager vs the whole-table-fold reference ------------------- *)

type lock_op =
  | Acquire of int * int * Lock.mode
  | Release_all of int

let lock_op_print = function
  | Acquire (t, p, Lock.S) -> Printf.sprintf "A%d:S%d" t p
  | Acquire (t, p, Lock.X) -> Printf.sprintf "A%d:X%d" t p
  | Release_all t -> Printf.sprintf "R%d" t

let n_txns = 5
let n_pages = 4

let lock_op_gen ~txns ~pages ~release =
  QCheck.Gen.(
    let txn = int_range 1 txns and page = int_range 0 (pages - 1) in
    frequency
      [
        (5, map3 (fun t p m -> Acquire (t, p, m)) txn page (oneofl [ Lock.S; Lock.X ]));
        (release, map (fun t -> Release_all t) txn);
      ])

let outcome_tag = function
  | Lock.Granted -> "granted"
  | Lock.Would_block -> "would-block"
  | Lock.Deadlock _ -> "deadlock"

(* Replays a trace on both managers and demands identical observables at
   every step: the outcome constructor of each acquire (cycle payloads
   may name another cycle, or the same one from another starting
   point), then every (txn, page) hold and every waiting flag. *)
let lock_mgr_prop ~name ~txns:n_txns ~pages:n_pages ~used ~length ~release =
  QCheck.Test.make ~name ~count:500 ~long_factor:40
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map lock_op_print ops))
       QCheck.Gen.(
         used >>= fun pages -> list_size (int_range 0 length) (lock_op_gen ~txns:n_txns ~pages ~release)))
    (fun ops ->
      let opt = Lock.create ~pages:n_pages and ref_ = Naive.Locks.create () in
      List.for_all
        (fun op ->
          let step_ok =
            match op with
            | Acquire (txn, page, mode) ->
                let a = Lock.acquire opt ~txn ~page ~mode in
                let b = Naive.Locks.acquire ref_ ~txn ~page ~mode in
                outcome_tag a = outcome_tag b
            | Release_all txn ->
                Lock.release_all opt ~txn;
                Naive.Locks.release_all ref_ ~txn;
                true
          in
          step_ok
          && Lock.locked_pages opt = Naive.Locks.locked_pages ref_
          && List.for_all
               (fun txn ->
                 Lock.waiting opt ~txn = Naive.Locks.waiting ref_ ~txn
                 && List.for_all
                      (fun page ->
                        Lock.holds opt ~txn ~page = Naive.Locks.holds ref_ ~txn ~page)
                      (List.init n_pages Fun.id))
               (List.init n_txns (fun i -> i + 1)))
        ops)

let prop_lock_mgr_matches_naive =
  lock_mgr_prop ~name:"lock manager matches whole-table reference" ~txns:n_txns ~pages:n_pages
    ~used:(QCheck.Gen.return n_pages) ~length:40 ~release:2

(* Twelve transactions on one or two pages, released rarely: queues
   grow far past the four waiters the trace above allows, so searches
   walk long queues and long chains of waiters. *)
let prop_lock_mgr_hot_pages =
  lock_mgr_prop ~name:"hot-page lock traces match reference" ~txns:12 ~pages:2
    ~used:(QCheck.Gen.int_range 1 2) ~length:80 ~release:1

(* release_all_pages must name every page whose entry the release
   touched, so a scheduler waking exactly those pages misses nobody. *)
let test_release_all_pages () =
  let l = Lock.create ~pages:2 in
  check (Alcotest.of_pp Fmt.nop) "t1 holds 0" Lock.Granted (Lock.acquire l ~txn:1 ~page:0 ~mode:Lock.X);
  check (Alcotest.of_pp Fmt.nop) "t1 holds 1" Lock.Granted (Lock.acquire l ~txn:1 ~page:1 ~mode:Lock.S);
  check (Alcotest.of_pp Fmt.nop) "t2 blocks on 0" Lock.Would_block
    (Lock.acquire l ~txn:2 ~page:0 ~mode:Lock.S);
  let pages = List.sort compare (Lock.release_all_pages l ~txn:1) in
  check (Alcotest.list Alcotest.int) "released pages" [ 0; 1 ] pages;
  check (Alcotest.of_pp Fmt.nop) "t2 now granted" Lock.Granted
    (Lock.acquire l ~txn:2 ~page:0 ~mode:Lock.S);
  (* t3 both holds page 0 and waits on it for an upgrade: named once. *)
  check (Alcotest.of_pp Fmt.nop) "t3 shares 0" Lock.Granted
    (Lock.acquire l ~txn:3 ~page:0 ~mode:Lock.S);
  check (Alcotest.of_pp Fmt.nop) "t3 upgrade blocks" Lock.Would_block
    (Lock.acquire l ~txn:3 ~page:0 ~mode:Lock.X);
  check (Alcotest.list Alcotest.int) "upgrade page named once" [ 0 ]
    (Lock.release_all_pages l ~txn:3)

let minor_words_of f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

(* A grant allocates only the cells that record it, and a release
   hardly anything.  Steady state: the table has seen its pages and
   the transaction holds a page already.  The uncontended grant then
   allocates a holders cell with its (txn, mode) pair and a cell of the
   transaction's held list, 9 words; bound 12.  Releasing 5 held pages
   returns the held list itself and allocates 5 words; bound 16.  A
   hashtable per page and two per transaction, with a [seen] table per
   release, allocated 40 and 146. *)
let test_lock_allocation () =
  let l = Lock.create ~pages:8 in
  for txn = 1 to 3 do
    for page = 0 to 5 do
      ignore (Lock.acquire l ~txn ~page ~mode:Lock.X)
    done;
    Lock.release_all l ~txn
  done;
  ignore (Lock.acquire l ~txn:7 ~page:0 ~mode:Lock.X);
  let grant = minor_words_of (fun () -> Lock.acquire l ~txn:7 ~page:1 ~mode:Lock.X) in
  for page = 2 to 4 do
    ignore (Lock.acquire l ~txn:7 ~page ~mode:Lock.S)
  done;
  let release = minor_words_of (fun () -> Lock.release_all_pages l ~txn:7) in
  if grant > 12.0 then Alcotest.failf "an uncontended grant allocates %.0f minor words" grant;
  if release > 16.0 then Alcotest.failf "a 5-page release allocates %.0f minor words" release

(* A blocked acquire allocates only what it changes.  Behind a holder
   and 20 queued X waiters, a new waiter's cycle-free deadlock search
   walks all 21 in place, so the waiter allocates only its queue append
   (the copied queue with its own cell and pair), its transaction
   record and the outcome pair, 80 words; bound 96.  Its repeat block allocates nothing.
   Searches that built a visited table and target lists allocated 1,256
   and 66. *)
let test_wait_allocation () =
  let l = Lock.create ~pages:1 in
  for txn = 1 to 21 do
    ignore (Lock.acquire l ~txn ~page:0 ~mode:Lock.X)
  done;
  let fresh = minor_words_of (fun () -> Lock.acquire_wait_info l ~txn:22 ~page:0 ~mode:Lock.X) in
  let repeat = minor_words_of (fun () -> Lock.acquire_wait_info l ~txn:22 ~page:0 ~mode:Lock.X) in
  check Alcotest.bool "waiter queued" true (Lock.waiting l ~txn:22);
  if fresh > 96.0 then Alcotest.failf "a new waiter behind 20 allocates %.0f minor words" fresh;
  if repeat > 0.0 then Alcotest.failf "a repeat block behind 20 allocates %.0f minor words" repeat

(* Deterministic traces through the lock manager's acyclicity flag.
   Each acquire's outcome tag must equal the reference's and the
   expected tag, and its [acquire_wait_info] bool the expected one:
   [true] only for a new waiter queued while the waits-for graph may
   hold a cycle that no acquire has reported. *)
type lock_step = Acq of int * int * Lock.mode * string * bool | Rel of int

let run_lock_steps steps =
  let l = Lock.create ~pages:n_pages and r = Naive.Locks.create () in
  List.iteri
    (fun i step ->
      match step with
      | Acq (txn, page, mode, tag, wake) ->
          let m = if mode = Lock.S then "S" else "X" in
          let name = Printf.sprintf "step %d: T%d %s on page %d" i txn m page in
          let o, b = Lock.acquire_wait_info l ~txn ~page ~mode in
          check Alcotest.string (name ^ " = reference")
            (outcome_tag (Naive.Locks.acquire r ~txn ~page ~mode))
            (outcome_tag o);
          check Alcotest.string name tag (outcome_tag o);
          check Alcotest.bool (name ^ " wakes parked scripts") wake b
      | Rel txn ->
          Lock.release_all l ~txn;
          Naive.Locks.release_all r ~txn)
    steps

(* A new waiter whose search found no cycle leaves the graph acyclic,
   and its repeat block needs no search: neither wakes anyone. *)
let test_cycle_free_block () =
  run_lock_steps
    [
      Acq (1, 0, Lock.X, "granted", false);
      Acq (2, 0, Lock.X, "would-block", false);
      Acq (2, 0, Lock.X, "would-block", false);
    ]

(* T1's upgrade searches T2 (the other holder) only, and queues behind
   T3, which waits for T1's S lock: a cycle no acquire has reported.
   T3's retry reports it, and T3's release clears the flag again. *)
let test_upgrade_cycle_through_waiter () =
  run_lock_steps
    [
      Acq (1, 0, Lock.S, "granted", false);
      Acq (2, 0, Lock.S, "granted", false);
      Acq (3, 0, Lock.X, "would-block", false);
      Acq (1, 0, Lock.X, "would-block", true);
      Acq (3, 0, Lock.X, "deadlock", false);
      Rel 3;
      Acq (4, 0, Lock.X, "would-block", false);
    ]

(* T2 is granted page 0 while it still waits for T3 on page 1, and T3
   waits on page 0 behind it: the grant closes the cycle, and T3's
   repeat block must search to find it. *)
let test_grant_to_waiting_txn () =
  run_lock_steps
    [
      Acq (1, 0, Lock.X, "granted", false);
      Acq (2, 0, Lock.S, "would-block", false);
      Acq (3, 0, Lock.S, "would-block", false);
      Acq (3, 1, Lock.X, "granted", false);
      Acq (2, 1, Lock.X, "would-block", false);
      Rel 1;
      Acq (2, 0, Lock.X, "granted", false);
      Acq (3, 0, Lock.S, "deadlock", false);
    ]

(* --- wakeup scheduler vs the polling reference ------------------------ *)

let sched_n_keys = 8

let script_print scripts =
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
       scripts)

let scripts_gen =
  QCheck.Gen.(
    let op =
      frequency
        [
          (3, map2 (fun k v -> Scheduler.Put (k, v)) (int_range 0 (sched_n_keys - 1))
               (string_size (int_range 1 3)));
          (1, map (fun k -> Scheduler.Delete k) (int_range 0 (sched_n_keys - 1)));
          (2, map (fun k -> Scheduler.Get k) (int_range 0 (sched_n_keys - 1)));
        ]
    in
    map
      (fun opss -> List.mapi (fun i ops -> (i + 1, ops)) opss)
      (list_size (int_range 1 6) (list_size (int_range 0 8) op)))

(* Up to twelve scripts on the keys of one or two lock pages, many of
   them reading a key and then writing it (an S -> X upgrade): long
   queues of parked scripts, upgrade deadlocks and the wakes that
   settle them. *)
let hot_scripts_gen ~keys_per_page =
  QCheck.Gen.(
    int_range 1 2 >>= fun pages ->
    let key = int_range 0 ((pages * keys_per_page) - 1) and value = string_size (int_range 1 3) in
    let step =
      frequency
        [
          (3, map2 (fun k v -> [ Scheduler.Get k; Scheduler.Put (k, v) ]) key value);
          (2, map (fun k -> [ Scheduler.Get k ]) key);
          (2, map2 (fun k v -> [ Scheduler.Put (k, v) ]) key value);
          (1, map (fun k -> [ Scheduler.Delete k ]) key);
        ]
    in
    map
      (fun opss -> List.mapi (fun i ops -> (i + 1, List.concat ops)) opss)
      (list_size (int_range 1 12) (list_size (int_range 0 4) step)))

let sched_equal_prop ?(hot = false) (module E : Kv.S) count =
  let module NS = Naive.Sched (E) in
  let module OS = Scheduler.Make (E) in
  let gen =
    if hot then hot_scripts_gen ~keys_per_page:(E.keys_per_page (E.create ~n_keys:sched_n_keys ()))
    else scripts_gen
  in
  QCheck.Test.make
    ~name:
      (E.engine_name
      ^ if hot then ": hot-page wakeup = polling" else ": wakeup scheduler report equals polling reference")
    ~count ~long_factor:40
    (QCheck.make ~print:script_print gen)
    (fun scripts ->
      let rn = NS.run (E.create ~n_keys:sched_n_keys ()) ~scripts in
      let ro = OS.run (E.create ~n_keys:sched_n_keys ()) ~scripts in
      rn.Scheduler.commit_order = ro.Scheduler.commit_order
      && rn.Scheduler.restarts = ro.Scheduler.restarts
      && rn.Scheduler.steps = ro.Scheduler.steps)

(* The bench's contended shape — many private pages plus one hot page —
   pinned as a deterministic regression across two real engines. *)
let test_sched_contended_shape () =
  let scripts =
    List.init 6 (fun i ->
        let base = i * 4 in
        ( i + 1,
          List.init 4 (fun j -> Scheduler.Put (base + j, "p"))
          @ [ Scheduler.Put (24, "h"); Scheduler.Get 24 ] ))
  in
  let run_both (module E : Kv.S) =
    let module NS = Naive.Sched (E) in
    let module OS = Scheduler.Make (E) in
    let rn = NS.run (E.create ~n_keys:32 ()) ~scripts in
    let ro = OS.run (E.create ~n_keys:32 ()) ~scripts in
    check (Alcotest.list Alcotest.int)
      (E.engine_name ^ " commit order")
      rn.Scheduler.commit_order ro.Scheduler.commit_order;
    check Alcotest.int (E.engine_name ^ " restarts") rn.Scheduler.restarts ro.Scheduler.restarts;
    check Alcotest.int (E.engine_name ^ " steps") rn.Scheduler.steps ro.Scheduler.steps
  in
  run_both (module Kv.Model);
  run_both (module Dbm_storage.Engine_shadow)

(* Both schedulers stop at [max_steps] and report a livelock rather
   than return a partial run: one step cannot finish a two-operation
   script. *)
let test_sched_livelock_guard () =
  let scripts = [ (1, [ Scheduler.Put (0, "a"); Scheduler.Put (1, "b") ]) ] in
  let raises run = match run () with exception Failure _ -> true | _ -> false in
  let module NS = Naive.Sched (Kv.Model) in
  let module OS = Scheduler.Make (Kv.Model) in
  let fresh () = Kv.Model.create ~n_keys:4 () in
  check Alcotest.bool "wakeup scheduler" true
    (raises (fun () -> OS.run ~max_steps:1 (fresh ()) ~scripts));
  check Alcotest.bool "polling reference" true
    (raises (fun () -> NS.run ~max_steps:1 (fresh ()) ~scripts))

(* --- journal vs a list reference model -------------------------------- *)

type j_op = Append of string | Sync | Crash | Truncate of int

let j_op_print = function
  | Append s -> Printf.sprintf "A%s" s
  | Sync -> "S"
  | Crash -> "C"
  | Truncate k -> Printf.sprintf "T%d" k

(* Truncate carries an offset interpreted against the live model state:
   -1 probes the below-base no-op, anything beyond the durable count
   probes the invalid_arg branch. *)
let j_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun s -> Append s) (string_size ~gen:(char_range 'a' 'z') (int_range 0 5)));
        (2, return Sync);
        (1, return Crash);
        (2, map (fun k -> Truncate k) (int_range (-1) 12));
      ])

type j_model = {
  mutable m_durable : string list;  (* oldest first *)
  mutable m_pending : string list;  (* oldest first *)
  mutable m_base : int;
  mutable m_syncs : int;
}

let j_model_step m j op =
  match op with
  | Append s ->
      let seq = m.m_base + List.length m.m_durable + List.length m.m_pending in
      m.m_pending <- m.m_pending @ [ s ];
      seq = Journal.append j s
  | Sync ->
      (* only a sync that makes a record durable is a force *)
      if m.m_pending <> [] then m.m_syncs <- m.m_syncs + 1;
      m.m_durable <- m.m_durable @ m.m_pending;
      m.m_pending <- [];
      Journal.sync j;
      true
  | Crash ->
      m.m_pending <- [];
      Journal.crash j;
      true
  | Truncate off ->
      let keep_from = m.m_base + off in
      if off < 0 then (
        Journal.truncate j ~keep_from;
        true)
      else if off > List.length m.m_durable then (
        match Journal.truncate j ~keep_from with
        | exception Invalid_argument _ -> true
        | () -> false)
      else (
        m.m_durable <- List.filteri (fun i _ -> i >= off) m.m_durable;
        m.m_base <- keep_from;
        Journal.truncate j ~keep_from;
        true)

let j_model_agrees m j =
  Journal.read_all j = m.m_durable
  && (let live = ref [] in
      Journal.iter_live (fun r -> live := r :: !live) j;
      List.rev !live = m.m_durable @ m.m_pending)
  && Journal.length j = List.length m.m_durable
  && Journal.synced j = m.m_base + List.length m.m_durable
  && Journal.sync_count j = m.m_syncs

let prop_journal_matches_model =
  QCheck.Test.make ~name:"journal matches list reference model" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map j_op_print ops))
       QCheck.Gen.(list_size (int_range 0 60) j_op_gen))
    (fun ops ->
      let j = Journal.create () in
      let m = { m_durable = []; m_pending = []; m_base = 0; m_syncs = 0 } in
      List.for_all (fun op -> j_model_step m j op && j_model_agrees m j) ops)

(* The old truncate rebuilt the kept suffix with a non-tail-recursive
   take: half a million records is far past where that blew the stack. *)
let test_journal_long_log_truncate () =
  let j = Journal.create () in
  let n = 500_000 in
  let r = "record" in
  for _ = 1 to n do
    ignore (Journal.append j r)
  done;
  Journal.sync j;
  Journal.truncate j ~keep_from:10;
  check Alcotest.int "length after small truncate" (n - 10) (Journal.length j);
  Journal.truncate j ~keep_from:(n - 3);
  check Alcotest.int "length after deep truncate" 3 (Journal.length j);
  check Alcotest.int "seq numbers unchanged" n (Journal.append j r);
  Journal.sync j;
  check (Alcotest.list Alcotest.string) "records intact" [ r; r; r; r ] (Journal.read_all j);
  Journal.truncate j ~keep_from:(n + 1);
  check Alcotest.int "empty after full truncate" 0 (Journal.length j)

(* --- run -------------------------------------------------------------- *)

let () =
  Alcotest.run "storage_opt"
    [
      ( "lock manager",
        [
          QCheck_alcotest.to_alcotest prop_lock_mgr_matches_naive;
          QCheck_alcotest.to_alcotest prop_lock_mgr_hot_pages;
          Alcotest.test_case "release_all_pages names touched pages" `Quick
            test_release_all_pages;
          Alcotest.test_case "cycle-free repeat block wakes nobody" `Quick test_cycle_free_block;
          Alcotest.test_case "upgrade cycle through a waiter ahead" `Quick
            test_upgrade_cycle_through_waiter;
          Alcotest.test_case "grant to a transaction waiting elsewhere" `Quick
            test_grant_to_waiting_txn;
          Alcotest.test_case "grant and release allocation bounded" `Quick test_lock_allocation;
          Alcotest.test_case "blocked acquire allocation bounded" `Quick test_wait_allocation;
        ] );
      ( "scheduler",
        [
          QCheck_alcotest.to_alcotest (sched_equal_prop (module Kv.Model) 200);
          QCheck_alcotest.to_alcotest (sched_equal_prop (module Dbm_storage.Engine_log) 40);
          QCheck_alcotest.to_alcotest (sched_equal_prop ~hot:true (module Kv.Model) 200);
          QCheck_alcotest.to_alcotest (sched_equal_prop ~hot:true (module Dbm_storage.Engine_log) 40);
          Alcotest.test_case "contended shape across engines" `Quick test_sched_contended_shape;
          Alcotest.test_case "livelock guard raises" `Quick test_sched_livelock_guard;
        ] );
      ( "journal",
        [
          QCheck_alcotest.to_alcotest prop_journal_matches_model;
          Alcotest.test_case "long-log truncate" `Quick test_journal_long_log_truncate;
        ] );
    ]
