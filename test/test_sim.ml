(* Tests for the discrete-event engine and queued resources. *)

module Engine = Dbm_sim.Engine
module Resource = Dbm_sim.Resource
module Trace = Dbm_sim.Trace

let check = Alcotest.check

let test_event_order () =
  let e = Engine.create () in
  let order = ref [] in
  let note tag () = order := tag :: !order in
  ignore (Engine.schedule e ~delay:5.0 (note "c"));
  ignore (Engine.schedule e ~delay:1.0 (note "a"));
  ignore (Engine.schedule e ~delay:3.0 (note "b"));
  Engine.run e;
  check (Alcotest.list Alcotest.string) "time order" [ "a"; "b"; "c" ] (List.rev !order);
  check (Alcotest.float 1e-9) "clock at last event" 5.0 (Engine.now e)

let test_fifo_ties () =
  let e = Engine.create () in
  let order = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~delay:2.0 (fun () -> order := i :: !order))
  done;
  Engine.run e;
  check (Alcotest.list Alcotest.int) "scheduling order breaks ties" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

let test_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let id = Engine.schedule e ~delay:1.0 (fun () -> fired := true) in
  check Alcotest.int "pending" 1 (Engine.pending e);
  Engine.cancel e id;
  check Alcotest.int "cancelled" 0 (Engine.pending e);
  Engine.run e;
  check Alcotest.bool "never fires" false !fired;
  (* double cancel is a no-op *)
  Engine.cancel e id

let test_nested_scheduling () =
  let e = Engine.create () in
  let times = ref [] in
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         times := Engine.now e :: !times;
         ignore (Engine.schedule e ~delay:2.0 (fun () -> times := Engine.now e :: !times))));
  Engine.run e;
  check (Alcotest.list (Alcotest.float 1e-9)) "chained events" [ 1.0; 3.0 ] (List.rev !times)

let test_run_until () =
  let e = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun d -> ignore (Engine.schedule e ~delay:d (fun () -> fired := d :: !fired)))
    [ 1.0; 2.0; 3.0 ];
  Engine.run ~until:2.0 e;
  check (Alcotest.list (Alcotest.float 1e-9)) "horizon inclusive" [ 1.0; 2.0 ] (List.rev !fired);
  Engine.run e;
  check Alcotest.int "resumes" 3 (List.length !fired)

let test_run_until_cancelled_top () =
  (* Regression: a cancelled event past the horizon used to count as
     "within horizon", letting the live event behind it (also past the
     horizon) fire during [run ~until]. *)
  let e = Engine.create () in
  let fired = ref [] in
  let note d () = fired := d :: !fired in
  ignore (Engine.schedule e ~delay:1.0 (note 1.0));
  let cancelled = Engine.schedule e ~delay:5.0 (note 5.0) in
  ignore (Engine.schedule e ~delay:6.0 (note 6.0));
  Engine.cancel e cancelled;
  Engine.run ~until:2.0 e;
  check (Alcotest.list (Alcotest.float 1e-9)) "nothing past the horizon fires" [ 1.0 ]
    (List.rev !fired);
  check (Alcotest.float 1e-9) "clock at last fired event" 1.0 (Engine.now e);
  check Alcotest.int "live event still pending" 1 (Engine.pending e);
  Engine.run e;
  check (Alcotest.list (Alcotest.float 1e-9)) "resumes cleanly" [ 1.0; 6.0 ] (List.rev !fired)

let test_invalid_schedules () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative or non-finite delay") (fun () ->
      ignore (Engine.schedule e ~delay:(-1.0) (fun () -> ())));
  ignore (Engine.schedule e ~delay:4.0 (fun () -> ()));
  Engine.run e;
  Alcotest.check_raises "past time" (Invalid_argument "Engine.schedule_at: time in the past")
    (fun () -> ignore (Engine.schedule_at e ~time:1.0 (fun () -> ())))

(* --- free-list recycling ---------------------------------------------- *)

let test_recycled_record_drops_old_action () =
  (* A cancelled record goes back to the free list when it surfaces; the
     next schedule must reuse it with the new action only. *)
  let e = Engine.create () in
  let old_fired = ref false in
  let h = Engine.schedule e ~delay:1.0 (fun () -> old_fired := true) in
  Engine.cancel e h;
  Engine.run e;
  let new_fired = ref 0 in
  for _ = 1 to 3 do
    ignore (Engine.schedule e ~delay:1.0 (fun () -> incr new_fired));
    Engine.run e
  done;
  check Alcotest.bool "cancelled action never fires" false !old_fired;
  check Alcotest.int "recycled records fire the new action" 3 !new_fired

let test_stale_cancel_misses_recycled_record () =
  (* A handle kept across its event's firing must not cancel whatever
     event recycled the record afterwards. *)
  let e = Engine.create () in
  let stale = Engine.schedule e ~delay:1.0 (fun () -> ()) in
  Engine.run e;
  let b_fired = ref false in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> b_fired := true));
  Engine.cancel e stale;
  check Alcotest.int "stale cancel is a no-op" 1 (Engine.pending e);
  Engine.run e;
  check Alcotest.bool "successor still fires" true !b_fired

let test_steady_state_allocation () =
  (* One live self-rescheduling event, recycled forever: the engine must
     not allocate a record per event.  A fresh record every time would
     cost >10 words/event; the bound leaves room for GC noise only. *)
  let e = Engine.create () in
  let n = 100_000 in
  let fired = ref 0 in
  let rec tick () =
    incr fired;
    if !fired < n then ignore (Engine.schedule e ~delay:1.0 tick)
  in
  ignore (Engine.schedule e ~delay:1.0 tick);
  let s0 = Gc.quick_stat () in
  Engine.run e;
  let s1 = Gc.quick_stat () in
  let words_per_event = (s1.Gc.minor_words -. s0.Gc.minor_words) /. float_of_int n in
  check Alcotest.int "all events fired" n !fired;
  if words_per_event > 4.0 then
    Alcotest.failf "steady-state engine allocates %.2f minor words/event (want <= 4)"
      words_per_event

let test_step () =
  let e = Engine.create () in
  let n = ref 0 in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> incr n));
  ignore (Engine.schedule e ~delay:2.0 (fun () -> incr n));
  check Alcotest.bool "step 1" true (Engine.step e);
  check Alcotest.int "one fired" 1 !n;
  check Alcotest.bool "step 2" true (Engine.step e);
  check Alcotest.bool "exhausted" false (Engine.step e)

(* A fixed event script whose observable behaviour (tags and firing
   times) must be identical on a fresh engine and on a reset one. *)
let engine_script e =
  let log = ref [] in
  let note tag () = log := (tag, Engine.now e) :: !log in
  ignore (Engine.schedule e ~delay:2.0 (note "b"));
  let h = Engine.schedule e ~delay:5.0 (note "cancelled") in
  ignore (Engine.schedule e ~delay:1.0 (note "a"));
  ignore (Engine.schedule e ~delay:2.0 (note "b-tie"));
  Engine.cancel e h;
  Engine.run e;
  List.rev !log

let test_engine_reset () =
  let e = Engine.create () in
  (* Leave the engine mid-flight: a fired event, a pending one, a live
     handle — reset must discard all of it. *)
  ignore (Engine.schedule e ~delay:1.0 (fun () -> ()));
  let stale = Engine.schedule e ~delay:3.0 (fun () -> Alcotest.fail "survived reset") in
  check Alcotest.bool "something fired" true (Engine.step e);
  Engine.reset e;
  check (Alcotest.float 0.0) "clock back to zero" 0.0 (Engine.now e);
  check Alcotest.int "agenda empty" 0 (Engine.pending e);
  check Alcotest.bool "nothing to run" false (Engine.step e);
  let expected = engine_script (Engine.create ()) in
  let pairs = Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.float 0.0)) in
  check pairs "reset engine replays the script exactly" expected (engine_script e);
  (* The pre-reset handle must not touch whatever recycled its record. *)
  Engine.cancel e stale;
  Engine.reset e;
  check pairs "second recycle still exact" expected (engine_script e)

(* --- Resource -------------------------------------------------------- *)

let test_resource_serializes () =
  let e = Engine.create () in
  let r = Resource.create e ~name:"cpu" ~servers:1 () in
  let done_at = ref [] in
  for _ = 1 to 3 do
    Resource.submit r ~service:10.0 (fun () -> done_at := Engine.now e :: !done_at)
  done;
  Engine.run e;
  check (Alcotest.list (Alcotest.float 1e-9)) "sequential completions" [ 10.0; 20.0; 30.0 ]
    (List.rev !done_at);
  check Alcotest.int "completed" 3 (Resource.completed r)

let test_resource_parallel_servers () =
  let e = Engine.create () in
  let r = Resource.create e ~name:"cpu" ~servers:3 () in
  let done_at = ref [] in
  for _ = 1 to 3 do
    Resource.submit r ~service:10.0 (fun () -> done_at := Engine.now e :: !done_at)
  done;
  Engine.run e;
  check (Alcotest.list (Alcotest.float 1e-9)) "parallel completions" [ 10.0; 10.0; 10.0 ]
    (List.rev !done_at)

let test_resource_utilization () =
  let e = Engine.create () in
  let r = Resource.create e ~name:"cpu" ~servers:2 () in
  (* 2 jobs of 10 on 2 servers, then idle until t=40 *)
  Resource.submit r ~service:10.0 (fun () -> ());
  Resource.submit r ~service:10.0 (fun () -> ());
  ignore (Engine.schedule e ~delay:40.0 (fun () -> ()));
  Engine.run e;
  check (Alcotest.float 1e-9) "utilization 20/80" 0.25 (Resource.utilization r)

let test_resource_fcfs () =
  let e = Engine.create () in
  let r = Resource.create e ~name:"cpu" ~servers:1 () in
  let order = ref [] in
  List.iter
    (fun tag -> Resource.submit r ~service:1.0 (fun () -> order := tag :: !order))
    [ "first"; "second"; "third" ];
  Engine.run e;
  check (Alcotest.list Alcotest.string) "fcfs" [ "first"; "second"; "third" ] (List.rev !order)

let test_resource_queue_length () =
  let e = Engine.create () in
  let r = Resource.create e ~name:"cpu" ~servers:1 () in
  for _ = 1 to 4 do
    Resource.submit r ~service:5.0 (fun () -> ())
  done;
  check Alcotest.int "three waiting" 3 (Resource.queue_length r);
  check Alcotest.int "one busy" 1 (Resource.busy_servers r);
  Engine.run e;
  check Alcotest.int "drained" 0 (Resource.queue_length r)

let test_resource_reset () =
  let e = Engine.create () in
  let r = Resource.create e ~name:"cpu" ~servers:2 () in
  let script servers =
    let done_at = ref [] in
    for _ = 1 to 2 * servers do
      Resource.submit r ~service:10.0 (fun () -> done_at := Engine.now e :: !done_at)
    done;
    Engine.run e;
    (List.rev !done_at, Resource.completed r, Resource.utilization r)
  in
  let first = script 2 in
  (* the engine owning the resource must be reset first *)
  Engine.reset e;
  Resource.reset r ~name:"cpu" ~servers:2;
  let second = script 2 in
  let floats = Alcotest.list (Alcotest.float 1e-9) in
  let check3 label (ts, n, u) (ts', n', u') =
    check floats (label ^ ": completion times") ts ts';
    check Alcotest.int (label ^ ": completed count") n n';
    check (Alcotest.float 1e-9) (label ^ ": utilization") u u'
  in
  check3 "same servers" first second;
  (* a different server count must rebuild the per-server state *)
  Engine.reset e;
  Resource.reset r ~name:"cpu" ~servers:1;
  let serial, completed, _ = script 1 in
  check floats "one server serializes after reset" [ 10.0; 20.0 ] serial;
  check Alcotest.int "counters restart" 2 completed;
  (* and back again *)
  Engine.reset e;
  Resource.reset r ~name:"cpu" ~servers:2;
  check3 "restored server count" first (script 2);
  match Resource.reset r ~name:"cpu" ~servers:0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "servers=0 accepted"

(* The ring-buffered, preallocated-finisher Resource must behave exactly
   like the textbook model: an FCFS queue in front of [servers] identical
   servers, each job taking the earliest-free server.  Integer-valued
   gaps and service times keep every sum exact, so the comparison needs
   no tolerance. *)
let reference_model ~servers jobs =
  let free_at = Array.make servers 0.0 in
  List.map
    (fun (arrival, service) ->
      let s = ref 0 in
      for i = 1 to servers - 1 do
        if free_at.(i) < free_at.(!s) then s := i
      done;
      let start = Float.max arrival free_at.(!s) in
      free_at.(!s) <- start +. service;
      (start, start +. service))
    jobs

let simulate_resource ~servers jobs =
  let e = Engine.create () in
  let r = Resource.create e ~name:"model" ~servers () in
  let completion = Array.make (List.length jobs) Float.nan in
  List.iteri
    (fun i (arrival, service) ->
      ignore
        (Engine.schedule e ~delay:arrival (fun () ->
             Resource.submit r ~service (fun () -> completion.(i) <- Engine.now e))))
    jobs;
  Engine.run e;
  (r, completion, Engine.now e)

let prop_resource_matches_reference =
  QCheck.Test.make ~name:"resource matches naive FCFS multi-server model" ~count:300
    QCheck.(
      pair (int_range 1 3)
        (small_list (pair (int_range 0 5) (int_range 0 6))))
    (fun (servers, raw) ->
      (* integer gaps -> non-decreasing integer arrival times *)
      let _, jobs =
        List.fold_left
          (fun (t, acc) (gap, svc) ->
            let t = t + gap in
            (t, (float_of_int t, float_of_int svc) :: acc))
          (0, []) raw
      in
      let jobs = List.rev jobs in
      let expected = reference_model ~servers jobs in
      let r, completion, now = simulate_resource ~servers jobs in
      let ok_completions =
        List.for_all2
          (fun (_, finish) measured -> Float.equal finish measured)
          expected (Array.to_list completion)
      in
      let ok_count = Resource.completed r = List.length jobs in
      let ok_stats =
        now = 0.0
        ||
        let busy = List.fold_left (fun a (_, s) -> a +. s) 0.0 jobs in
        Float.abs (Resource.utilization r -. (busy /. (float_of_int servers *. now))) < 1e-9
      in
      ok_completions && ok_count && ok_stats)

(* --- Trace ------------------------------------------------------------ *)

let test_trace_order_and_filter () =
  let t = Trace.create () in
  Trace.emit t ~time:1.0 ~source:"a" ~tag:"x" ~detail:"first";
  Trace.emit t ~time:2.0 ~source:"b" ~tag:"y" ~detail:"second";
  Trace.emit t ~time:3.0 ~source:"a" ~tag:"x" ~detail:"third";
  check Alcotest.int "all retained" 3 (List.length (Trace.events t));
  check Alcotest.int "total" 3 (Trace.total t);
  let xs = Trace.with_tag t "x" in
  check Alcotest.int "filtered" 2 (List.length xs);
  check Alcotest.string "oldest first" "first" (List.hd xs).Trace.detail

let test_trace_bounded () =
  let t = Trace.create ~capacity:2 () in
  for i = 1 to 5 do
    Trace.emit t ~time:(float_of_int i) ~source:"s" ~tag:"t" ~detail:(string_of_int i)
  done;
  check Alcotest.int "bounded" 2 (List.length (Trace.events t));
  check Alcotest.int "total counts drops" 5 (Trace.total t);
  check Alcotest.string "keeps newest" "4" (List.hd (Trace.events t)).Trace.detail

let test_trace_machine_integration () =
  let machine = { Dbm_machine.Config.paper_base with Dbm_machine.Config.db_pages = 16384 } in
  let workload =
    Dbm_workload.Workload.generate
      {
        Dbm_workload.Workload.default with
        Dbm_workload.Workload.n_transactions = 3;
        max_pages = 20;
        db_pages = 16384;
      }
  in
  let trace = Trace.create () in
  let r =
    Dbm_machine.Machine.run_traced ~trace ~config:machine
      ~make_arch:(fun _ -> Dbm_machine.Arch.bare)
      ~workload
  in
  check Alcotest.int "one admit per txn" 3 (List.length (Trace.with_tag trace "admit"));
  check Alcotest.int "one finish per txn" 3 (List.length (Trace.with_tag trace "finish"));
  check Alcotest.bool "reads traced" true (Trace.with_tag trace "read" <> []);
  (* traced and untraced runs are identical *)
  let r' =
    Dbm_machine.Machine.run ~config:machine
      ~make_arch:(fun _ -> Dbm_machine.Arch.bare)
      ~workload
  in
  check (Alcotest.float 1e-9) "tracing does not perturb the run"
    r'.Dbm_machine.Results.makespan_ms r.Dbm_machine.Results.makespan_ms;
  (* events are time-ordered *)
  let rec ordered = function
    | a :: (b :: _ as rest) -> a.Trace.time <= b.Trace.time && ordered rest
    | _ -> true
  in
  check Alcotest.bool "monotone timeline" true (ordered (Trace.events trace))

let () =
  Alcotest.run "dbm_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "event order" `Quick test_event_order;
          Alcotest.test_case "fifo ties" `Quick test_fifo_ties;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "run until with cancelled top" `Quick test_run_until_cancelled_top;
          Alcotest.test_case "invalid schedules" `Quick test_invalid_schedules;
          Alcotest.test_case "recycled record drops old action" `Quick
            test_recycled_record_drops_old_action;
          Alcotest.test_case "stale cancel misses recycled record" `Quick
            test_stale_cancel_misses_recycled_record;
          Alcotest.test_case "steady-state allocation bound" `Quick
            test_steady_state_allocation;
          Alcotest.test_case "step" `Quick test_step;
          Alcotest.test_case "reset recycles deterministically" `Quick test_engine_reset;
        ] );
      ( "trace",
        [
          Alcotest.test_case "order and filter" `Quick test_trace_order_and_filter;
          Alcotest.test_case "bounded ring" `Quick test_trace_bounded;
          Alcotest.test_case "machine integration" `Quick test_trace_machine_integration;
        ] );
      ( "resource",
        [
          Alcotest.test_case "single server serializes" `Quick test_resource_serializes;
          Alcotest.test_case "parallel servers" `Quick test_resource_parallel_servers;
          Alcotest.test_case "utilization" `Quick test_resource_utilization;
          Alcotest.test_case "fcfs order" `Quick test_resource_fcfs;
          Alcotest.test_case "queue length" `Quick test_resource_queue_length;
          Alcotest.test_case "reset" `Quick test_resource_reset;
          QCheck_alcotest.to_alcotest prop_resource_matches_reference;
        ] );
    ]
