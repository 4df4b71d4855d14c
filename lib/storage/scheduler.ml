type op = Get of int | Put of int * string | Delete of int

type script = op list

type report = { commit_order : int list; restarts : int; steps : int }

type view = { view_get : int -> string option; view_close : unit -> unit }

let snapshot_view (type e) (module E : Kv.SNAPSHOT with type t = e) (engine : e) () =
  let s = E.snapshot engine in
  { view_get = E.snapshot_get s; view_close = (fun () -> E.snapshot_release s) }

let key_of = function Get k -> k | Put (k, _) -> k | Delete k -> k

let mode_of read_mode = function
  | Get _ -> read_mode
  | Put _ | Delete _ -> Lock_mgr.X

module Itbl = Hashtbl.Make (Int)

module Make (E : Kv.S) = struct
  (* The execution core, shared by the closed-loop [run] below and the
     open-loop {!Server}: one lock manager, a set of script tasks, and a
     single-step advance.  The commit sink is pluggable so a server can
     route commits through a group-commit pipeline instead of the
     engine's eager [commit]; with the default sink the closed-loop
     driver is bit-identical to the pre-split scheduler (the storage
     bench's sched.equivalent check compares it with {!Naive.Sched}). *)
  module Exec = struct
    type task = {
      id : int;
      index : int;  (* distinct small index, for distinct backoffs *)
      script : script;
      read_only : bool;
      mutable remaining : script;
      mutable txn : E.txn option;
      mutable view : view option;  (* open snapshot view (read-only tasks) *)
      mutable done_ : bool;
      mutable restart_count : int;
      mutable backoff : int;  (* scheduler turns to sit out after a restart *)
      mutable parked_on : int;  (* page this script is blocked on, or -1 *)
      mutable woken : bool;  (* a wake reached it on that page *)
    }

    type t = {
      engine : E.t;
      commit : id:int -> E.txn -> unit;
      hold : id:int -> bool;
      snapshot : (unit -> view) option;
      read_mode : Lock_mgr.mode;
      locks : Lock_mgr.t;
      parked : task list ref Itbl.t;  (* per page, the tasks parked there since its last wake *)
      mutable commit_order : int list;  (* reversed *)
      mutable restarts : int;
      mutable steps : int;
      mutable lock_acquires : int;
    }

    type outcome =
      | Skipped  (* backoff ticked down, or parked and not woken *)
      | Blocked  (* ran the acquire, would block: parked *)
      | Advanced  (* executed one operation *)
      | Restarted  (* deadlock victim: rolled back *)
      | Committed

    let create ?commit ?hold ?snapshot ?(read_mode = Lock_mgr.S) engine =
      let commit = match commit with Some f -> f | None -> fun ~id:_ t -> E.commit t in
      let hold = match hold with Some f -> f | None -> fun ~id:_ -> false in
      (* The lock table covers the engine's key space, rounded up to
         whole pages; an acquire on a page outside it raises. *)
      let keys_per_page = E.keys_per_page engine in
      {
        engine;
        commit;
        hold;
        snapshot;
        read_mode;
        locks = Lock_mgr.create ~pages:((E.max_keys engine + keys_per_page - 1) / keys_per_page);
        parked = Itbl.create 32;
        commit_order = [];
        restarts = 0;
        steps = 0;
        lock_acquires = 0;
      }

    let spawn t ?(read_only = false) ~index ~id script =
      if read_only && t.snapshot <> None then
        List.iter
          (function
            | Get _ -> ()
            | Put _ | Delete _ -> invalid_arg "Scheduler.Exec.spawn: write in read-only script")
          script;
      {
        id;
        index;
        script;
        read_only;
        remaining = script;
        txn = None;
        view = None;
        done_ = false;
        restart_count = 0;
        backoff = 0;
        parked_on = -1;
        woken = false;
      }

    let finished st = st.done_

    let commit_order t = List.rev t.commit_order

    let restarts t = t.restarts

    let steps t = t.steps

    let lock_acquires t = t.lock_acquires

    let park t st page =
      st.parked_on <- page;
      st.woken <- false;
      match Itbl.find t.parked page with
      | l -> l := st :: !l
      | exception Not_found -> Itbl.replace t.parked page (ref [ st ])

    let unpark st =
      st.parked_on <- -1;
      st.woken <- false

    let rec wake page = function
      | [] -> ()
      | s :: rest ->
        if s.parked_on = page then s.woken <- true;
        wake page rest

    let wake_page t page =
      match Itbl.find t.parked page with
      | l ->
        Itbl.remove t.parked page;
        wake page !l
      | exception Not_found -> ()

    let wake_all t =
      Itbl.iter (fun page l -> wake page !l) t.parked;
      Itbl.clear t.parked

    let release_and_wake t txn =
      List.iter (wake_page t) (Lock_mgr.release_all_pages t.locks ~txn)

    let release_locks t ~id = release_and_wake t id

    (* Deadlock victims back off before retrying.  The backoff grows
       with the script's restart count and differs per script (via its
       [index]), so two scripts that keep colliding under deterministic
       round-robin eventually desynchronize (without this, repeated
       mutual restarts can livelock). *)
    let restart t st =
      (match st.txn with Some tx -> E.abort tx | None -> ());
      release_and_wake t st.id;
      st.txn <- None;
      st.remaining <- st.script;
      st.restart_count <- st.restart_count + 1;
      st.backoff <- st.restart_count * (st.index + 1);
      t.restarts <- t.restarts + 1

    let txn_of t st =
      match st.txn with
      | Some tx -> tx
      | None ->
        let tx = E.begin_txn t.engine in
        st.txn <- Some tx;
        tx

    (* The lock-free path for a read-only task when a snapshot factory
       is installed: every Get reads through a view pinned at the
       task's first read, no lock is ever requested, so the task can
       neither block nor be a deadlock victim — it advances every turn
       it gets and commits by closing the view.  Without a factory,
       read-only tasks run the ordinary locked path. *)
    let advance_snapshot t st =
      match st.remaining with
      | [] ->
        (match st.view with Some v -> v.view_close () | None -> ());
        st.view <- None;
        st.done_ <- true;
        t.commit_order <- st.id :: t.commit_order;
        Committed
      | op :: rest ->
        let v =
          match st.view with
          | Some v -> v
          | None ->
            let v = (Option.get t.snapshot) () in
            st.view <- Some v;
            v
        in
        (match op with
        | Get k -> ignore (v.view_get k)
        | Put _ | Delete _ -> invalid_arg "Scheduler: write in read-only script");
        st.remaining <- rest;
        Advanced

    (* One advance attempt for a runnable task: execute one operation,
       or commit.  Locks are released at commit time regardless of what
       the commit sink does about durability (strict 2PL ends when the
       commit record is {e appended}; group commit only defers the
       force). *)
    let advance t st =
      if st.read_only && t.snapshot <> None then advance_snapshot t st
      else begin
      unpark st;
      match st.remaining with
      | [] ->
        (match st.txn with
        | Some tx -> t.commit ~id:st.id tx
        | None ->
          (* empty script: an empty transaction still commits *)
          t.commit ~id:st.id (txn_of t st));
        (* A held task (a 2PC participant slice that just prepared)
           keeps its page locks past the sink: strict 2PL must extend
           to the coordinator's decision, or another transaction could
           read a value whose fate is still open.  The driver releases
           with [release_locks] when the decision arrives. *)
        if not (t.hold ~id:st.id) then release_and_wake t st.id;
        st.done_ <- true;
        st.txn <- None;
        t.commit_order <- st.id :: t.commit_order;
        Committed
      | op :: rest -> (
        t.lock_acquires <- t.lock_acquires + 1;
        let page = key_of op / E.keys_per_page t.engine in
        match
          Lock_mgr.acquire_wait_info t.locks ~txn:st.id ~page ~mode:(mode_of t.read_mode op)
        with
        | Lock_mgr.Granted, _ ->
          let tx = txn_of t st in
          (match op with
          | Get k -> ignore (E.get tx k)
          | Put (k, v) -> E.put tx k v
          | Delete k -> E.delete tx k);
          st.remaining <- rest;
          Advanced
        | Lock_mgr.Would_block, fresh_edges ->
          if fresh_edges then wake_all t;
          park t st page;
          Blocked
        | Lock_mgr.Deadlock _, _ ->
          (* strict 2PL victim: roll back and start over *)
          restart t st;
          Restarted)
      end

    (* One scheduler turn for a task: counts a step, serves the backoff,
       skips a parked-and-unwoken task, otherwise advances. *)
    let step t st =
      t.steps <- t.steps + 1;
      if st.backoff > 0 then begin
        st.backoff <- st.backoff - 1;
        Skipped
      end
      else if st.parked_on >= 0 && not st.woken then Skipped
      else advance t st
  end

  (* A blocked script's retry is a pure no-op except after two kinds of
     events, so instead of re-running the lock acquisition for every
     blocked script every turn (the pre-overhaul polling scheduler, kept
     in {!Naive.Sched}), scripts park on the page that blocked them and
     are woken only when a retry could decide differently:

     - a lock release touched their page ({!Lock_mgr.release_all_pages}
       names them): the retry may now be [Granted];
     - a script queued a new waiter while the waits-for graph may hold
       a cycle that no acquire has reported ([acquire_wait_info]'s
       bool): the retry may now find [Deadlock].  The closing acquire
       does not always see its own cycle (an upgrade request checks
       only the page's other holders), so in the polling world the
       victim is whichever transaction on the cycle re-acquires first.
       Waking every parked script then reproduces that audit in the
       same round-robin order.  While the graph is known to be acyclic,
       a new waiter wakes nobody: no parked retry could find a
       deadlock, so a contended steady state parks quietly instead of
       cascading wakes.

     Parking pushes the script onto its page's list.  A wake sets
     [woken] on the listed scripts still parked on that page and drops
     the list ([wake_all] drops every list), and an unpark only clears
     the script's own flags: it runs only once woken, and a woken
     script is on no list, so each script sits on at most one list, at
     most once, and neither a wake nor a retry copies a list.

     A parked script still counts a scheduler step each turn, and a
     woken retry runs the identical acquire a poll would have run, so
     [steps], [commit_order] and [restarts] are bit-identical to the
     polling scheduler. *)
  let run ?(max_steps = 100_000) engine ~scripts =
    let ids = List.map fst scripts in
    if List.length (List.sort_uniq Int.compare ids) <> List.length ids then
      invalid_arg "Scheduler.run: duplicate script ids";
    let ex = Exec.create engine in
    let tasks = List.mapi (fun index (id, script) -> Exec.spawn ex ~index ~id script) scripts in
    let all_done () = List.for_all Exec.finished tasks in
    while (not (all_done ())) && Exec.steps ex < max_steps do
      List.iter (fun st -> if not (Exec.finished st) then ignore (Exec.step ex st)) tasks
    done;
    if not (all_done ()) then failwith "Scheduler.run: scripts did not complete (livelock?)";
    { commit_order = Exec.commit_order ex; restarts = Exec.restarts ex; steps = Exec.steps ex }
end
