module Histogram = Dbm_util.Stats.Histogram

module type ENGINE = sig
  include Kv.S

  val commit_group : txn -> unit

  val force_commits : t -> unit
end

type result = {
  completed : int;
  makespan_us : float;
  sustained_tps : float;
  restarts : int;
  ro_restarts : int;
  forces : int;
  max_inflight : int;
  max_queued : int;
  lock_acquires : int;
  latency_us : Histogram.t;
  ro_latency_us : Histogram.t;
  rw_latency_us : Histogram.t;
}

(* After this many consecutive round-robin passes with no task
   advancing, restarting or committing — only backoff ticks and parked
   skips — the run is declared livelocked.  Backoffs are bounded by
   [restart_count * mpl], so a healthy contended run drains its idle
   passes far below this. *)
let idle_pass_limit = 1_000_000

module Make (E : ENGINE) = struct
  module Sch = Scheduler.Make (E)
  module Pipe = Commit_pipeline.Make (E)

  type participant = {
    votes : int -> bool;
    vote : now:float -> id:int -> E.txn -> unit;
    admit : int -> bool;
    decided : unit -> (int * E.txn * float) option;
    await : unit -> bool;
  }

  let drive ?(mpl = 64) ?(op_cost_us = 1.0) ?(sync_cost_us = 100.0) ?snapshot ?read_mode
      ?read_only ?participant ~mode ~arrivals_us ~ids ~scripts engine =
    if mpl < 1 then invalid_arg "Server.run: mpl must be >= 1";
    if not (op_cost_us >= 0.0 && Float.is_finite op_cost_us) then
      invalid_arg "Server.run: op_cost_us must be non-negative and finite";
    let n = Array.length ids in
    if Array.length scripts <> n then
      invalid_arg "Server.run: arrivals and scripts must have equal length";
    (* Two tasks sharing an id would share one lock-manager transaction
       and never wait for each other's locks. *)
    Array.iteri
      (fun j id ->
        let lowest = if j = 0 then 0 else ids.(j - 1) + 1 in
        if id < lowest || id >= Array.length arrivals_us then
          invalid_arg "Server.run: ids must be strictly increasing indices into arrivals_us")
      ids;
    (match read_only with
    | Some ro when Array.length ro <> Array.length arrivals_us ->
      invalid_arg "Server.run: read_only and scripts must have equal length"
    | _ -> ());
    Array.iteri
      (fun i a ->
        if not (Float.is_finite a && a >= 0.0 && (i = 0 || a >= arrivals_us.(i - 1))) then
          invalid_arg "Server.run: arrival times must be finite, non-negative, non-decreasing")
      arrivals_us;
    let is_ro id = match read_only with Some ro -> ro.(id) | None -> false in
    let now = ref 0.0 in
    let ro_hist = Histogram.create () and rw_hist = Histogram.create () in
    let acked = ref 0 in
    let pipe =
      Pipe.create ~sync_cost_us
        ~on_ack:(fun ~id ~now ->
          (* Locked-path read-only transactions still commit through the
             pipeline; route their latency to their class. *)
          Histogram.add (if is_ro id then ro_hist else rw_hist) (Float.max 0.0 (now -. arrivals_us.(id)));
          incr acked)
        mode engine
    in
    let submit ~id txn = now := Pipe.submit pipe ~now:!now ~id txn in
    (* The commit sink: every finishing task commits through the shared
       pipeline, on the server clock — except a participant's voting
       transactions, whose commit is a durable vote charged one force,
       their locks held until the decision is applied (below).
       Snapshot-path read-only tasks never reach the sink — they have no
       transaction and nothing needing durability; their ack is their
       final step (below). *)
    let ex =
      match participant with
      | None -> Sch.Exec.create ~commit:submit ?snapshot ?read_mode engine
      | Some p ->
        Sch.Exec.create
          ~commit:(fun ~id txn ->
            if p.votes id then begin
              now := !now +. sync_cost_us;
              p.vote ~now:!now ~id txn
            end
            else submit ~id txn)
          ~hold:(fun ~id -> p.votes id)
          ?snapshot ?read_mode engine
    in
    (* [waitq] holds positions into [ids]/[scripts].  [runq] is a ring
       of turns, [runq_len] of them from [runq_head]: at most [mpl]
       tasks are in flight (admitted, not yet acked), so [mpl] slots
       hold every unfinished task's turn, and a turn goes back in its
       own option cell. *)
    let waitq : int Queue.t = Queue.create () in
    let runq = Array.make mpl None and runq_head = ref 0 and runq_len = ref 0 in
    let push_turn turn =
      runq.((!runq_head + !runq_len) mod mpl) <- turn;
      incr runq_len
    in
    let ro_restarts = ref 0 in
    let next = ref 0 in
    let spawned = ref 0 in
    let max_inflight = ref 0 in
    let max_queued = ref 0 in
    let idle_passes = ref 0 in
    (* Admission control: a transaction is in flight from admission
       until its durable ack; at most [mpl] may be in flight, and the
       overflow waits in an unbounded FIFO — arrivals are delayed, never
       dropped.  A participant's gate may also hold the FIFO's head. *)
    let in_flight () = !spawned - !acked in
    let pump_arrivals () =
      while !next < n && arrivals_us.(ids.(!next)) <= !now do
        Queue.push !next waitq;
        incr next;
        if Queue.length waitq > !max_queued then max_queued := Queue.length waitq
      done
    in
    let may_admit id = match participant with Some p -> p.admit id | None -> true in
    let admit () =
      let stalled = ref false in
      while (not !stalled) && (not (Queue.is_empty waitq)) && in_flight () < mpl do
        let j = Queue.peek waitq in
        let id = ids.(j) in
        if not (may_admit id) then stalled := true
        else begin
          ignore (Queue.pop waitq);
          let task =
            Sch.Exec.spawn ex ~read_only:(is_ro id) ~index:(!spawned mod mpl) ~id scripts.(j)
          in
          push_turn (Some (task, id));
          incr spawned;
          if in_flight () > !max_inflight then max_inflight := in_flight ()
        end
      done
    in
    (* Apply a participant's landed decision: the local decision record
       (unforced — the decision's own durable record is what recovery
       resolves from), lock release, ack at the decision instant. *)
    let apply_decision () =
      match participant with
      | None -> false
      | Some p -> (
        match p.decided () with
        | None -> false
        | Some (id, txn, decided_us) ->
          E.commit_group txn;
          Sch.Exec.release_locks ex ~id;
          now := Float.max !now decided_us +. op_cost_us;
          incr acked;
          true)
    in
    let await_decision () = match participant with Some p -> p.await () | None -> false in
    (* A snapshot-path read-only commit is its ack: no transaction, no
       pipeline, latency is arrival to final step. *)
    let snapshot_path = snapshot <> None in
    while !acked < n do
      pump_arrivals ();
      now := Pipe.poll pipe ~now:!now;
      if apply_decision () then idle_passes := 0;
      admit ();
      (* One round-robin pass.  A turn that did work (an operation, a
         restart's rollback, a commit append) costs [op_cost_us]; the
         sink charges sync latency inside [step] when it forces. *)
      let progressed = ref false in
      for _ = 1 to !runq_len do
        let turn = runq.(!runq_head) in
        runq_head := (!runq_head + 1) mod mpl;
        decr runq_len;
        let task, id = Option.get turn in
        (match Sch.Exec.step ex task with
        | Sch.Exec.Committed ->
          now := !now +. op_cost_us;
          progressed := true;
          if snapshot_path && is_ro id then begin
            Histogram.add ro_hist (Float.max 0.0 (!now -. arrivals_us.(id)));
            incr acked
          end
        | Sch.Exec.Advanced ->
          now := !now +. op_cost_us;
          progressed := true
        | Sch.Exec.Restarted ->
          now := !now +. op_cost_us;
          progressed := true;
          if is_ro id then incr ro_restarts
        | Sch.Exec.Blocked | Sch.Exec.Skipped -> ());
        if not (Sch.Exec.finished task) then push_turn turn
      done;
      if !progressed then idle_passes := 0
      else begin
        (* Nothing ran.  Jump the clock to the next event — the pending
           batch's timeout or the next arrival; with none due, block on
           a participant's pending decision; and only if there is none,
           spin the backoff/wake machinery under a livelock guard. *)
        let next_event =
          let d = match Pipe.deadline pipe with Some d -> d | None -> Float.infinity in
          let a = if !next < n then arrivals_us.(ids.(!next)) else Float.infinity in
          Float.min d a
        in
        if next_event > !now && Float.is_finite next_event then begin
          now := next_event;
          idle_passes := 0
        end
        else if await_decision () then idle_passes := 0
        else begin
          incr idle_passes;
          if !idle_passes > idle_pass_limit then
            failwith "Server.run: no progress (livelock or undetected deadlock)"
        end
      end
    done;
    let makespan_us = !now in
    {
      completed = !acked;
      makespan_us;
      sustained_tps = (if makespan_us > 0.0 then float_of_int n /. makespan_us *. 1e6 else Float.infinity);
      restarts = Sch.Exec.restarts ex;
      ro_restarts = !ro_restarts;
      forces = Pipe.forces pipe;
      max_inflight = !max_inflight;
      max_queued = !max_queued;
      lock_acquires = Sch.Exec.lock_acquires ex;
      latency_us = Histogram.merge rw_hist ro_hist;
      ro_latency_us = ro_hist;
      rw_latency_us = rw_hist;
    }

  let run ?mpl ?op_cost_us ?sync_cost_us ?snapshot ?read_mode ?read_only ~mode ~arrivals_us
      ~scripts engine =
    drive ?mpl ?op_cost_us ?sync_cost_us ?snapshot ?read_mode ?read_only ~mode ~arrivals_us
      ~ids:(Array.init (Array.length arrivals_us) Fun.id)
      ~scripts engine
end
