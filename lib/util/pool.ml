type t = {
  jobs : int; (* effective: clamped to host cores unless oversubscribed *)
  queue : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  work_ready : Condition.t; (* something was enqueued, or shutdown began *)
  all_done : Condition.t; (* some map_ordered call finished its last item *)
  mutable shutting_down : bool;
  mutable workers : unit Domain.t array;
}

let default_jobs () = Domain.recommended_domain_count ()

let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.shutting_down do
    Condition.wait t.work_ready t.mutex
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.mutex (* shutting down *)
  else begin
    let task = Queue.pop t.queue in
    Mutex.unlock t.mutex;
    task ();
    worker_loop t
  end

let create ?jobs ?(allow_oversubscribe = false) () =
  let requested = match jobs with None -> default_jobs () | Some j -> j in
  if requested < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  (* Spawning more domains than cores makes every domain slower (OCaml
     runtime coordination scales with the domain count), so a request
     beyond the host is clamped unless the caller explicitly insists. *)
  let jobs = if allow_oversubscribe then requested else min requested (default_jobs ()) in
  let t =
    {
      jobs;
      queue = Queue.create ();
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      all_done = Condition.create ();
      shutting_down = false;
      workers = [||];
    }
  in
  (* The caller's own domain works too, so spawn one fewer. *)
  if jobs > 1 then t.workers <- Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let jobs t = t.jobs

(* Explicit left-to-right application: this is the serial path that
   [--jobs 1] promises to reproduce bit-for-bit, so the evaluation order
   must not depend on [List.map]'s. *)
let serial_map xs ~f = List.rev (List.fold_left (fun acc x -> f x :: acc) [] xs)

let map_ordered t xs ~f =
  if t.jobs = 1 then serial_map xs ~f
  else begin
    let items = Array.of_list xs in
    let n = Array.length items in
    let results : ('b, exn) result option array = Array.make n None in
    (* Self-scheduling: single items from an atomic cursor, in input
       order.  No chunk boundaries, so no domain ever idles behind one
       long item that happened to share a chunk with it. *)
    let cursor = Atomic.make 0 in
    let remaining = ref n in
    let rec drain () =
      let i = Atomic.fetch_and_add cursor 1 in
      if i < n then begin
        results.(i) <- Some (try Ok (f items.(i)) with e -> Error e);
        Mutex.lock t.mutex;
        decr remaining;
        if !remaining = 0 then Condition.broadcast t.all_done;
        Mutex.unlock t.mutex;
        drain ()
      end
    in
    Mutex.lock t.mutex;
    (* One drainer per worker domain; the caller's domain drains too.
       A drainer that arrives after the cursor is exhausted exits
       immediately, so stale queue entries are harmless. *)
    for _ = 2 to t.jobs do
      Queue.add drain t.queue
    done;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    drain ();
    Mutex.lock t.mutex;
    while !remaining > 0 do
      Condition.wait t.all_done t.mutex
    done;
    Mutex.unlock t.mutex;
    let out = ref [] in
    let first_error = ref None in
    for i = n - 1 downto 0 do
      match results.(i) with
      | Some (Ok v) -> out := v :: !out
      | Some (Error e) -> first_error := Some e
      | None -> assert false
    done;
    match !first_error with None -> !out | Some e -> raise e
  end

let shutdown t =
  Mutex.lock t.mutex;
  t.shutting_down <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  Array.iter Domain.join t.workers;
  t.workers <- [||]

let with_pool ?jobs ?allow_oversubscribe f =
  let t = create ?jobs ?allow_oversubscribe () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
