(* The completion path is shared: each server slot carries one finish
   closure allocated at [create], and the job's continuation is parked in
   the slot for the duration of the service.  Submitting to an idle
   server therefore allocates nothing (beyond the caller's own
   continuation), and a job that waits costs only two stores into the
   structure-of-arrays queue below — no job record, no option.

   The waiting queue is a circular buffer split by field: service times
   in a [float array] (unboxed stores and reads), continuations in a
   parallel closure array.  This keeps the submit/finish cycle at a few
   words per event where the record-and-ring design cost ~17. *)

type t = {
  engine : Engine.t;
  mutable name : string;
  mutable servers : int;
  (* waiting jobs: circular buffer, capacity a power of two *)
  mutable q_service : float array;
  mutable q_k : (unit -> unit) array;
  mutable q_head : int;
  mutable q_len : int;
  mutable free_servers : int array; (* stack of idle server slots *)
  mutable n_free : int;
  mutable slots : (unit -> unit) array; (* per-server parked continuation *)
  mutable finishers : (unit -> unit) array; (* per-server completion events, allocated once *)
  mutable busy : int;
  busy_acc : Dbm_util.Stats.Busy.t;
  mutable completed : int;
}

let busy_servers t = t.busy
let queue_length t = t.q_len
let completed t = t.completed

(* Double the queue, unrolling the circular order so head restarts at
   zero.  Amortized over the growth that filled the old buffer. *)
let grow_queue t =
  let cap = Array.length t.q_service in
  let ncap = 2 * cap in
  let ns = Array.make ncap 0.0 in
  let nk = Array.make ncap ignore in
  let mask = cap - 1 in
  for i = 0 to t.q_len - 1 do
    let j = (t.q_head + i) land mask in
    ns.(i) <- t.q_service.(j);
    nk.(i) <- t.q_k.(j)
  done;
  t.q_service <- ns;
  t.q_k <- nk;
  t.q_head <- 0

(* Claim a server slot and schedule its (pre-allocated) finish event. *)
let start t ~service k =
  t.n_free <- t.n_free - 1;
  let i = t.free_servers.(t.n_free) in
  t.slots.(i) <- k;
  t.busy <- t.busy + 1;
  Dbm_util.Stats.Busy.add_busy t.busy_acc service;
  ignore (Engine.schedule t.engine ~delay:service t.finishers.(i))

let rec start_next t =
  if t.n_free > 0 && t.q_len > 0 then begin
    let mask = Array.length t.q_service - 1 in
    let h = t.q_head in
    let service = Array.unsafe_get t.q_service h in
    let k = t.q_k.(h) in
    t.q_k.(h) <- ignore (* unpin the closure while it runs *);
    t.q_head <- (h + 1) land mask;
    t.q_len <- t.q_len - 1;
    start t ~service k;
    start_next t
  end

let finish t i =
  t.busy <- t.busy - 1;
  t.completed <- t.completed + 1;
  let k = t.slots.(i) in
  t.slots.(i) <- ignore;
  (* free the server before running [k]: a submit from inside the
     continuation sees the slot as available, as it did when the
     bookkeeping ran before [job.k] in the per-job-closure design *)
  t.free_servers.(t.n_free) <- i;
  t.n_free <- t.n_free + 1;
  k ();
  start_next t

let create engine ~name ~servers () =
  if servers <= 0 then invalid_arg "Resource.create: servers must be positive";
  let t =
    {
      engine;
      name;
      servers;
      q_service = Array.make 16 0.0;
      q_k = Array.make 16 ignore;
      q_head = 0;
      q_len = 0;
      free_servers = Array.init servers (fun i -> servers - 1 - i);
      n_free = servers;
      slots = Array.make servers ignore;
      finishers = Array.make servers ignore;
      busy = 0;
      busy_acc = Dbm_util.Stats.Busy.create ();
      completed = 0;
    }
  in
  for i = 0 to servers - 1 do
    t.finishers.(i) <- (fun () -> finish t i)
  done;
  t

(* Return the pool to its just-created state, reusing every array the
   previous run grew.  The per-server arrays (and finish closures) are
   rebuilt only when the server count actually changes; the waiting ring
   keeps its capacity but unpins all parked continuations.  Callers must
   reset the shared engine first so the statistics restart at the new
   run's time origin. *)
let reset t ~name ~servers =
  if servers <= 0 then invalid_arg "Resource.reset: servers must be positive";
  t.name <- name;
  if servers <> t.servers then begin
    t.servers <- servers;
    t.free_servers <- Array.init servers (fun i -> servers - 1 - i);
    t.slots <- Array.make servers ignore;
    t.finishers <- Array.make servers ignore;
    for i = 0 to servers - 1 do
      t.finishers.(i) <- (fun () -> finish t i)
    done
  end
  else
    for i = 0 to servers - 1 do
      t.free_servers.(i) <- servers - 1 - i;
      t.slots.(i) <- ignore
    done;
  t.n_free <- servers;
  Array.fill t.q_k 0 (Array.length t.q_k) ignore;
  t.q_head <- 0;
  t.q_len <- 0;
  t.busy <- 0;
  t.completed <- 0;
  Dbm_util.Stats.Busy.reset t.busy_acc

let submit t ~service k =
  if not (Float.is_finite service) || service < 0.0 then
    invalid_arg "Resource.submit: negative or non-finite service time";
  if t.n_free > 0 && t.q_len = 0 then begin
    (* Fast path: a server is idle and nobody is waiting, so the job
       never touches the queue. *)
    start t ~service k
  end
  else begin
    if t.q_len = Array.length t.q_service then grow_queue t;
    let mask = Array.length t.q_service - 1 in
    let i = (t.q_head + t.q_len) land mask in
    Array.unsafe_set t.q_service i service;
    t.q_k.(i) <- k;
    t.q_len <- t.q_len + 1;
    start_next t
  end

let utilization t =
  Dbm_util.Stats.Busy.utilization t.busy_acc ~elapsed:(Engine.now t.engine) ~servers:t.servers
