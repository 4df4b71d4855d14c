type kind = Read | Write

(* [remaining.(0 .. n_remaining - 1)] are the pages not yet served, in
   request order; served pages are compacted out in place, so coalescing
   never copies the page set. *)
type request = {
  kind : kind;
  remaining : int array;
  mutable n_remaining : int;
  extra_transfers : int;
  on_complete : unit -> unit;
}

(* The queue is a growable ring of requests (FCFS; index 0 is oldest).
   A saturated drive — the log disk of Table 3 — holds hundreds of
   queued requests, so the queue must support O(1) append and O(1)
   length; the list representation this replaces allocated a full copy
   of the queue on every submit. *)
type t = {
  engine : Dbm_sim.Engine.t;
  params : Params.t;
  layout : Layout.t;
  name : string;
  coalesce : bool;
  cyl_of : int -> int;
  mutable q : request array;  (* ring; capacity is a power of two *)
  mutable q_first : int;
  mutable q_len : int;
  mutable busy : bool;
  mutable head_cylinder : int;
  busy_acc : Dbm_util.Stats.Busy.t;
  mutable accesses : int;
  mutable pages : int;
}

let dummy_request =
  { kind = Read; remaining = [||]; n_remaining = 0; extra_transfers = 0; on_complete = ignore }

let create engine ~params ~layout ~name ?(coalesce = true) () =
  {
    engine;
    params;
    layout;
    name;
    coalesce;
    cyl_of = Layout.cylinder_fn params layout;
    q = Array.make 16 dummy_request;
    q_first = 0;
    q_len = 0;
    busy = false;
    head_cylinder = 0;
    busy_acc = Dbm_util.Stats.Busy.create ();
    accesses = 0;
    pages = 0;
  }

let name t = t.name
let access_count t = t.accesses
let pages_transferred t = t.pages
let utilization t =
  Dbm_util.Stats.Busy.utilization t.busy_acc ~elapsed:(Dbm_sim.Engine.now t.engine) ~servers:1

let q_get t i = t.q.((t.q_first + i) land (Array.length t.q - 1))
let q_set t i r = t.q.((t.q_first + i) land (Array.length t.q - 1)) <- r

let q_push t r =
  let cap = Array.length t.q in
  if t.q_len = cap then begin
    let q' = Array.make (2 * cap) dummy_request in
    for i = 0 to t.q_len - 1 do
      q'.(i) <- t.q.((t.q_first + i) land (cap - 1))
    done;
    t.q <- q';
    t.q_first <- 0
  end;
  q_set t t.q_len r;
  t.q_len <- t.q_len + 1

(* One conventional access per page; arm position carried along.
   Serves (and consumes) the head request's whole page train. *)
let conventional_service t ~extra_transfers (head : request) =
  let per_page_transfer =
    float_of_int (1 + extra_transfers) *. t.params.Params.page_transfer_ms
  in
  let n = head.n_remaining in
  head.n_remaining <- 0;
  let acc = [| 0.0 |] (* unboxed accumulator; a float ref would box every store *) in
  for i = 0 to n - 1 do
    let cyl = t.cyl_of head.remaining.(i) in
    let seek = Params.seek_time t.params ~from_cyl:t.head_cylinder ~to_cyl:cyl in
    t.head_cylinder <- cyl;
    acc.(0) <- acc.(0) +. seek +. Params.avg_rotational_latency t.params +. per_page_transfer
  done;
  t.accesses <- t.accesses + n;
  t.pages <- t.pages + n;
  acc.(0)

(* One parallel access: every page served lives in [target] cylinder. *)
let parallel_service t ~extra_transfers target served =
  let seek = Params.seek_time t.params ~from_cyl:t.head_cylinder ~to_cyl:target in
  t.head_cylinder <- target;
  t.accesses <- t.accesses + 1;
  t.pages <- t.pages + List.length served;
  let slots =
    Layout.slot_positions t.params t.layout served + (extra_transfers * List.length served)
  in
  seek
  +. Params.avg_rotational_latency t.params
  +. (float_of_int slots *. t.params.Params.page_transfer_ms)

(* Remove every fully-served request (FCFS order preserved for the
   rest), then fire the completions in FCFS order.  Callbacks run only
   after the queue is consistent: they may re-enter [submit]. *)
let finish_completed t =
  let n = t.q_len in
  let done_rev = ref [] in
  let w = ref 0 in
  for i = 0 to n - 1 do
    let r = q_get t i in
    if r.n_remaining = 0 then done_rev := r :: !done_rev
    else begin
      if !w < i then q_set t !w r;
      incr w
    end
  done;
  for i = !w to n - 1 do
    q_set t i dummy_request
  done;
  t.q_len <- !w;
  List.iter (fun r -> r.on_complete ()) (List.rev !done_rev)

let rec serve t =
  if (not t.busy) && t.q_len > 0 then begin
    let head = q_get t 0 in
    let service =
      if not t.params.Params.parallel_access then
        conventional_service t ~extra_transfers:head.extra_transfers head
      else if head.n_remaining = 0 then 0.0
      else begin
        let target = t.cyl_of head.remaining.(0) in
        (* Absorb, from every queued same-kind request, the pages that
           live in the target cylinder (compacting the misses in
           place — only the served pages are collected). *)
        let served = ref [] in
        let absorb r =
          if r.kind = head.kind then begin
            let n = r.n_remaining in
            let w = ref 0 in
            for i = 0 to n - 1 do
              let p = Array.unsafe_get r.remaining i in
              if t.cyl_of p = target then served := p :: !served
              else begin
                Array.unsafe_set r.remaining !w p;
                incr w
              end
            done;
            r.n_remaining <- !w
          end
        in
        if t.coalesce then
          for i = 0 to t.q_len - 1 do
            absorb (q_get t i)
          done
        else absorb head;
        parallel_service t ~extra_transfers:head.extra_transfers target !served
      end
    in
    t.busy <- true;
    Dbm_util.Stats.Busy.add_busy t.busy_acc service;
    ignore
      (Dbm_sim.Engine.schedule t.engine ~delay:service (fun () ->
           t.busy <- false;
           finish_completed t;
           serve t))
  end

let submit t ?(extra_transfers = 0) kind ~pages on_complete =
  if pages = [] then
    ignore (Dbm_sim.Engine.schedule t.engine ~delay:0.0 on_complete)
  else begin
    let remaining = Array.of_list pages in
    q_push t
      { kind; remaining; n_remaining = Array.length remaining; extra_transfers; on_complete };
    serve t
  end
