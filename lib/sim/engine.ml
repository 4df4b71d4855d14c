(* Allocation-free event core.

   Two ideas keep steady-state stepping at ~zero minor words per event:

   - Event records are recycled through an intrusive free-list: a record
     is released the moment it leaves the agenda (fired or dropped after
     cancellation) and the very next [schedule] reuses it, so a running
     simulation stops allocating records once its live-event high-water
     mark is reached.  Handles are generation-tagged integers (no
     wrapper allocation), so a stale handle to a recycled record can
     never cancel the record's new incarnation.

   - The agenda is a monomorphic binary min-heap split into a
     structure-of-arrays: the [float] keys live in their own
     [float array] (unboxed reads and stores), the payload records in a
     parallel array.  Ordering is [(time, seq)] so simultaneous events
     fire in scheduling order. *)

type event = {
  idx : int; (* position in [recs]; immutable identity of the record *)
  mutable gen : int; (* bumped on every release; stale handles miss *)
  mutable seq : int;
  mutable action : unit -> unit;
  mutable cancelled : bool;
}

(* [(gen lsl idx_bits) lor idx].  24 bits of index bounds the live-event
   high-water mark at ~16M (far beyond any run here) and leaves 38+ bits
   of generation before wraparound. *)
type event_id = int

let idx_bits = 24
let idx_mask = (1 lsl idx_bits) - 1

let dummy = { idx = -1; gen = 0; seq = -1; action = ignore; cancelled = true }

type t = {
  mutable times : float array; (* heap keys, parallel to [evs] *)
  mutable evs : event array;
  mutable size : int;
  clock : float array; (* one cell: stores stay unboxed, unlike a mutable
                          float field of this mixed record *)
  mutable next_seq : int;
  mutable live : int; (* scheduled and not cancelled/fired *)
  mutable recs : event array; (* every record ever created, by [idx] *)
  mutable n_recs : int;
  mutable free : int array; (* stack of recyclable record indices *)
  mutable n_free : int;
}

let create () =
  {
    times = [||];
    evs = [||];
    size = 0;
    clock = [| 0.0 |];
    next_seq = 0;
    live = 0;
    recs = [||];
    n_recs = 0;
    free = [||];
    n_free = 0;
  }

(* Return the engine to its just-created state while keeping every
   array and event record for reuse: the agenda slots are cleared to
   [dummy] (dead actions and the closures they capture must not be
   pinned by the slack), the clock/sequence/live counters restart at
   zero, and the free stack is rebuilt over every record ever created
   with its generation bumped, so all outstanding handles go stale.
   After [reset] the engine is observationally identical to
   [create ()]: record identities differ, but scheduling order depends
   only on [(time, seq)], never on which record carries an event. *)
let reset t =
  for i = 0 to t.size - 1 do
    t.evs.(i) <- dummy
  done;
  t.size <- 0;
  t.clock.(0) <- 0.0;
  t.next_seq <- 0;
  t.live <- 0;
  if Array.length t.free < t.n_recs then t.free <- Array.make (Array.length t.recs) 0;
  t.n_free <- 0;
  for i = 0 to t.n_recs - 1 do
    let ev = t.recs.(i) in
    ev.action <- ignore;
    ev.cancelled <- true;
    ev.gen <- ev.gen + 1;
    t.free.(t.n_free) <- i;
    t.n_free <- t.n_free + 1
  done

let now t = t.clock.(0)

let pending t = t.live

(* ---- record pool ------------------------------------------------- *)

let acquire t =
  if t.n_free > 0 then begin
    t.n_free <- t.n_free - 1;
    t.recs.(t.free.(t.n_free))
  end
  else begin
    if t.n_recs = Array.length t.recs then begin
      let cap = Array.length t.recs in
      let nr = Array.make (if cap = 0 then 16 else 2 * cap) dummy in
      Array.blit t.recs 0 nr 0 cap;
      t.recs <- nr
    end;
    if t.n_recs > idx_mask then failwith "Engine: live-event limit exceeded";
    let ev = { idx = t.n_recs; gen = 0; seq = 0; action = ignore; cancelled = true } in
    t.recs.(t.n_recs) <- ev;
    t.n_recs <- t.n_recs + 1;
    ev
  end

(* Release a record back to the free stack.  Bumping [gen] invalidates
   every outstanding handle; dropping [action] unpins the closure. *)
let release t ev =
  ev.action <- ignore;
  ev.cancelled <- true;
  ev.gen <- ev.gen + 1;
  if t.n_free = Array.length t.free then begin
    let cap = Array.length t.free in
    let nf = Array.make (if cap = 0 then 16 else 2 * cap) 0 in
    Array.blit t.free 0 nf 0 cap;
    t.free <- nf
  end;
  t.free.(t.n_free) <- ev.idx;
  t.n_free <- t.n_free + 1

(* ---- heap -------------------------------------------------------- *)

(* The sifts use the hole technique (shift parents/children into the
   hole, place the moving element once) and unchecked array accesses.
   Every index is derived from [size], which only this module maintains,
   and the parent/child bounds are checked explicitly, so the accesses
   are in range by construction. *)

let grow t =
  let cap = Array.length t.evs in
  if t.size = cap then begin
    let ncap = if cap = 0 then 16 else 2 * cap in
    let ntimes = Array.make ncap 0.0 in
    Array.blit t.times 0 ntimes 0 t.size;
    t.times <- ntimes;
    (* Slots at or above [size] always hold [dummy] so dead events (and
       the closures they capture) are never pinned by the slack. *)
    let nevs = Array.make ncap dummy in
    Array.blit t.evs 0 nevs 0 t.size;
    t.evs <- nevs
  end

(* Insert [ev] at [time], opening the hole at the new last slot.  A new
   event carries the largest [seq] so far, so on a time tie it stays
   below its parent — exactly the (time, seq) order. *)
let heap_push t time ev =
  grow t;
  let times = t.times and evs = t.evs in
  let sq = ev.seq in
  let i = ref t.size in
  t.size <- t.size + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let ptm = Array.unsafe_get times p in
    if time < ptm || (time = ptm && sq < (Array.unsafe_get evs p).seq) then begin
      Array.unsafe_set times !i ptm;
      Array.unsafe_set evs !i (Array.unsafe_get evs p);
      i := p
    end
    else moving := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set evs !i ev

(* Remove the root; the caller has already read [times.(0)]/[evs.(0)].
   The former last element sinks from the root hole. *)
let remove_top t =
  let n = t.size - 1 in
  t.size <- n;
  let times = t.times and evs = t.evs in
  if n = 0 then Array.unsafe_set evs 0 dummy
  else begin
    let tm = Array.unsafe_get times n in
    let ev = Array.unsafe_get evs n in
    Array.unsafe_set evs n dummy;
    let sq = ev.seq in
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= n then moving := false
      else begin
        let c =
          let r = l + 1 in
          if r < n then begin
            let ltm = Array.unsafe_get times l and rtm = Array.unsafe_get times r in
            if
              rtm < ltm
              || (rtm = ltm && (Array.unsafe_get evs r).seq < (Array.unsafe_get evs l).seq)
            then r
            else l
          end
          else l
        in
        let ctm = Array.unsafe_get times c in
        if ctm < tm || (ctm = tm && (Array.unsafe_get evs c).seq < sq) then begin
          Array.unsafe_set times !i ctm;
          Array.unsafe_set evs !i (Array.unsafe_get evs c);
          i := c
        end
        else moving := false
      end
    done;
    Array.unsafe_set times !i tm;
    Array.unsafe_set evs !i ev
  end

(* Drop cancelled events sitting on top of the agenda: they must neither
   fire nor hide what the next live event is. *)
let rec drop_cancelled t =
  if t.size > 0 then begin
    let ev = Array.unsafe_get t.evs 0 in
    if ev.cancelled then begin
      remove_top t;
      release t ev;
      drop_cancelled t
    end
  end

(* ---- public api -------------------------------------------------- *)

let schedule_at t ~time action =
  if not (Float.is_finite time) then invalid_arg "Engine.schedule_at: non-finite time";
  if time < t.clock.(0) then invalid_arg "Engine.schedule_at: time in the past";
  let ev = acquire t in
  ev.seq <- t.next_seq;
  ev.action <- action;
  ev.cancelled <- false;
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  heap_push t time ev;
  (ev.gen lsl idx_bits) lor ev.idx

let schedule t ~delay action =
  if not (Float.is_finite delay) || delay < 0.0 then
    invalid_arg "Engine.schedule: negative or non-finite delay";
  schedule_at t ~time:(t.clock.(0) +. delay) action

let cancel t id =
  let idx = id land idx_mask in
  if idx < t.n_recs then begin
    let ev = t.recs.(idx) in
    (* The generation check makes a handle single-incarnation: once the
       event fires (or its cancelled record is dropped) the record's
       generation moves on and the stale handle is a no-op, even if the
       record has been recycled for an unrelated event. *)
    if ev.gen = id lsr idx_bits && not ev.cancelled then begin
      ev.cancelled <- true;
      t.live <- t.live - 1
    end
  end

(* Callers guarantee [t.size > 0]. *)
let fire t =
  let time = Array.unsafe_get t.times 0 in
  let ev = Array.unsafe_get t.evs 0 in
  remove_top t;
  t.clock.(0) <- time;
  t.live <- t.live - 1;
  let action = ev.action in
  (* Release before running the action: anything the action schedules
     reuses this record immediately, which is what makes steady-state
     chains allocation-free. *)
  release t ev;
  action ()

let step t =
  drop_cancelled t;
  if t.size = 0 then false
  else begin
    fire t;
    true
  end

(* A cancelled top is drained first so a past-horizon live event behind
   it can never fire: the horizon check always sees the next event that
   would actually run.  The four (until, max_events) combinations get
   their own loops so the common unbounded case tests nothing per
   iteration but the agenda itself. *)
let run ?until ?max_events t =
  match (until, max_events) with
  | None, None ->
    let live = ref true in
    while !live do
      drop_cancelled t;
      if t.size = 0 then live := false else fire t
    done
  | Some horizon, None ->
    let live = ref true in
    while !live do
      drop_cancelled t;
      if t.size > 0 && Array.unsafe_get t.times 0 <= horizon then fire t else live := false
    done
  | None, Some m ->
    let fired = ref 0 in
    let live = ref true in
    while !live && !fired < m do
      drop_cancelled t;
      if t.size = 0 then live := false
      else begin
        fire t;
        incr fired
      end
    done
  | Some horizon, Some m ->
    let fired = ref 0 in
    let live = ref true in
    while !live && !fired < m do
      drop_cancelled t;
      if t.size > 0 && Array.unsafe_get t.times 0 <= horizon then begin
        fire t;
        incr fired
      end
      else live := false
    done
