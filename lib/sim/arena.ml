(* Per-domain scratch arena.

   Consecutive runs on one domain reuse one engine (event records, SoA
   heap arrays) and its resource pools (server arrays, waiting rings)
   instead of rebuilding them on the major heap for every run.  The
   arena lives in domain-local storage, so pool workers each get their
   own and no synchronisation is needed.

   Determinism: [begin_run] resets the engine and every [resource] call
   resets the pool it hands out, restoring exactly the just-created
   observable state (see [Engine.reset] / [Resource.reset]); every run
   then reinitialises all remaining state from its own PRNG seed.  The
   only thing recycling changes is array capacities, which no simulation
   path observes.

   Resource pools are cached by request order within a run, not by name:
   a run that asks for "query-processors" then "foo" reuses the pools
   the previous run requested first and second.  That is correct because
   [Resource.reset] re-imposes the requested name/server count whatever
   the pool was before. *)

type t = {
  engine : Engine.t;
  mutable resources : Resource.t array; (* cached pools, in first-request order *)
  mutable n_resources : int;
  mutable cursor : int; (* next pool to hand out in the current run *)
}

let create () = { engine = Engine.create (); resources = [||]; n_resources = 0; cursor = 0 }

let key = Domain.DLS.new_key create

let current () = Domain.DLS.get key

let begin_run t =
  t.cursor <- 0;
  Engine.reset t.engine;
  t.engine

let resource t ~name ~servers =
  if t.cursor < t.n_resources then begin
    let r = t.resources.(t.cursor) in
    t.cursor <- t.cursor + 1;
    Resource.reset r ~name ~servers;
    r
  end
  else begin
    let r = Resource.create t.engine ~name ~servers () in
    if t.n_resources = Array.length t.resources then begin
      let cap = Array.length t.resources in
      let nr = Array.make (if cap = 0 then 4 else 2 * cap) r in
      Array.blit t.resources 0 nr 0 cap;
      t.resources <- nr
    end;
    t.resources.(t.n_resources) <- r;
    t.n_resources <- t.n_resources + 1;
    t.cursor <- t.n_resources;
    r
  end
