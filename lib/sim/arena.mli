(** Per-domain scratch arena recycling simulator state across runs.

    Building a run's engine and resource pools from scratch costs major
    heap: the event-record pool, the SoA agenda arrays, the per-server
    arrays and waiting rings all live past the minor collector.  An
    arena keeps one set of these per domain (in domain-local storage)
    and resets them between runs, so the suite's steady state allocates
    almost nothing per run on the major heap.

    Protocol, once per run, on the domain that executes the run:
    {[
      let arena = Arena.current () in
      let engine = Arena.begin_run arena in
      let qps = Arena.resource arena ~name:"query-processors" ~servers () in
      ...
    ]}

    Determinism: {!begin_run} / {!resource} restore exactly the
    just-created observable state ({!Engine.reset}, {!Resource.reset}),
    and every run reinitialises everything else from its own PRNG seed,
    so a recycled run is byte-identical to a fresh-state run. *)

type t

val current : unit -> t
(** The calling domain's arena.  A newly spawned domain starts with a
    fresh one. *)

val begin_run : t -> Engine.t
(** Start a run: resets the recycled engine (clock 0, empty agenda, all
    handles stale) and rewinds the resource cursor.  Must be called
    before {!resource}. *)

val resource : t -> name:string -> servers:int -> Resource.t
(** Hand out the next recycled resource pool (in first-request order),
    reset to [name]/[servers]; creates and caches one the first time a
    run asks for more pools than any previous run did. *)
