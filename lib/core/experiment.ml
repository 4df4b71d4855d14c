(* The memo cache is shared by every domain running experiments.  A key
   is either [Done] or [Running] (some domain is computing it); a second
   requester of a [Running] key blocks on [changed] instead of
   recomputing, so the pool never duplicates the runs shared across
   tables (the bare baselines, the common logging/shadow configurations)
   that memoization deduplicates in the serial path.  All runs are
   deterministic, so which domain computes a key never affects the
   result.

   The memo key is a content digest of the run's full input
   (architecture descriptor + machine config + workload config) rather
   than a caller-chosen label, so content-identical runs requested from
   different tables collapse to one simulation.  Results live only in
   this process: the digest covers a run's inputs, not the simulator's
   code. *)

module Digest = Dbm_util.Digest
module Results = Dbm_machine.Results

type slot = Done of Results.t | Running

let cache : (string, slot) Hashtbl.t = Hashtbl.create 64

let lock = Mutex.create ()

let changed = Condition.create ()

let clear_cache () =
  Mutex.lock lock;
  (* Never discard Running markers: the computing domain would leave a
     stale entry behind.  Dropping only Done entries keeps waiters sound. *)
  Hashtbl.filter_map_inplace
    (fun _ s -> match s with Done _ -> None | Running -> Some s)
    cache;
  Mutex.unlock lock

let cached ~key compute =
  Mutex.lock lock;
  let rec claim () =
    match Hashtbl.find_opt cache key with
    | Some (Done r) ->
      Mutex.unlock lock;
      `Ready r
    | Some Running ->
      Condition.wait changed lock;
      claim ()
    | None ->
      Hashtbl.replace cache key Running;
      Mutex.unlock lock;
      `Compute
  in
  match claim () with
  | `Ready r -> r
  | `Compute ->
    let finish slot =
      Mutex.lock lock;
      (match slot with
      | Some r -> Hashtbl.replace cache key (Done r)
      | None -> Hashtbl.remove cache key);
      Condition.broadcast changed;
      Mutex.unlock lock
    in
    (match compute () with
    | r ->
      finish (Some r);
      r
    | exception e ->
      finish None;
      raise e)

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type request = {
  digest : string;
  label : string; (* human-readable attribution for --profile *)
  compute : unit -> Results.t;
}

let digest r = r.digest

let label r = r.label

(* ------------------------------------------------------------------ *)
(* Profile log                                                         *)
(* ------------------------------------------------------------------ *)

type observation = { obs_digest : string; obs_label : string; wall_ms : float }

let profile_mutex = Mutex.create ()

let profile_log : observation list ref = ref []

let record_observation ~digest ~label ~wall_ms =
  Mutex.lock profile_mutex;
  profile_log := { obs_digest = digest; obs_label = label; wall_ms } :: !profile_log;
  Mutex.unlock profile_mutex

let profile () =
  Mutex.lock profile_mutex;
  let l = List.rev !profile_log in
  Mutex.unlock profile_mutex;
  l

let reset_profile () =
  Mutex.lock profile_mutex;
  profile_log := [];
  Mutex.unlock profile_mutex

let computed_c = Atomic.make 0

let computed () = Atomic.get computed_c

let reset_computed () = Atomic.set computed_c 0

(* Generated workloads are deterministic in their config and immutable
   once built (the machine only ever reads the page/write arrays), so
   runs sharing a workload config — every architecture evaluated on one
   scenario — can share one transaction array.  Workload generation
   accounts for roughly half the major-heap words a run promotes, so
   each domain keeps the arrays it built, as it keeps its simulation
   arena. *)
let workload_cache_key :
    (string, Dbm_workload.Workload.txn array) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let generate_workload workload =
  let tbl = Domain.DLS.get workload_cache_key in
  let d = Digest.create () in
  Dbm_workload.Workload.feed_config d workload;
  let key = Digest.hex d in
  match Hashtbl.find_opt tbl key with
  | Some txns -> txns
  | None ->
    let txns = Dbm_workload.Workload.generate workload in
    Hashtbl.add tbl key txns;
    txns

let request ~arch ~machine ~workload ~make_arch =
  let d = Digest.create () in
  Digest.string d "run-request";
  Digest.string d arch;
  Dbm_machine.Config.feed_digest d machine;
  Dbm_workload.Workload.feed_config d workload;
  {
    digest = Digest.hex d;
    label = arch;
    compute =
      (fun () ->
        let txns = generate_workload workload in
        Dbm_machine.Machine.run ~config:machine ~make_arch ~workload:txns);
  }

let scenario_request ~arch ?scramble scenario make_arch =
  {
    (request ~arch
       ~machine:(Scenario.machine_config ?scramble scenario)
       ~workload:(Scenario.workload_config scenario)
       ~make_arch)
    with
    label = Printf.sprintf "%s @ %s" arch (Scenario.name scenario);
  }

let bare_request scenario = scenario_request ~arch:"bare" scenario (fun _ -> Dbm_machine.Arch.bare)

let custom_request ~tag ~machine compute =
  let d = Digest.create () in
  Digest.string d "custom-request";
  Digest.string d tag;
  Dbm_machine.Config.feed_digest d machine;
  { digest = Digest.hex d; label = tag; compute }

(* Only a computation is observed: a memo hit runs no simulation. *)
let force req =
  cached ~key:req.digest (fun () ->
      Atomic.incr computed_c;
      let t0 = Unix.gettimeofday () in
      let r = req.compute () in
      let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
      record_observation ~digest:req.digest ~label:req.label ~wall_ms;
      r)

let dedup reqs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun r ->
      if Hashtbl.mem seen r.digest then false
      else begin
        Hashtbl.add seen r.digest ();
        true
      end)
    reqs

(* ------------------------------------------------------------------ *)
(* Declared tables                                                     *)
(* ------------------------------------------------------------------ *)

type cell = { run : request; measure : Results.t -> float; paper : float option }

let cell ?paper measure run = { run; measure; paper }

type table = cell Report.table

let runs (t : table) =
  dedup (List.concat_map (fun r -> List.map (fun c -> c.run) r.Report.cells) t.rows)

let render (t : table) =
  let cell c = Report.cell ?paper:c.paper (c.measure (force c.run)) in
  let row r = { r with Report.cells = List.map cell r.Report.cells } in
  { t with rows = List.map row t.rows }

(* The unit of parallelism is the individual run: the suite's work list
   is every table's runs, deduplicated by digest and fanned out across
   the pool to fill the (mutex-protected, in-flight latched) memo cache,
   and the tables are then rendered serially from cache hits — so the
   rendered output cannot depend on the pool size or the dedup, and no
   single slow table gates the schedule.  The list is read off the tables' cells, so it covers
   exactly the runs rendering forces. *)
let build_suite ?pool tables =
  (match pool with
  | Some p when Dbm_util.Pool.jobs p > 1 ->
    let work = dedup (List.concat_map runs tables) in
    ignore (Dbm_util.Pool.map_ordered p work ~f:(fun r -> ignore (force r)))
  | _ -> ());
  List.map render tables
