(* The memo cache is shared by every domain running experiments.  A key
   is either [Done] or [Running] (some domain is computing it); a second
   requester of a [Running] key blocks on [changed] instead of
   recomputing, so the pool never duplicates the runs shared across
   tables (the bare baselines, the common logging/shadow configurations)
   that memoization deduplicates in the serial path.  All runs are
   deterministic, so which domain computes a key never affects the
   result.

   Since PR 3 the memo key is a content digest of the run's full input
   (architecture descriptor + machine config + workload config) rather
   than a caller-chosen label, so content-identical runs requested from
   different tables collapse to one simulation; a second, persistent
   level (Run_cache) survives process restarts. *)

module Digest = Dbm_util.Digest
module Run_cache = Dbm_util.Run_cache
module Cost_model = Dbm_util.Cost_model
module Results = Dbm_machine.Results

(* Bump whenever the marshalled shape of [Results.t] (or anything the
   payload transitively contains) changes: the version string salts
   every persistent entry, so stale formats read as misses. *)
let schema_version = 1

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
(* Persistent store                                                    *)
(* ------------------------------------------------------------------ *)

let disk : Run_cache.t option ref = ref None

let enable_disk_cache ~dir =
  disk :=
    Some (Run_cache.create ~dir ~version:(Printf.sprintf "results-schema-%d" schema_version))

let disable_disk_cache () = disk := None

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type request = {
  digest : string;
  label : string; (* human-readable attribution for --profile *)
  prior_ms : float; (* cost estimate when the model has no history *)
  compute : unit -> Results.t;
}

let digest r = r.digest

let label r = r.label

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

let cost_model_ref : Cost_model.t option ref = ref None

let set_cost_model m = cost_model_ref := m

let cost_model () = !cost_model_ref

(* A rank prior, not a clock estimate: simulated work scales with how
   many page references the run must push through the machine, so
   transactions x mean pages orders cold runs usefully even though the
   absolute milliseconds are fiction.  Open-arrival runs simulate the
   arrival tail on top; the factor keeps them sorted above an otherwise
   equal closed run.

   Cold runs of DIFFERENT architectures on one scenario must not
   collapse to one flat estimate (a batch of equal priors degrades LPT
   scheduling to arbitrary order), so the estimate also weighs the
   architecture family — recovery machinery that simulates extra
   per-write work ranks above the bare machine — the write fraction
   each family is sensitive to, the access pattern, and finally a tiny
   descriptor-hash tiebreak so two variant configs of one family stay
   distinguishable. *)
let arch_family arch =
  match String.index_opt arch ':' with Some i -> String.sub arch 0 i | None -> arch

let default_prior_ms ~arch ~machine ~workload =
  let mean_pages =
    float_of_int (workload.Dbm_workload.Workload.min_pages + workload.Dbm_workload.Workload.max_pages)
    /. 2.0
  in
  let refs = float_of_int workload.Dbm_workload.Workload.n_transactions *. mean_pages in
  let arrival_factor =
    match machine.Dbm_machine.Config.arrivals with
    | Dbm_machine.Config.Batch -> 1.0
    | Dbm_machine.Config.Poisson _ -> 1.25
  in
  (* [base] orders the families by how much simulated machinery each
     reference drags along; [write_weight] scales with how much of that
     machinery only fires on writes. *)
  let base, write_weight =
    match arch_family arch with
    | "bare" -> (0.45, 0.0)
    | "version-select" -> (0.7, 0.3)
    | "logging" -> (1.0, 0.8)
    | "shadow" -> (1.1, 1.0)
    | "diff-file" -> (1.35, 1.2)
    | _ -> (1.0, 0.5)
  in
  let write_factor = 1.0 +. (write_weight *. workload.Dbm_workload.Workload.write_fraction) in
  let pattern_factor =
    match workload.Dbm_workload.Workload.pattern with
    | Dbm_workload.Workload.Sequential -> 0.9
    | Dbm_workload.Workload.Random_access -> 1.0
    | Dbm_workload.Workload.Hotspot _ -> 1.15
    (* Skewed like a hotspot, and the rejection sampling on hot pages
       costs a little more generator time. *)
    | Dbm_workload.Workload.Zipfian _ -> 1.15
  in
  (* Deterministic in [0, 1/16): breaks ties between variant configs of
     one family without reordering anything a real factor separates. *)
  let tiebreak =
    1.0 +. (float_of_int (Int64.to_int (Digest.fnv64 arch) land 0xff) /. 4096.0)
  in
  refs *. arrival_factor *. base *. write_factor *. pattern_factor *. tiebreak /. 20.0

let estimated_cost req =
  match !cost_model_ref with
  | None -> req.prior_ms
  | Some m -> (
    match Cost_model.estimate m ~digest:req.digest with Some e -> e | None -> req.prior_ms)

(* ------------------------------------------------------------------ *)
(* Profile log                                                         *)
(* ------------------------------------------------------------------ *)

type observation = { obs_digest : string; obs_label : string; wall_ms : float; estimate_ms : float }

let profile_mutex = Mutex.create ()

let profile_log : observation list ref = ref []

let record_observation ~digest ~label ~wall_ms ~estimate_ms =
  (match !cost_model_ref with Some m -> Cost_model.observe m ~digest ~wall_ms | None -> ());
  Mutex.lock profile_mutex;
  profile_log := { obs_digest = digest; obs_label = label; wall_ms; estimate_ms } :: !profile_log;
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

let requested_c = Atomic.make 0

let computed_c = Atomic.make 0

let disk_hits_c = Atomic.make 0

type counters = { requested : int; computed : int; disk_hits : int }

let counters () =
  {
    requested = Atomic.get requested_c;
    computed = Atomic.get computed_c;
    disk_hits = Atomic.get disk_hits_c;
  }

let reset_counters () =
  Atomic.set requested_c 0;
  Atomic.set computed_c 0;
  Atomic.set disk_hits_c 0

(* Generated workloads are deterministic in their config and immutable
   once built (the machine only ever reads the page/write arrays), so
   runs sharing a workload config — every architecture evaluated on one
   scenario — can share one transaction array.  Workload generation
   accounts for roughly half the major-heap words a run promotes, so
   this domain-local cache rides the same switch as the simulation
   arenas: disabling recycling restores the build-everything-fresh
   behaviour the allocation benchmark compares against. *)
let workload_cache_key :
    (string, Dbm_workload.Workload.txn array) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let generate_workload workload =
  if Dbm_sim.Arena.recycling_enabled () then begin
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
  end
  else Dbm_workload.Workload.generate workload

let request ~arch ~machine ~workload ~make_arch =
  let d = Digest.create () in
  Digest.string d "run-request";
  Digest.string d arch;
  Dbm_machine.Config.feed_digest d machine;
  Dbm_workload.Workload.feed_config d workload;
  {
    digest = Digest.hex d;
    label = arch;
    prior_ms = default_prior_ms ~arch ~machine ~workload;
    compute =
      (fun () ->
        let txns = generate_workload workload in
        Dbm_machine.Machine.run ~config:machine ~make_arch ~workload:txns);
  }

let with_label label req = { req with label }

let scenario_request ?label ~arch ?scramble scenario make_arch =
  let label =
    match label with Some l -> l | None -> Printf.sprintf "%s @ %s" arch (Scenario.name scenario)
  in
  with_label label
    (request ~arch
       ~machine:(Scenario.machine_config ?scramble scenario)
       ~workload:(Scenario.workload_config scenario)
       ~make_arch)

let bare_request scenario = scenario_request ~arch:"bare" scenario (fun _ -> Dbm_machine.Arch.bare)

let custom_request ?label ?(prior_ms = 50.0) ~tag ~machine compute =
  let d = Digest.create () in
  Digest.string d "custom-request";
  Digest.string d tag;
  Dbm_machine.Config.feed_digest d machine;
  {
    digest = Digest.hex d;
    label = (match label with Some l -> l | None -> tag);
    prior_ms;
    compute;
  }

(* Disk lookups happen inside the memo's compute branch, so at most one
   domain per digest touches the store, and a hit still lands in the
   memo for later same-process requesters. *)
let force req =
  Atomic.incr requested_c;
  cached ~key:req.digest (fun () ->
      let from_disk =
        match !disk with
        | None -> None
        | Some store -> (
          match Run_cache.find store ~digest:req.digest with
          | None -> None
          | Some payload -> (
            (* The checksummed header makes a bad unmarshal unlikely,
               but the cache must never turn into an error source. *)
            match (Marshal.from_string payload 0 : Results.t) with
            | r ->
              Atomic.incr disk_hits_c;
              Some r
            | exception _ -> None))
      in
      match from_disk with
      (* A cache hit records NO cost observation: its near-zero wall is
         load time, not simulation cost, and folding it into the EWMA
         would poison the schedule of the next cold regeneration. *)
      | Some r -> r
      | None ->
        Atomic.incr computed_c;
        let estimate_ms = estimated_cost req in
        let t0 = Unix.gettimeofday () in
        let r = req.compute () in
        let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
        record_observation ~digest:req.digest ~label:req.label ~wall_ms ~estimate_ms;
        (match !disk with
        | None -> ()
        | Some store -> Run_cache.store store ~digest:req.digest (Marshal.to_string r []));
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
(* Forced convenience wrappers                                         *)
(* ------------------------------------------------------------------ *)

let run ~arch ~machine ~workload ~make_arch () = force (request ~arch ~machine ~workload ~make_arch)

let on_scenario ~arch ?scramble scenario make_arch =
  force (scenario_request ~arch ?scramble scenario make_arch)

let bare scenario = force (bare_request scenario)
