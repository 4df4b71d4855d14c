module Engine = Dbm_sim.Engine
module Resource = Dbm_sim.Resource
module Drive = Dbm_disk.Drive
module Params = Dbm_disk.Params
module Workload = Dbm_workload.Workload
module Stats = Dbm_util.Stats

type txn_state = {
  txn : Workload.txn;
  mutable next_read : int;  (* next reference-string index to fetch *)
  mutable reads_in_flight : int;
  mutable processed : int;
  mutable dirty_pending : int;  (* updated frames not yet released *)
  mutable start_time : float;
  mutable commit_started : bool;
  mutable commit_done : bool;
  mutable finished : bool;
}

let ceil_div a b = (a + b - 1) / b

(* Machine-level scratch recycled alongside the simulator arena: the
   lock table and arrival-time map are probed per key only (never
   iterated during a run), so handing the next run a cleared-but-grown
   table cannot change its behaviour — it only skips re-growing the
   buckets on the major heap.  [Dbm_sim.Arena] cannot own these (the
   dependency points the other way), so the machine keeps its own
   domain-local slot. *)
type scratch = { locks : Lock_table.t; arrival_times : (int, float) Hashtbl.t }

let fresh_scratch () = { locks = Lock_table.create (); arrival_times = Hashtbl.create 16 }

let scratch_key = Domain.DLS.new_key fresh_scratch

let current_scratch () =
  let s = Domain.DLS.get scratch_key in
  Lock_table.clear s.locks;
  Hashtbl.clear s.arrival_times;
  s

let run_gen ~trace ~config ~make_arch ~workload =
  Config.validate config;
  let arena = Dbm_sim.Arena.current () in
  let engine = Dbm_sim.Arena.begin_run arena in
  (* [emit] callers build their source/detail strings with sprintf; guard
     every call site on [tracing] so the untraced (common) path never
     pays for the formatting. *)
  let tracing = trace <> None in
  let emit ~source ~tag detail =
    match trace with
    | None -> ()
    | Some t -> Dbm_sim.Trace.emit t ~time:(Engine.now engine) ~source ~tag ~detail
  in
  let rng = Dbm_util.Prng.create config.Config.seed in
  let disk = config.Config.disk in
  let drives =
    Array.init config.Config.n_data_disks (fun i ->
        Drive.create engine ~params:disk ~layout:config.Config.layout
          ~name:(Printf.sprintf "data-%d" i)
          ~coalesce:config.Config.drive_coalesce ())
  in

  (* Disk zones: the database occupies the low cylinders of every drive;
     a scratch ring (overwriting architectures) sits just above it, and
     the differential zone (A and D files) above that.  Keeping the
     zones adjacent to the data keeps data<->scratch arm travel
     comparable to ordinary random seeks, as in the paper's setup. *)
  let per_cyl = Params.pages_per_cylinder disk in
  let data_cylinders = ceil_div (Config.data_zone_pages config) per_cyl in
  let zone_cylinders = (disk.Params.cylinders - data_cylinders - 2) / 2 in
  if zone_cylinders < 1 then invalid_arg "Machine.run: no room for scratch/diff zones";
  (* The differential zone sits right above the data (A/D pages are
     read together with base pages).  The scratch ring's position is a
     design choice: at the far end of the disk, overwriting pays the
     data<->scratch arm travel the paper describes (Section 4.2.4);
     adjacent placement is the ablation that removes it. *)
  let diff_len = zone_cylinders * per_cyl in
  let scratch_len = zone_cylinders * per_cyl in
  let diff_base, scratch_base =
    match config.Config.scratch_placement with
    | Config.Far_end ->
      (* A/D pages next to the data they are read with; scratch at the
         far end of the disk. *)
      ((data_cylinders + 1) * per_cyl, (disk.Params.cylinders - zone_cylinders) * per_cyl)
    | Config.Adjacent ->
      (* Ablation: scratch ring immediately above the data zone. *)
      ( (disk.Params.cylinders - zone_cylinders) * per_cyl,
        (data_cylinders + 1) * per_cyl )
  in
  let n_disks = config.Config.n_data_disks in
  let scratch_next = Array.make n_disks 0 in
  let diff_append_next = Array.make n_disks 0 in
  let scratch_page ~disk:d =
    let p = scratch_base + scratch_next.(d) in
    scratch_next.(d) <- (scratch_next.(d) + 1) mod scratch_len;
    p
  in
  let diff_read_pages ~disk:_ ~n =
    (* The A/D pages a transaction references are scattered over the
       differential zone (they were appended in commit order, not key
       order), so they read like random pages within the zone. *)
    List.init n (fun _ -> diff_base + Dbm_util.Prng.int rng diff_len)
  in
  let diff_append_page ~disk:d =
    let p = diff_base + diff_append_next.(d) in
    diff_append_next.(d) <- (diff_append_next.(d) + 1) mod diff_len;
    p
  in

  (* Cache frames. *)
  let free_frames = ref config.Config.n_cache_frames in
  let free_tw = Stats.Timeweighted.create () in
  let blocked_tw = Stats.Timeweighted.create () in
  let active_tw = Stats.Timeweighted.create () in
  let blocked_on_log = ref 0 in
  Stats.Timeweighted.update free_tw ~now:0.0 ~level:(float_of_int !free_frames);
  let note_free () =
    Stats.Timeweighted.update free_tw ~now:(Engine.now engine)
      ~level:(float_of_int !free_frames)
  in
  let note_blocked () =
    Stats.Timeweighted.update blocked_tw ~now:(Engine.now engine)
      ~level:(float_of_int !blocked_on_log)
  in

  (* [pump] is defined later; frame releases must re-trigger paging. *)
  let pump_ref = ref (fun () -> ()) in
  let take_frames n =
    if !free_frames >= n then begin
      free_frames := !free_frames - n;
      note_free ();
      true
    end
    else false
  in
  let release_frames n =
    free_frames := !free_frames + n;
    note_free ();
    !pump_ref ()
  in

  let disk_index_of_page, local_of_page = Config.locate_fns config in
  let drive_of_page page = (drives.(disk_index_of_page page), local_of_page page) in

  let ctx =
    {
      Arch.engine;
      rng;
      config;
      data_drives = drives;
      drive_of_page;
      scratch_page;
      diff_read_pages;
      diff_append_page;
      take_frames;
      release_frames;
    }
  in
  let arch = make_arch ctx in

  let qps =
    Dbm_sim.Arena.resource arena ~name:"query-processors"
      ~servers:config.Config.n_query_processors
  in

  let scratch = current_scratch () in
  let locks = scratch.locks in
  (* Closed model: the whole batch is waiting at t=0.  Open model: the
     waiting list fills as arrival events fire, and completion times
     run from each transaction's arrival. *)
  let waiting = ref (match config.Config.arrivals with
    | Config.Batch -> Array.to_list workload
    | Config.Poisson _ -> [])
  in
  let arrival_times = scratch.arrival_times in
  let active = ref [] in
  let completions = Stats.Acc.create () in
  let completion_list = ref [] in
  let pages_processed = ref 0 in
  let last_done = ref 0.0 in
  let done_count = ref 0 in

  let note_active active =
    Stats.Timeweighted.update active_tw ~now:(Engine.now engine)
      ~level:(float_of_int (List.length active))
  in

  let lock_set (txn : Workload.txn) =
    Array.to_list
      (Array.mapi
         (fun i page ->
           (page, if txn.Workload.writes.(i) then Lock_table.Exclusive else Lock_table.Shared))
         txn.Workload.pages)
  in

  let rec admit () =
    if List.length !active < config.Config.mpl then begin
      (* Admit the first waiting transaction whose whole lock set is
         grantable (static locking: all-or-nothing at admission). *)
      let rec scan acc = function
        | [] -> None
        | txn :: rest ->
          if Lock_table.acquire_all locks ~owner:txn.Workload.id ~locks:(lock_set txn) then
            Some (txn, List.rev_append acc rest)
          else scan (txn :: acc) rest
      in
      match scan [] !waiting with
      | None -> ()
      | Some (txn, rest) ->
        waiting := rest;
        let start_time =
          match Hashtbl.find_opt arrival_times txn.Workload.id with
          | Some t -> t
          | None -> Engine.now engine
        in
        let ts =
          {
            txn;
            next_read = 0;
            reads_in_flight = 0;
            processed = 0;
            dirty_pending = 0;
            start_time;
            commit_started = false;
            commit_done = false;
            finished = false;
          }
        in
        active := !active @ [ ts ];
        note_active !active;
        if tracing then
          emit ~source:(Printf.sprintf "txn %d" txn.Workload.id) ~tag:"admit"
            (Printf.sprintf "%d pages, %d writes" (Array.length txn.Workload.pages)
               (Workload.write_set_size txn));
        admit ()
    end
  in

  let finish_txn ts =
    let now = Engine.now engine in
    Stats.Acc.add completions (now -. ts.start_time);
    completion_list := (ts.txn.Workload.id, now -. ts.start_time) :: !completion_list;
    if tracing then
      emit ~source:(Printf.sprintf "txn %d" ts.txn.Workload.id) ~tag:"finish"
        (Printf.sprintf "completion %.1f ms" (now -. ts.start_time));
    last_done := Float.max !last_done now;
    incr done_count;
    active := List.filter (fun t -> t != ts) !active;
    note_active !active;
    Lock_table.release_all locks ~owner:ts.txn.Workload.id;
    admit ();
    !pump_ref ()
  in

  (* The commit protocol (log force, page-table writes, shadow
     installation, ...) starts as soon as every page is processed; the
     transaction finishes once the protocol is done AND its last dirty
     frame has reached disk — the paper's completion-time endpoint.
     Starting the protocol before the dirty writes drain matters: with
     write-ahead logging the commit force is what releases the last
     fragments' data pages. *)
  let check_commit ts =
    let n = Array.length ts.txn.Workload.pages in
    let maybe_finish () =
      if ts.commit_done && ts.dirty_pending = 0 && not ts.finished then begin
        ts.finished <- true;
        finish_txn ts
      end
    in
    if
      (not ts.commit_started)
      && ts.next_read >= n
      && ts.reads_in_flight = 0
      && ts.processed = n
    then begin
      ts.commit_started <- true;
      if tracing then
        emit ~source:(Printf.sprintf "txn %d" ts.txn.Workload.id) ~tag:"commit"
          (Printf.sprintf "%d dirty pending" ts.dirty_pending);
      arch.Arch.on_commit ~txn:ts.txn ~k:(fun () ->
          ts.commit_done <- true;
          maybe_finish ())
    end
    else maybe_finish ()
  in

  let default_write_back ~txn:_ ~page ~written =
    let drive, local = drive_of_page page in
    Drive.submit drive Drive.Write ~pages:[ local ] written
  in
  let write_back =
    match arch.Arch.write_back with Some f -> f | None -> default_write_back
  in

  (* Pseudo query-processor identity: FCFS dispatch over identical
     servers behaves round-robin under load, so number the dispatches
     mod the pool size.  Gives Qp_mod log-processor selection a real
     QP number to hash. *)
  let next_qp = ref 0 in
  let qp_done ts idx page =
    let qp = !next_qp in
    next_qp := (!next_qp + 1) mod config.Config.n_query_processors;
    ts.processed <- ts.processed + 1;
    incr pages_processed;
    if ts.txn.Workload.writes.(idx) then begin
      ts.dirty_pending <- ts.dirty_pending + 1;
      incr blocked_on_log;
      note_blocked ();
      arch.Arch.on_update ~txn:ts.txn ~page ~qp ~release:(fun () ->
          decr blocked_on_log;
          note_blocked ();
          write_back ~txn:ts.txn ~page ~written:(fun () ->
              ts.dirty_pending <- ts.dirty_pending - 1;
              release_frames 1;
              check_commit ts))
    end
    else release_frames 1;
    (* Always re-check: when the LAST processed page is an update, the
       commit protocol must start now — under write-ahead logging it is
       the commit force that unblocks that very page's write-back. *)
    check_commit ts
  in

  let process_page ts idx page =
    let write = ts.txn.Workload.writes.(idx) in
    let service =
      config.Config.cpu_ms_per_page
      +. arch.Arch.cpu_extra_ms ~txn:ts.txn ~page ~write
    in
    Resource.submit qps ~service (fun () -> qp_done ts idx page)
  in

  let on_batch_arrival ts group () =
    ts.reads_in_flight <- ts.reads_in_flight - List.length group;
    List.iter (fun (idx, page) -> process_page ts idx page) group;
    check_commit ts
  in

  (* Issue one anticipatory read batch for [ts]; true if progress.
     When frames trickle back one at a time, wait until a full batch's
     worth is free rather than issuing degenerate one-page reads — but
     never hold back a transaction with nothing in flight. *)
  let issue_batch ts =
    let n = Array.length ts.txn.Workload.pages in
    let remaining = n - ts.next_read in
    if remaining <= 0 || !free_frames <= 0 then false
    else begin
      let want = min remaining config.Config.read_batch in
      (* half a batch is worth waiting for; less is not *)
      if 2 * !free_frames < want && ts.reads_in_flight > 0 then false
      else begin
      let take = min want !free_frames in
      let first = ts.next_read in
      ts.next_read <- ts.next_read + take;
      ts.reads_in_flight <- ts.reads_in_flight + take;
      free_frames := !free_frames - take;
      note_free ();
      (* Group the batch per drive, preserving reference order. *)
      let groups = Hashtbl.create 4 in
      for i = first to first + take - 1 do
        let page = ts.txn.Workload.pages.(i) in
        let d = disk_index_of_page page in
        let prev = Option.value (Hashtbl.find_opt groups d) ~default:[] in
        Hashtbl.replace groups d ((i, page) :: prev)
      done;
      if tracing then
        emit ~source:(Printf.sprintf "txn %d" ts.txn.Workload.id) ~tag:"read"
          (Printf.sprintf "batch of %d pages from index %d" take first);
      Hashtbl.iter
        (fun d rev_group ->
          let group = List.rev rev_group in
          (* Gate every page of the group through [before_read]; the
             disk request is issued once all gates open (e.g. all the
             page-table entries have been fetched). *)
          let gates = ref (List.length group) in
          let proceed () =
            decr gates;
            if !gates = 0 then begin
              let locals = List.map (fun (_, page) -> local_of_page page) group in
              let extra =
                arch.Arch.extra_read_pages ~n_base:(List.length group)
              in
              let extra_pages = if extra > 0 then diff_read_pages ~disk:d ~n:extra else [] in
              Drive.submit drives.(d) ~extra_transfers:arch.Arch.read_extra_transfers
                Drive.Read ~pages:(locals @ extra_pages) (on_batch_arrival ts group)
            end
          in
          List.iter
            (fun (_, page) -> arch.Arch.before_read ~txn:ts.txn ~page ~k:proceed)
            group)
        groups;
      true
      end
    end
  in

  let pump () =
    let progress = ref true in
    while !progress do
      progress := false;
      List.iter (fun ts -> if issue_batch ts then progress := true) !active
    done
  in
  pump_ref := pump;

  (match config.Config.arrivals with
  | Config.Batch -> admit ()
  | Config.Poisson mean ->
    let arrival_rng = Dbm_util.Prng.split rng in
    let clock = ref 0.0 in
    Array.iter
      (fun (txn : Workload.txn) ->
        clock := !clock +. Dbm_util.Prng.exponential arrival_rng ~mean;
        let at = !clock in
        ignore
          (Engine.schedule_at engine ~time:at (fun () ->
               Hashtbl.replace arrival_times txn.Workload.id (Engine.now engine);
               waiting := !waiting @ [ txn ];
               admit ();
               !pump_ref ())))
      workload);
  pump ();
  Engine.run engine;

  let n_txns = Array.length workload in
  if !done_count <> n_txns then begin
    let describe ts =
      Printf.sprintf
        "txn %d: n=%d next_read=%d in_flight=%d processed=%d dirty=%d commit_started=%b          commit_done=%b"
        ts.txn.Workload.id
        (Array.length ts.txn.Workload.pages)
        ts.next_read ts.reads_in_flight ts.processed ts.dirty_pending ts.commit_started
        ts.commit_done
    in
    failwith
      (Printf.sprintf
         "Machine.run: simulation stalled under %s: %d of %d transactions completed;           free_frames=%d waiting=%d active=[%s]"
         arch.Arch.arch_name !done_count n_txns !free_frames
         (List.length !waiting)
         (String.concat "; " (List.map describe !active)))
  end;

  let makespan = !last_done in
  let now = Engine.now engine in
  let disk_reports =
    Array.to_list
      (Array.map
         (fun d ->
           {
             Results.disk_name = Drive.name d;
             utilization = Drive.utilization d;
             accesses = Drive.access_count d;
             pages = Drive.pages_transferred d;
           })
         drives)
  in
  {
    Results.makespan_ms = makespan;
    pages_processed = !pages_processed;
    exec_ms_per_page =
      (if !pages_processed = 0 then 0.0 else makespan /. float_of_int !pages_processed);
    mean_completion_ms = Stats.Acc.mean completions;
    max_completion_ms = (if n_txns = 0 then 0.0 else Stats.Acc.max completions);
    n_transactions = n_txns;
    data_disks = disk_reports;
    qp_utilization = Resource.utilization qps;
    mean_frames_blocked_on_log = Stats.Timeweighted.mean blocked_tw ~now;
    mean_free_frames = Stats.Timeweighted.mean free_tw ~now;
    mean_active_txns = Stats.Timeweighted.mean active_tw ~now;
    data_disk_accesses =
      List.fold_left (fun acc (r : Results.disk_report) -> acc + r.accesses) 0 disk_reports;
    completions = List.rev !completion_list;
    extra = arch.Arch.extra_stats ();
  }

let run ~config ~make_arch ~workload = run_gen ~trace:None ~config ~make_arch ~workload

let run_traced ~trace ~config ~make_arch ~workload =
  run_gen ~trace:(Some trace) ~config ~make_arch ~workload
