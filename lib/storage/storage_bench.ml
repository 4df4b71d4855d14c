(* Storage-half throughput measurements.  Pure library code: the caller
   supplies the clock (bench/main and dbmsim pass Unix.gettimeofday), so
   dbm_storage itself needs no unix dependency. *)

type engine_tps = {
  engine : string;
  low_tps : float;  (* committed txns/sec, disjoint key blocks *)
  low_restarts : int;
  high_tps : float;  (* committed txns/sec, hot key set *)
  high_restarts : int;
}

type recovery_jobs_point = {
  rj_jobs : int;
  rj_oversubscribed : bool;  (* pool larger than the host's cores *)
  rj_wall_ms : float;
  rj_equivalent : bool;  (* fingerprint equals the serial reference recovery *)
}

type recovery_ckpt_point = {
  ck_fraction : float;  (* commits preceding the checkpoint; 0 = none *)
  ck_records : int;
  ck_wall_ms : float;
  ck_equivalent : bool;
}

type log_format_point = {
  lf_format : string;  (* "physical" | "delta" | "oplog" *)
  lf_committed_txns : int;
  lf_records : int;
  lf_log_bytes : int;
  lf_bytes_per_txn : float;
  lf_append_ns_per_record : float;  (* full append path, load wall / records *)
  lf_replay_wall_ms : float;  (* best-of-five serial crash-and-recover *)
  lf_replay_parallel_ms : float;  (* best wall across the parallel job counts *)
  lf_equivalent : bool;  (* equals the physical serial reference, at every job count *)
}

type server_point = {
  sv_offered_tps : float;  (* open-loop Poisson arrival rate *)
  sv_sustained_tps : float;  (* completed / makespan, simulated time *)
  sv_completed : int;
  sv_p50_us : float;  (* arrival-to-durable-ack latency percentiles *)
  sv_p99_us : float;
  sv_p999_us : float;
  sv_mean_us : float;
  sv_max_us : float;
  sv_restarts : int;
  sv_forces : int;
  sv_max_queued : int;  (* peak admission-queue depth *)
}

type server_engine = {
  sv_engine : string;
  sv_sweep : server_point list;  (* group-commit pipeline, rising load *)
  sv_eager_tps : float;  (* per-txn-sync sustained tps at the top load *)
  sv_grouped_tps : float;  (* group-commit sustained tps at the top load *)
  sv_speedup : float;  (* grouped / eager *)
  sv_eager_p99_us : float;
  sv_grouped_p99_us : float;
  sv_equivalent : bool;
      (* recovered fingerprint of a grouped commit sequence (with a
         crash between append and force) equals the eager reference *)
}

type read_mode_point = {
  rm_mode : string;  (* "xlock" | "slock" | "snapshot" *)
  rm_sustained_tps : float;
  rm_restarts : int;
  rm_ro_restarts : int;
  rm_lock_acquires : int;
  rm_ro_p50_us : float;
  rm_ro_p99_us : float;
  rm_rw_p50_us : float;
  rm_rw_p99_us : float;
}

type read_frac_point = {
  rf_read_frac : float;
  rf_heavy_tail : bool;  (* Pareto transaction sizes at this point *)
  rf_modes : read_mode_point list;
  rf_snapshot_speedup : float;  (* snapshot tps / exclusive-lock tps *)
  rf_equivalent : bool;  (* post-crash scan digests equal across modes *)
}

type read_engine = { re_engine : string; re_points : read_frac_point list }

type shard_point = {
  sh_shards : int;
  sh_oversubscribed : bool;  (* more shard domains than host cores *)
  sh_sustained_tps : float;  (* simulated time; machine-independent *)
  sh_makespan_us : float;
  sh_p99_us : float;
  sh_restarts : int;
  sh_serial_identical : bool;
      (* shards = 1 only: every Shard.result field and the engine
         fingerprint equal the plain Server.run's (vacuously true
         elsewhere) *)
  sh_scan_equal : bool;  (* crash-recovered scan equals the serial reference *)
  sh_in_doubt : int;  (* prepared-but-unresolved txns after recovery: must be 0 *)
}

type cross_point = {
  cf_cross_frac : float;  (* requested cross-shard transaction fraction *)
  cf_cross_txns : int;  (* transactions actually spanning >= 2 shards *)
  cf_sustained_tps : float;
  cf_p99_cross_us : float;  (* cross-shard class latency tail (0 when none) *)
  cf_scan_equal : bool;
  cf_in_doubt : int;
}

type shard_bench = {
  sb_points : shard_point list;  (* zero-cross workload, rising shard count *)
  sb_scaling : float;  (* top-shard-count tps / 1-shard tps *)
  sb_cross : cross_point list;  (* top shard count, rising cross fraction *)
  sb_equivalent : bool;
      (* every scan matched the serial reference, shards = 1 was
         bit-identical, and no transaction stayed in doubt *)
}

type t = {
  scale : int;
  (* Contended-scheduler head-to-head: identical workload through the
     pre-overhaul polling scheduler (Naive) and the wakeup scheduler. *)
  sched_txns : int;
  sched_naive_ms : float;
  sched_opt_ms : float;
  sched_speedup : float;
  sched_equivalent : bool;  (* commit order, restarts and steps all equal *)
  engines : engine_tps list;
  (* Logging-engine restart recovery at L and 2L committed txns. *)
  recovery_txns_l : int;
  recovery_records_l : int;
  recovery_wall_l_ms : float;
  recovery_records_2l : int;
  recovery_wall_2l_ms : float;
  recovery_wall_ratio : float;  (* ~linear means <= ~2.5 *)
  (* Parallel restart recovery: wall vs worker-domain count on one
     fixed log, every point fingerprint-checked against the serial
     reference replay. *)
  recovery_jobs : recovery_jobs_point list;
  recovery_parallel_speedup : float;  (* serial wall / best parallel wall *)
  (* Fuzzy checkpoints: wall vs checkpoint age on same-length logs,
     replayed serially so the saving isolates the skipped prefix. *)
  recovery_ckpt : recovery_ckpt_point list;
  recovery_ckpt_speedup : float;  (* full-replay wall / newest-checkpoint wall *)
  recovery_equivalent : bool;  (* every point above matched the reference *)
  (* Log-format head-to-head: the same committed workload through
     physical full-image logging, delta logging and operation logging;
     all three must recover to the physical reference fingerprint. *)
  log_formats : log_format_point list;
  log_delta_reduction : float;  (* physical bytes/txn over delta's *)
  log_oplog_reduction : float;
  log_format_equivalent : bool;
  (* Open-loop transaction server: offered-load sweep through the
     group-commit pipeline plus an eager-vs-grouped head-to-head at the
     top load, per engine, all in simulated time. *)
  server : server_engine list;
  server_speedup : float;  (* worst grouped/eager ratio across engines *)
  server_equivalent : bool;  (* every engine's equivalence check passed *)
  (* MVCC snapshot reads: read-heavy open-loop sweep per
     snapshot-capable engine, exclusive-lock baseline vs S/X locked
     reads vs snapshot read-only class. *)
  read_heavy : read_engine list;
  read_speedup : float;  (* worst snapshot/xlock tps ratio at ~0.9 *)
  read_ro_restarts : int;  (* total snapshot-mode read-only restarts *)
  read_equivalent : bool;  (* every point's cross-mode scan check passed *)
  (* Sharded multicore execution: tps vs shard count on a fully
     partitionable workload, plus a cross-shard-fraction sweep at the
     top shard count through two-phase commit. *)
  shard : shard_bench;
  pool_hit_ns : float;
  pool_miss_ns : float;
  journal_append_per_sec : float;
  journal_append_sync_per_sec : float;  (* with a sync every 64 appends *)
}

let time now f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- contended scheduler: naive polling vs wakeup parking ----------- *)

(* Many scripts each pin down a block of private pages, then contend on
   one hot page.  The private locks make the lock table large, which is
   exactly what the naive scheduler's whole-table folds pay for on every
   poll of a blocked script; the wakeup scheduler parks the blocked
   scripts instead. *)
let sched_scripts ~scripts ~privates =
  let hot = scripts * privates in
  List.init scripts (fun i ->
      let base = i * privates in
      let ops =
        List.init privates (fun j -> Scheduler.Put (base + j, "p"))
        @ [ Scheduler.Put (hot, "h"); Scheduler.Get (hot) ]
      in
      (i + 1, ops))

let run_sched_comparison ~now ~scale =
  let scripts = 24 * scale and privates = 40 in
  let n_keys = (scripts * privates) + 1 in
  let specs = sched_scripts ~scripts ~privates in
  let max_steps = 100_000_000 in
  let module NSched = Naive.Sched (Kv.Model) in
  let module OSched = Scheduler.Make (Kv.Model) in
  let naive_engine = Kv.Model.create ~n_keys () in
  let r_naive, naive_s = time now (fun () -> NSched.run ~max_steps naive_engine ~scripts:specs) in
  let opt_engine = Kv.Model.create ~n_keys () in
  let r_opt, opt_s = time now (fun () -> OSched.run ~max_steps opt_engine ~scripts:specs) in
  let equivalent =
    r_naive.Scheduler.commit_order = r_opt.Scheduler.commit_order
    && r_naive.Scheduler.restarts = r_opt.Scheduler.restarts
    && r_naive.Scheduler.steps = r_opt.Scheduler.steps
  in
  (scripts, naive_s *. 1000., opt_s *. 1000., equivalent)

(* --- per-engine committed-txns/sec under the 2PL scheduler ---------- *)

let value = "value-0123456789abcdef"

(* 8 scripts on disjoint 16-key blocks: no blocking at any page granule. *)
let low_contention_scripts =
  List.init 8 (fun i ->
      let base = i * 16 in
      ( i + 1,
        List.init 4 (fun j -> Scheduler.Put (base + j, value))
        @ List.init 2 (fun j -> Scheduler.Get (base + j)) ))

(* 8 scripts over keys 0..7 in per-script orders: lots of blocking and
   some deadlock restarts at page or key granularity. *)
let high_contention_scripts =
  List.init 8 (fun i ->
      ( i + 1,
        [
          Scheduler.Put ((i * 3) mod 8, value);
          Scheduler.Get ((i * 5 + 1) mod 8);
          Scheduler.Put ((i * 7 + 2) mod 8, value);
          Scheduler.Get ((i + 3) mod 8);
          Scheduler.Put ((i * 5 + 4) mod 8, value);
        ] ))

let bench_engine (module E : Kv.S) ~now ~rounds =
  let module Sched = Scheduler.Make (E) in
  let measure scripts =
    let engine = E.create () in
    let committed = ref 0 and restarts = ref 0 in
    let _, wall_s =
      time now (fun () ->
          for _ = 1 to rounds do
            let r = Sched.run engine ~scripts in
            committed := !committed + List.length r.Scheduler.commit_order;
            restarts := !restarts + r.Scheduler.restarts
          done)
    in
    (float_of_int !committed /. wall_s, !restarts)
  in
  let low_tps, low_restarts = measure low_contention_scripts in
  let high_tps, high_restarts = measure high_contention_scripts in
  { engine = E.engine_name; low_tps; low_restarts; high_tps; high_restarts }

let all_engines : (module Kv.S) list =
  [
    (module Engine_log);
    (module Engine_shadow);
    (module Engine_versel);
    (module Engine_overwrite.No_undo);
    (module Engine_overwrite.No_redo);
    (module Engine_diff);
    (module Kv.Model);
  ]

(* --- recovery wall vs durable log length ---------------------------- *)

(* [checkpoint_after]: after that many committed transactions the engine
   flushes (the page cleaner catching up) and takes a fuzzy checkpoint;
   the remaining transactions dirty pages again on top of it, so the
   checkpoint ages as the log keeps growing. *)
let load_log_engine ?checkpoint_after ~txns () =
  let t = Engine_log.create_with ~n_keys:256 () in
  for i = 0 to txns - 1 do
    (match checkpoint_after with
    | Some c when i = c ->
      Engine_log.flush t;
      Engine_log.checkpoint_fuzzy t
    | _ -> ());
    let txn = Engine_log.begin_txn t in
    for j = 0 to 7 do
      Engine_log.put txn (((i * 8) + j) mod 256) value
    done;
    Engine_log.commit txn
  done;
  t

let durable_records t =
  List.fold_left
    (fun acc d -> acc + List.length (Engine_log.dump_log t ~disk:d))
    0
    (List.init (Engine_log.log_disks t) Fun.id)

(* The linearity ratio wall(2L)/wall(L) is a CI gate, so it must not
   wobble with whatever heap and machine state earlier bench sections
   left behind.  Both engines are built first, the heap is compacted
   once, and the two log lengths are then timed in alternation — any
   remaining distortion hits both measurements alike and cancels in the
   ratio.  Best of five: recovery leaves the journal intact, so repeated
   crash-and-recover runs measure the same work. *)
let recovery_walls ~now ~txns =
  let t_l = load_log_engine ~txns () in
  let t_2l = load_log_engine ~txns:(2 * txns) () in
  let records_l = durable_records t_l in
  let records_2l = durable_records t_2l in
  Gc.compact ();
  let best_l = ref infinity and best_2l = ref infinity in
  for _ = 1 to 5 do
    let (), wall_l = time now (fun () -> Engine_log.crash_and_recover t_l) in
    if wall_l < !best_l then best_l := wall_l;
    let (), wall_2l = time now (fun () -> Engine_log.crash_and_recover t_2l) in
    if wall_2l < !best_2l then best_2l := wall_2l
  done;
  (records_l, !best_l *. 1000., records_2l, !best_2l *. 1000.)

(* --- parallel recovery: wall vs worker domains ---------------------- *)

module Pool = Dbm_util.Pool

(* Best-of-five crash-and-recover wall; recovery leaves the durable
   journal intact, so repeated runs measure the same work.  Returns the
   wall and the post-recovery fingerprint for the equivalence check. *)
let timed_recovery ~now t =
  let best = ref infinity in
  for _ = 1 to 5 do
    let (), w = time now (fun () -> Engine_log.crash_and_recover t) in
    if w < !best then best := w
  done;
  (!best *. 1000., Engine_log.state_fingerprint t)

(* One fixed uncheckpointed log replayed at each domain count; every
   point's restart state must fingerprint-equal the serial reference
   replay (Naive.Log_replay), which is measured first on the same
   engine.  A 1-core host would leave no parallel point at all, so an
   oversubscribed 2-domain run stands in (and is flagged as such) —
   mirroring the table-regeneration fallback in bench/main. *)
(* The domain counts a recovery curve actually runs: the request list
   plus the jobs = 1 baseline, capped at the host's cores unless
   oversubscription is allowed, with a 2-domain stand-in when nothing
   parallel survives (1-core hosts). *)
let kept_jobs ~jobs ~allow_oversubscribe =
  let host = Pool.default_jobs () in
  let requested = List.sort_uniq Int.compare (1 :: jobs) in
  let kept =
    if allow_oversubscribe then requested
    else List.filter (fun j -> j <= host) requested
  in
  if List.exists (fun j -> j > 1) kept then kept else kept @ [ 2 ]

let recovery_vs_jobs ~now ~jobs ~allow_oversubscribe ~txns =
  let host = Pool.default_jobs () in
  let kept = kept_jobs ~jobs ~allow_oversubscribe in
  let t = load_log_engine ~txns () in
  Gc.compact ();
  Engine_log.crash_and_recover_reference t;
  let ref_fp = Engine_log.state_fingerprint t in
  let points =
    List.map
      (fun j ->
        let pool =
          if j = 1 then None else Some (Pool.create ~jobs:j ~allow_oversubscribe:true ())
        in
        Engine_log.set_recovery_pool t pool;
        let wall_ms, fp = timed_recovery ~now t in
        Engine_log.set_recovery_pool t None;
        Option.iter Pool.shutdown pool;
        {
          rj_jobs = j;
          rj_oversubscribed = j > host;
          rj_wall_ms = wall_ms;
          rj_equivalent = String.equal fp ref_fp;
        })
      kept
  in
  let serial = List.find (fun p -> p.rj_jobs = 1) points in
  let best_parallel =
    List.fold_left
      (fun acc p -> if p.rj_jobs > 1 then Float.min acc p.rj_wall_ms else acc)
      infinity points
  in
  (points, serial.rj_wall_ms /. best_parallel)

(* --- fuzzy checkpoints: wall vs checkpoint age ---------------------- *)

(* Same committed work at every point; only where (and whether) the
   fuzzy checkpoint record sits in the log varies.  Replay is serial
   (no pool), so any saving is the skipped prefix — the records before
   the checkpoint's start LSN that recovery never decodes — and not
   parallelism.  Each point's restart state is fingerprint-checked
   against the from-zero serial reference on the same engine. *)
let recovery_vs_checkpoint_age ~now ~txns =
  let fractions = [ 0.0; 0.5; 0.9 ] in
  let engines =
    List.map
      (fun frac ->
        let checkpoint_after =
          if frac <= 0.0 then None else Some (int_of_float (frac *. float_of_int txns))
        in
        (frac, load_log_engine ?checkpoint_after ~txns ()))
      fractions
  in
  Gc.compact ();
  let points =
    List.map
      (fun (frac, t) ->
        let wall_ms, fp = timed_recovery ~now t in
        Engine_log.crash_and_recover_reference t;
        let equivalent = String.equal fp (Engine_log.state_fingerprint t) in
        {
          ck_fraction = frac;
          ck_records = durable_records t;
          ck_wall_ms = wall_ms;
          ck_equivalent = equivalent;
        })
      engines
  in
  let wall_at f = (List.find (fun p -> p.ck_fraction = f) points).ck_wall_ms in
  (points, wall_at 0.0 /. wall_at 0.9)

(* --- log formats: physical vs delta vs operation logging ------------ *)

(* What the head-to-head needs from an engine; Engine_log (under either
   log format) and Engine_oplog both satisfy it. *)
module type FORMAT_ENGINE = sig
  type t

  type txn

  val begin_txn : t -> txn

  val put : txn -> int -> string -> unit

  val commit : txn -> unit

  val crash_and_recover : t -> unit

  val state_fingerprint : t -> string

  val set_recovery_pool : t -> Pool.t option -> unit

  val log_bytes : t -> int

  val records_logged : t -> int
end

(* Exactly [load_log_engine]'s committed workload, format-generic: the
   engines issue identical LSN streams on it, so their recovered states
   must fingerprint-match the physical reference byte for byte. *)
let load_format (type a) (module E : FORMAT_ENGINE with type t = a) (e : a) ~txns =
  for i = 0 to txns - 1 do
    let txn = E.begin_txn e in
    for j = 0 to 7 do
      E.put txn (((i * 8) + j) mod 256) value
    done;
    E.commit txn
  done

let format_point (type a) (module E : FORMAT_ENGINE with type t = a) ~now ~name ~txns
    ~par_jobs ~ref_fp (e : a) =
  Gc.compact ();
  let (), load_s = time now (fun () -> load_format (module E) e ~txns) in
  let records = E.records_logged e in
  let bytes = E.log_bytes e in
  let timed () =
    let best = ref infinity in
    for _ = 1 to 5 do
      let (), w = time now (fun () -> E.crash_and_recover e) in
      if w < !best then best := w
    done;
    (!best *. 1000., E.state_fingerprint e)
  in
  let serial_ms, serial_fp = timed () in
  let par =
    List.map
      (fun j ->
        let pool = Pool.create ~jobs:j ~allow_oversubscribe:true () in
        E.set_recovery_pool e (Some pool);
        let ms, fp = timed () in
        E.set_recovery_pool e None;
        Pool.shutdown pool;
        (ms, fp))
      par_jobs
  in
  {
    lf_format = name;
    lf_committed_txns = txns;
    lf_records = records;
    lf_log_bytes = bytes;
    lf_bytes_per_txn = float_of_int bytes /. float_of_int txns;
    lf_append_ns_per_record = load_s *. 1e9 /. float_of_int (max 1 records);
    lf_replay_wall_ms = serial_ms;
    lf_replay_parallel_ms =
      List.fold_left (fun acc (ms, _) -> Float.min acc ms) infinity par;
    lf_equivalent =
      String.equal serial_fp ref_fp
      && List.for_all (fun (_, fp) -> String.equal fp ref_fp) par;
  }

let known_formats = [ "physical"; "delta"; "oplog" ]

let log_format_bench ~now ~jobs ~allow_oversubscribe ~formats ~txns =
  List.iter
    (fun f ->
      if not (List.mem f known_formats) then
        invalid_arg (Printf.sprintf "Storage_bench.run: unknown log format %S" f))
    formats;
  let want f = List.mem f formats in
  let par_jobs = List.filter (fun j -> j > 1) (kept_jobs ~jobs ~allow_oversubscribe) in
  (* The cross-format reference: the physical engine's serial reference
     replay (Naive.Log_replay) on the same workload. *)
  let ref_fp =
    let t = load_log_engine ~txns () in
    Engine_log.crash_and_recover_reference t;
    Engine_log.state_fingerprint t
  in
  let physical =
    format_point
      (module Engine_log)
      ~now ~name:"physical" ~txns ~par_jobs ~ref_fp
      (Engine_log.create_with ~n_keys:256 ())
  in
  let delta =
    if not (want "delta") then None
    else
      Some
        (format_point
           (module Engine_log)
           ~now ~name:"delta" ~txns ~par_jobs ~ref_fp
           (Engine_log.create_with ~n_keys:256 ~log_format:Engine_log.Delta ()))
  in
  let oplog =
    if not (want "oplog") then None
    else
      Some
        (format_point
           (module Engine_oplog)
           ~now ~name:"oplog" ~txns ~par_jobs ~ref_fp
           (Engine_oplog.create_with ~n_keys:256 ()))
  in
  (* A format the caller excluded scores [infinity]: "no bytes spent". *)
  let reduction = function
    | Some pt when pt.lf_bytes_per_txn > 0. -> physical.lf_bytes_per_txn /. pt.lf_bytes_per_txn
    | Some _ | None -> infinity
  in
  let points = physical :: List.filter_map Fun.id [ delta; oplog ] in
  (points, reduction delta, reduction oplog, List.for_all (fun p -> p.lf_equivalent) points)

(* --- buffer pool and journal microbenchmarks ------------------------ *)

let pool_ns ~now ~iters =
  let disk = Vdisk.create ~pages:512 ~page_size:1024 () in
  let pool = Buffer_pool.create disk ~frames:128 () in
  for p = 0 to 127 do
    ignore (Buffer_pool.get pool p);
    Buffer_pool.unpin pool p
  done;
  let hit_iters = iters in
  let (), hit_s =
    time now (fun () ->
        for i = 0 to hit_iters - 1 do
          let p = i land 127 in
          ignore (Buffer_pool.get pool p);
          Buffer_pool.unpin pool p
        done)
  in
  (* 384 cold pages cycled through 128 frames: every get is a miss. *)
  let miss_iters = iters / 8 in
  let (), miss_s =
    time now (fun () ->
        for i = 0 to miss_iters - 1 do
          let p = 128 + (i mod 384) in
          ignore (Buffer_pool.get pool p);
          Buffer_pool.unpin pool p
        done)
  in
  ( hit_s *. 1e9 /. float_of_int hit_iters,
    miss_s *. 1e9 /. float_of_int miss_iters )

let journal_throughput ~now ~iters =
  let record = String.make 64 'r' in
  let j1 = Journal.create () in
  let (), append_s =
    time now (fun () ->
        for _ = 1 to iters do
          ignore (Journal.append j1 record)
        done;
        Journal.sync j1)
  in
  let j2 = Journal.create () in
  let (), append_sync_s =
    time now (fun () ->
        for i = 1 to iters do
          ignore (Journal.append j2 record);
          if i land 63 = 0 then Journal.sync j2
        done;
        Journal.sync j2)
  in
  ( float_of_int iters /. append_s,
    float_of_int iters /. append_sync_s )

(* --- open-loop server: group commit vs per-transaction sync --------- *)

module W = Dbm_workload.Workload
module Hist = Dbm_util.Stats.Histogram

module type SERVER_ENGINE = sig
  include Server.ENGINE

  val state_fingerprint : t -> string
end

(* Random-access transactions from the workload generator, one key per
   referenced page so lock conflicts stay at the paper's page granule. *)
let server_scripts ~n ~seed =
  let cfg =
    {
      W.n_transactions = n;
      min_pages = 2;
      max_pages = 8;
      write_fraction = 0.7;
      pattern = W.Random_access;
      db_pages = 1024;
      seed;
    }
  in
  Array.map
    (fun t ->
      List.init (Array.length t.W.pages) (fun i ->
          let k = t.W.pages.(i) * 4 in
          if t.W.writes.(i) then Scheduler.Put (k, value) else Scheduler.Get k))
    (W.generate cfg)

(* Deterministic serial equivalence check: a grouped commit sequence —
   forces between batches and a crash {e between append and force} on
   the middle batch — must recover to the same fingerprint as an eager
   run of exactly the surviving transactions. *)
let grouped_equivalent (type a) (module E : SERVER_ENGINE with type t = a) =
  let value_of i = Printf.sprintf "v%d" i in
  let run_grouped () =
    let e = E.create ~n_keys:64 () in
    let durable = ref [] and volatile = ref [] in
    let txn i =
      let t = E.begin_txn e in
      E.put t (i * 3 mod 64) (value_of i);
      E.commit_group t;
      volatile := (i * 3 mod 64, value_of i) :: !volatile
    in
    for i = 0 to 9 do
      txn i
    done;
    E.force_commits e;
    durable := !volatile @ !durable;
    volatile := [];
    (* commit records appended, never forced: the crash must lose
       exactly this batch *)
    for i = 10 to 14 do
      txn i
    done;
    E.crash_and_recover e;
    volatile := [];
    for i = 15 to 19 do
      txn i
    done;
    E.force_commits e;
    durable := !volatile @ !durable;
    E.crash_and_recover e;
    (E.state_fingerprint e, List.rev !durable)
  in
  let fp_grouped, survivors = run_grouped () in
  let r = E.create ~n_keys:64 () in
  List.iter
    (fun (k, v) ->
      let t = E.begin_txn r in
      E.put t k v;
      E.commit t)
    survivors;
  E.crash_and_recover r;
  String.equal fp_grouped (E.state_fingerprint r)

let server_bench_engine (type a) (module E : SERVER_ENGINE with type t = a) ~loads ~n ~seed =
  let module Srv = Server.Make (E) in
  let scripts = server_scripts ~n ~seed in
  let arrivals rate =
    let rng = Dbm_util.Prng.create (seed + int_of_float rate) in
    Array.map (fun s -> s *. 1e6) (W.gen_arrival_times rng (W.Poisson { rate }) ~n)
  in
  let grouped_mode = Commit_pipeline.Grouped { batch = 32; timeout_us = 1000.0 } in
  let point ?ro_hist ?rw_hist ~mode rate =
    let e = E.create ~n_keys:4096 () in
    Srv.run ?ro_hist ?rw_hist ~mpl:64 ~op_cost_us:1.0 ~sync_cost_us:100.0 ~mode
      ~arrivals_us:(arrivals rate) ~scripts e
  in
  (* One histogram pair for the whole sweep, cleared between points:
     every point's scalars are extracted before the next run, so the
     ~6k-bucket arrays need not be reallocated per load.  The
     eager-vs-grouped head-to-head below still takes fresh histograms —
     it reads both results after both runs. *)
  let ro_h = Hist.create () and rw_h = Hist.create () in
  let sweep =
    List.map
      (fun rate ->
        Hist.clear ro_h;
        Hist.clear rw_h;
        let r = point ~ro_hist:ro_h ~rw_hist:rw_h ~mode:grouped_mode rate in
        {
          sv_offered_tps = rate;
          sv_sustained_tps = r.Server.sustained_tps;
          sv_completed = r.Server.completed;
          sv_p50_us = Hist.p50 r.Server.latency_us;
          sv_p99_us = Hist.p99 r.Server.latency_us;
          sv_p999_us = Hist.p999 r.Server.latency_us;
          sv_mean_us = Hist.mean r.Server.latency_us;
          sv_max_us = Hist.max r.Server.latency_us;
          sv_restarts = r.Server.restarts;
          sv_forces = r.Server.forces;
          sv_max_queued = r.Server.max_queued;
        })
      loads
  in
  let top = List.fold_left Float.max 0.0 loads in
  let eager = point ~mode:Commit_pipeline.Eager top in
  let grouped = point ~mode:grouped_mode top in
  {
    sv_engine = E.engine_name;
    sv_sweep = sweep;
    sv_eager_tps = eager.Server.sustained_tps;
    sv_grouped_tps = grouped.Server.sustained_tps;
    sv_speedup =
      (if eager.Server.sustained_tps > 0. then
         grouped.Server.sustained_tps /. eager.Server.sustained_tps
       else infinity);
    sv_eager_p99_us = Hist.p99 eager.Server.latency_us;
    sv_grouped_p99_us = Hist.p99 grouped.Server.latency_us;
    sv_equivalent = grouped_equivalent (module E);
  }

(* Offered loads spanning both engines' saturation points: eager
   capacity is ~1/(sync + ops) ~ 9k tps, grouped ~1/(ops + sync/batch)
   — the top points drive both pipelines well past saturation. *)
let server_loads = [ 2_000.0; 10_000.0; 40_000.0; 160_000.0; 400_000.0 ]

(* The logging engine on the slimmed (delta) log: the BENCH_7 server
   sweep re-run over far fewer log bytes per commit. *)
module Engine_log_delta = struct
  include Engine_log

  let engine_name = "logging-delta"

  let create ?n_keys () = create_with ?n_keys ~log_format:Delta ()
end

let server_bench ~scale =
  let n = 800 * scale and seed = 20_250 in
  [
    server_bench_engine (module Engine_log) ~loads:server_loads ~n ~seed;
    server_bench_engine (module Engine_log_delta) ~loads:server_loads ~n ~seed;
    server_bench_engine (module Engine_diff) ~loads:server_loads ~n ~seed;
  ]

(* --- MVCC snapshot reads: read-heavy head-to-head ------------------- *)

(* What the read-heavy sweep needs: a {!Server.ENGINE} whose engine can
   also pin MVCC snapshots.  Engine_diff, Engine_versel and
   Engine_oplog all satisfy it. *)
module type SNAPSHOT_SERVER_ENGINE = sig
  include Server.ENGINE

  type snapshot

  val snapshot : t -> snapshot

  val snapshot_get : snapshot -> int -> string option

  val snapshot_release : snapshot -> unit

  val live_snapshots : t -> int
end

let snapshot_engines : (module SNAPSHOT_SERVER_ENGINE) list =
  [ (module Engine_diff); (module Engine_versel); (module Engine_oplog) ]

(* Zipfian-page transactions with a read-only class carved out: each
   transaction's whole write set is cleared with probability
   [read_frac].  One key per referenced page keeps conflicts at the
   page granule; the heavy-tail variant draws Pareto sizes (satellite:
   mostly-small, occasionally-huge transaction mixes). *)
let read_heavy_scripts ~n ~seed ~read_frac ~heavy =
  let cfg =
    {
      W.n_transactions = n;
      min_pages = 2;
      max_pages = (if heavy then 32 else 8);
      write_fraction = 0.6;
      pattern = W.Zipfian { theta = 0.99 };
      db_pages = 256;
      seed;
    }
  in
  let size_dist = if heavy then W.Pareto_size { alpha = 1.5 } else W.Uniform_size in
  let txns = W.generate_with ~size_dist cfg in
  let rng = Dbm_util.Prng.create (seed lxor 0x5eed) in
  let txns = W.apply_read_fraction rng ~read_frac txns in
  let read_only = Array.map (fun t -> W.write_set_size t = 0) txns in
  let scripts =
    Array.map
      (fun t ->
        List.init (Array.length t.W.pages) (fun i ->
            let k = t.W.pages.(i) * 4 in
            if t.W.writes.(i) then Scheduler.Put (k, value) else Scheduler.Get k))
      txns
  in
  (scripts, read_only)

(* The committed data, as data: crash-recover, then digest a full key
   scan through a fresh transaction.  Every put writes the one constant
   [value], so the recovered store is independent of commit order and
   the three lock modes must scan identically — unlike the engines'
   [state_fingerprint]s, whose counters legitimately differ across
   modes. *)
let read_scan_digest (type a) (module E : SNAPSHOT_SERVER_ENGINE with type t = a) (e : a) =
  E.crash_and_recover e;
  let d = Dbm_util.Digest.create () in
  let txn = E.begin_txn e in
  for k = 0 to E.max_keys e - 1 do
    Dbm_util.Digest.int d k;
    match E.get txn k with
    | Some v ->
      Dbm_util.Digest.int d 1;
      Dbm_util.Digest.string d v
    | None -> Dbm_util.Digest.int d 0
  done;
  E.abort txn;
  Dbm_util.Digest.hex d

let pctl h p = if Hist.count h = 0 then 0.0 else Hist.percentile h ~p

(* One server run of the workload under one read-lock regime, through
   the eager (per-commit-force) pipeline: in the locked modes {e every}
   transaction — read-only ones included — appends a commit record and
   pays the force; the snapshot read-only class has nothing to make
   durable and bypasses the pipeline, which together with the absent
   lock waits is where its throughput headroom comes from.  Returns
   the point and the post-crash scan digest (plus a snapshot-leak
   check: every view must be closed by the end). *)
let read_mode_run (type a) (module E : SNAPSHOT_SERVER_ENGINE with type t = a) ~mode_name
    ~arrivals_us ~scripts ~read_only =
  let module Srv = Server.Make (E) in
  let e = E.create ~n_keys:1024 () in
  let snapshot =
    if not (String.equal mode_name "snapshot") then None
    else
      Some
        (fun () ->
          let s = E.snapshot e in
          {
            Scheduler.view_get = (fun k -> E.snapshot_get s k);
            view_close = (fun () -> E.snapshot_release s);
          })
  in
  let read_mode = if String.equal mode_name "xlock" then Some Lock_mgr.X else None in
  let r =
    Srv.run ?snapshot ?read_mode ~read_only ~mpl:64 ~op_cost_us:1.0 ~sync_cost_us:100.0
      ~mode:Commit_pipeline.Eager ~arrivals_us ~scripts e
  in
  let leaked = E.live_snapshots e in
  let point =
    {
      rm_mode = mode_name;
      rm_sustained_tps = r.Server.sustained_tps;
      rm_restarts = r.Server.restarts;
      rm_ro_restarts = r.Server.ro_restarts;
      rm_lock_acquires = r.Server.lock_acquires;
      rm_ro_p50_us = pctl r.Server.ro_latency_us 50.0;
      rm_ro_p99_us = pctl r.Server.ro_latency_us 99.0;
      rm_rw_p50_us = pctl r.Server.rw_latency_us 50.0;
      rm_rw_p99_us = pctl r.Server.rw_latency_us 99.0;
    }
  in
  (point, read_scan_digest (module E) e, leaked = 0)

let read_frac_point (module E : SNAPSHOT_SERVER_ENGINE) ~n ~seed ~read_frac ~heavy =
  let scripts, read_only = read_heavy_scripts ~n ~seed ~read_frac ~heavy in
  (* Offered load well above the eager baseline's ~9.5k tps capacity
     (one 100 µs force per commit), so the locked modes are
     capacity-bound and sustained tps measures capacity, not the
     arrival rate. *)
  let arrivals_us =
    let rng = Dbm_util.Prng.create (seed + int_of_float (read_frac *. 1000.0)) in
    Array.map (fun s -> s *. 1e6) (W.gen_arrival_times rng (W.Poisson { rate = 160_000.0 }) ~n)
  in
  let run name = read_mode_run (module E) ~mode_name:name ~arrivals_us ~scripts ~read_only in
  let xlock, fp_x, ok_x = run "xlock" in
  let slock, fp_s, ok_s = run "slock" in
  let snap, fp_n, ok_n = run "snapshot" in
  {
    rf_read_frac = read_frac;
    rf_heavy_tail = heavy;
    rf_modes = [ xlock; slock; snap ];
    rf_snapshot_speedup =
      (if xlock.rm_sustained_tps > 0. then snap.rm_sustained_tps /. xlock.rm_sustained_tps
       else infinity);
    rf_equivalent =
      String.equal fp_x fp_s && String.equal fp_x fp_n && ok_x && ok_s && ok_n;
  }

let read_heavy_bench ~scale ~read_fracs =
  let n = 400 * scale and seed = 90_125 in
  List.map
    (fun (module E : SNAPSHOT_SERVER_ENGINE) ->
      let points =
        List.map (fun rf -> read_frac_point (module E) ~n ~seed ~read_frac:rf ~heavy:false) read_fracs
        @ [ read_frac_point (module E) ~n ~seed ~read_frac:0.9 ~heavy:true ]
      in
      { re_engine = E.engine_name; re_points = points })
    snapshot_engines

(* The gate point: among each engine's uniform-size points, the one
   closest to read fraction 0.9 (exactly 0.9 on default sweeps). *)
let read_gate_speedup read_heavy =
  List.fold_left
    (fun acc re ->
      let uniform = List.filter (fun p -> not p.rf_heavy_tail) re.re_points in
      match uniform with
      | [] -> acc
      | _ ->
        let best =
          List.fold_left
            (fun (d, sp) p ->
              let d' = Float.abs (p.rf_read_frac -. 0.9) in
              if d' < d then (d', p.rf_snapshot_speedup) else (d, sp))
            (infinity, infinity) uniform
        in
        Float.min acc (snd best))
    infinity read_heavy

let snapshot_mode_ro_restarts read_heavy =
  List.fold_left
    (fun acc re ->
      List.fold_left
        (fun acc p ->
          List.fold_left
            (fun acc m -> if String.equal m.rm_mode "snapshot" then acc + m.rm_ro_restarts else acc)
            acc p.rf_modes)
        acc re.re_points)
    0 read_heavy

(* --- sharded multicore execution: tps vs shards, cross-shard 2PC ---- *)

module Sharded_log = Shard.Make (Engine_log)
module Serial_log = Server.Make (Engine_log)

let shard_db_pages = 1024

let shard_n_keys = shard_db_pages * 4 (* 4 keys per page *)

(* Workload with an exact cross-shard fraction carved against the {e
   top} shard count's router.  The router's class at [top] refines its
   class at every divisor (x mod 2 is determined by x mod 4), so when
   the swept counts all divide the top one, a zero-cross workload stays
   single-shard at {e every} count — the fully-parallel regime the
   scaling gate measures. *)
let shard_scripts ~n ~seed ~cross_frac ~top =
  let cfg =
    {
      W.n_transactions = n;
      min_pages = 2;
      max_pages = 8;
      write_fraction = 0.7;
      pattern = W.Random_access;
      db_pages = shard_db_pages;
      seed;
    }
  in
  let txns = W.generate cfg in
  let rng = Dbm_util.Prng.create (seed lxor 0xc105) in
  let txns =
    W.apply_cross_fraction rng ~cross_frac ~classes:top
      ~class_of:(fun p -> Shard_router.shard_of_page ~shards:top p)
      ~db_pages:shard_db_pages txns
  in
  Array.map
    (fun t ->
      List.init (Array.length t.W.pages) (fun i ->
          let k = t.W.pages.(i) * 4 in
          if t.W.writes.(i) then Scheduler.Put (k, value) else Scheduler.Get k))
    txns

(* Offered load far above a single serial server's capacity, so tps
   measures capacity and the shard sweep exposes the parallel
   headroom.  Simulated time: the curve is machine-independent. *)
let shard_arrivals ~n ~seed =
  let rng = Dbm_util.Prng.create (seed + 77) in
  Array.map (fun s -> s *. 1e6) (W.gen_arrival_times rng (W.Poisson { rate = 400_000.0 }) ~n)

(* The committed data as data (as in the snapshot sweep): every put
   writes the one constant [value], so any serializable execution of
   the same transaction set scans identically after crash recovery —
   the cross-shard-count and cross-fraction equality gate. *)
let shard_scan_digest ~shards engines =
  let keys_per_page = Engine_log.keys_per_page engines.(0) in
  let d = Dbm_util.Digest.create () in
  for k = 0 to shard_n_keys - 1 do
    let s = Shard_router.shard_of_key ~shards ~keys_per_page k in
    let t = Engine_log.begin_txn engines.(s) in
    Dbm_util.Digest.int d k;
    (match Engine_log.get t k with
    | Some v ->
      Dbm_util.Digest.int d 1;
      Dbm_util.Digest.string d v
    | None -> Dbm_util.Digest.int d 0);
    Engine_log.abort t
  done;
  Dbm_util.Digest.hex d

let shard_mode = Commit_pipeline.Grouped { batch = 32; timeout_us = 1000.0 }

(* One sharded point: fresh engines and coordinator, serve the whole
   workload, then crash everything and run coordinator-resolved restart
   recovery on every shard.  Returns the result, shard 0's engine
   fingerprint before the crash, the recovered scan digest, and the
   number of transactions still in doubt (must be 0: resolution records
   are forced during recovery). *)
let shard_run ~shards ~arrivals_us ~scripts =
  let engines =
    Array.init shards (fun _ -> Engine_log.create_with ~n_keys:shard_n_keys ~n_log_disks:2 ())
  in
  let coordinator = Coordinator_log.create () in
  let r =
    Sharded_log.run ~mpl:64 ~op_cost_us:1.0 ~sync_cost_us:100.0 ~mode:shard_mode ~arrivals_us
      ~scripts ~coordinator engines
  in
  let fingerprint = Engine_log.state_fingerprint engines.(0) in
  Coordinator_log.crash_and_recover coordinator;
  Array.iter
    (Engine_log.crash_and_recover_resolved ~resolve:(fun ~gid ->
         Coordinator_log.resolve coordinator ~gid))
    engines;
  let in_doubt =
    Array.fold_left (fun acc e -> acc + List.length (Engine_log.in_doubt e)) 0 engines
  in
  (r, fingerprint, shard_scan_digest ~shards engines, in_doubt)

(* The serial reference for a workload: the plain server on one engine,
   its engine fingerprint before the crash, then plain restart recovery
   and the same scan digest. *)
let shard_serial_reference ~arrivals_us ~scripts =
  let e = Engine_log.create_with ~n_keys:shard_n_keys ~n_log_disks:2 () in
  let r =
    Serial_log.run ~mpl:64 ~op_cost_us:1.0 ~sync_cost_us:100.0 ~mode:shard_mode ~arrivals_us
      ~scripts e
  in
  let fingerprint = Engine_log.state_fingerprint e in
  Engine_log.crash_and_recover e;
  (r, fingerprint, shard_scan_digest ~shards:1 [| e |])

(* One shard runs the plain server's driver with no transaction voting:
   every Shard.result field — latency histograms included — and the
   engine state must equal Server.run's. *)
let shard_serial_identical (r : Shard.result) fingerprint (direct : Server.result)
    direct_fingerprint =
  let same_hist a b =
    Hist.count a = Hist.count b
    && Hist.total a = Hist.total b
    && Hist.max a = Hist.max b
    && Hist.p99 a = Hist.p99 b
  in
  r.Shard.completed = direct.Server.completed
  && r.Shard.makespan_us = direct.Server.makespan_us
  && r.Shard.sustained_tps = direct.Server.sustained_tps
  && r.Shard.restarts = direct.Server.restarts
  && r.Shard.forces = direct.Server.forces
  && r.Shard.lock_acquires = direct.Server.lock_acquires
  && r.Shard.cross_committed = 0
  && same_hist r.Shard.latency_us direct.Server.latency_us
  && same_hist r.Shard.single_latency_us direct.Server.latency_us
  && Hist.count r.Shard.cross_latency_us = 0
  && String.equal fingerprint direct_fingerprint

let shard_section ~scale ~shard_counts ~cross_fracs =
  let n = 600 * scale and seed = 31_850 in
  let counts = List.sort_uniq Int.compare (1 :: shard_counts) in
  let top = List.fold_left Stdlib.max 1 counts in
  let arrivals_us = shard_arrivals ~n ~seed in
  (* tps vs shard count on the zero-cross workload *)
  let scripts0 = shard_scripts ~n ~seed ~cross_frac:0.0 ~top in
  let direct, direct_fingerprint, reference =
    shard_serial_reference ~arrivals_us ~scripts:scripts0
  in
  let points =
    List.map
      (fun shards ->
        let r, fingerprint, digest, in_doubt = shard_run ~shards ~arrivals_us ~scripts:scripts0 in
        {
          sh_shards = shards;
          sh_oversubscribed = r.Shard.oversubscribed;
          sh_sustained_tps = r.Shard.sustained_tps;
          sh_makespan_us = r.Shard.makespan_us;
          sh_p99_us = Hist.p99 r.Shard.latency_us;
          sh_restarts = r.Shard.restarts;
          sh_serial_identical =
            shards <> 1 || shard_serial_identical r fingerprint direct direct_fingerprint;
          sh_scan_equal = String.equal digest reference;
          sh_in_doubt = in_doubt;
        })
      counts
  in
  let tps_of c =
    List.fold_left (fun acc p -> if p.sh_shards = c then p.sh_sustained_tps else acc) 0.0 points
  in
  let scaling = if tps_of 1 > 0.0 then tps_of top /. tps_of 1 else infinity in
  (* cross-shard fraction sweep at the top shard count, each fraction
     gated against its own serial reference *)
  let cross =
    List.map
      (fun cf ->
        let scripts = shard_scripts ~n ~seed ~cross_frac:cf ~top in
        let _, _, reference = shard_serial_reference ~arrivals_us ~scripts in
        let r, _, digest, in_doubt = shard_run ~shards:top ~arrivals_us ~scripts in
        {
          cf_cross_frac = cf;
          cf_cross_txns = r.Shard.cross_committed;
          cf_sustained_tps = r.Shard.sustained_tps;
          cf_p99_cross_us =
            (if Hist.count r.Shard.cross_latency_us = 0 then 0.0
             else Hist.p99 r.Shard.cross_latency_us);
          cf_scan_equal = String.equal digest reference;
          cf_in_doubt = in_doubt;
        })
      cross_fracs
  in
  {
    sb_points = points;
    sb_scaling = scaling;
    sb_cross = cross;
    sb_equivalent =
      List.for_all
        (fun p -> p.sh_scan_equal && p.sh_serial_identical && p.sh_in_doubt = 0)
        points
      && List.for_all (fun c -> c.cf_scan_equal && c.cf_in_doubt = 0) cross;
  }

(* --- entry point ---------------------------------------------------- *)

let default_shard_counts = [ 1; 2; 4 ]

let default_cross_fracs = [ 0.0; 0.05; 0.2 ]

let default_read_fracs = [ 0.5; 0.9; 0.99 ]

let run ?(scale = 1) ?(jobs = [ 1; 2; 4 ]) ?(allow_oversubscribe = false)
    ?(log_formats = known_formats) ?(read_fracs = default_read_fracs)
    ?(shard_counts = default_shard_counts) ?(cross_fracs = default_cross_fracs) ~now () =
  if scale <= 0 then invalid_arg "Storage_bench.run: scale must be positive";
  if List.exists (fun j -> j < 1) jobs then
    invalid_arg "Storage_bench.run: jobs must all be >= 1";
  if read_fracs = [] || List.exists (fun f -> not (f >= 0.0 && f <= 1.0)) read_fracs then
    invalid_arg "Storage_bench.run: read_fracs must be non-empty, each in [0,1]";
  if shard_counts = [] || List.exists (fun s -> s < 1) shard_counts then
    invalid_arg "Storage_bench.run: shard_counts must be non-empty, each >= 1";
  if List.exists (fun f -> not (f >= 0.0 && f <= 1.0)) cross_fracs then
    invalid_arg "Storage_bench.run: cross_fracs must each be in [0,1]";
  let sched_txns, sched_naive_ms, sched_opt_ms, sched_equivalent =
    run_sched_comparison ~now ~scale
  in
  let engines = List.map (fun e -> bench_engine e ~now ~rounds:(20 * scale)) all_engines in
  let txns_l = 600 * scale in
  let recovery_records_l, recovery_wall_l_ms, recovery_records_2l, recovery_wall_2l_ms =
    recovery_walls ~now ~txns:txns_l
  in
  let recovery_jobs, recovery_parallel_speedup =
    recovery_vs_jobs ~now ~jobs ~allow_oversubscribe ~txns:txns_l
  in
  let recovery_ckpt, recovery_ckpt_speedup = recovery_vs_checkpoint_age ~now ~txns:txns_l in
  let log_formats, log_delta_reduction, log_oplog_reduction, log_format_equivalent =
    log_format_bench ~now ~jobs ~allow_oversubscribe ~formats:log_formats ~txns:txns_l
  in
  let server = server_bench ~scale in
  let server_speedup =
    List.fold_left (fun acc s -> Float.min acc s.sv_speedup) infinity server
  in
  let server_equivalent = List.for_all (fun s -> s.sv_equivalent) server in
  let read_heavy = read_heavy_bench ~scale ~read_fracs in
  let read_equivalent =
    List.for_all (fun re -> List.for_all (fun p -> p.rf_equivalent) re.re_points) read_heavy
  in
  let shard = shard_section ~scale ~shard_counts ~cross_fracs in
  let pool_hit_ns, pool_miss_ns = pool_ns ~now ~iters:(200_000 * scale) in
  let journal_append_per_sec, journal_append_sync_per_sec =
    journal_throughput ~now ~iters:(200_000 * scale)
  in
  {
    scale;
    sched_txns;
    sched_naive_ms;
    sched_opt_ms;
    sched_speedup = (if sched_opt_ms > 0. then sched_naive_ms /. sched_opt_ms else infinity);
    sched_equivalent;
    engines;
    recovery_txns_l = txns_l;
    recovery_records_l;
    recovery_wall_l_ms;
    recovery_records_2l;
    recovery_wall_2l_ms;
    recovery_wall_ratio =
      (if recovery_wall_l_ms > 0. then recovery_wall_2l_ms /. recovery_wall_l_ms else infinity);
    recovery_jobs;
    recovery_parallel_speedup;
    recovery_ckpt;
    recovery_ckpt_speedup;
    recovery_equivalent =
      List.for_all (fun p -> p.rj_equivalent) recovery_jobs
      && List.for_all (fun p -> p.ck_equivalent) recovery_ckpt;
    log_formats;
    log_delta_reduction;
    log_oplog_reduction;
    log_format_equivalent;
    server;
    server_speedup;
    server_equivalent;
    read_heavy;
    read_speedup = read_gate_speedup read_heavy;
    read_ro_restarts = snapshot_mode_ro_restarts read_heavy;
    read_equivalent;
    shard;
    pool_hit_ns;
    pool_miss_ns;
    journal_append_per_sec;
    journal_append_sync_per_sec;
  }

(* --- the report --------------------------------------------------- *)

let print (b : t) =
  Printf.printf "contended scheduler (%d scripts): polling %.2f ms -> wakeup %.2f ms (%.1fx, reports %s)\n"
    b.sched_txns b.sched_naive_ms b.sched_opt_ms b.sched_speedup
    (if b.sched_equivalent then "identical" else "DIVERGED");
  Printf.printf "committed txns/sec (low | high contention):\n";
  List.iter
    (fun e ->
      Printf.printf "  %-22s %10.0f | %10.0f  (%d restarts)\n" e.engine e.low_tps e.high_tps
        e.high_restarts)
    b.engines;
  Printf.printf "recovery: %d records %.2f ms; %d records %.2f ms (ratio %.2f)\n"
    b.recovery_records_l b.recovery_wall_l_ms b.recovery_records_2l b.recovery_wall_2l_ms
    b.recovery_wall_ratio;
  Printf.printf "parallel recovery (%d records):\n" b.recovery_records_l;
  List.iter
    (fun p ->
      Printf.printf "  %d job%s%s %8.2f ms  (%s)\n" p.rj_jobs
        (if p.rj_jobs > 1 then "s" else " ")
        (if p.rj_oversubscribed then " [oversubscribed]" else "")
        p.rj_wall_ms
        (if p.rj_equivalent then "state identical to serial reference" else "STATE DIVERGED"))
    b.recovery_jobs;
  Printf.printf "  best parallel speedup over serial: %.2fx\n" b.recovery_parallel_speedup;
  Printf.printf "fuzzy-checkpointed recovery (serial replay, same committed work):\n";
  List.iter
    (fun p ->
      Printf.printf "  checkpoint after %3.0f%% of commits: %7d records %8.2f ms  (%s)\n"
        (100. *. p.ck_fraction) p.ck_records p.ck_wall_ms
        (if p.ck_equivalent then "state identical to full replay" else "STATE DIVERGED"))
    b.recovery_ckpt;
  Printf.printf "  newest checkpoint vs full replay: %.2fx cheaper\n" b.recovery_ckpt_speedup;
  Printf.printf "log formats (same committed workload; %d txns):\n"
    (match b.log_formats with p :: _ -> p.lf_committed_txns | [] -> 0);
  List.iter
    (fun p ->
      Printf.printf
        "  %-9s %8d records %10d bytes  %8.1f B/txn  append %7.0f ns/rec  replay %7.2f ms \
         serial, %7.2f ms parallel  (%s)\n"
        p.lf_format p.lf_records p.lf_log_bytes p.lf_bytes_per_txn p.lf_append_ns_per_record
        p.lf_replay_wall_ms p.lf_replay_parallel_ms
        (if p.lf_equivalent then "state identical to physical reference" else "STATE DIVERGED"))
    b.log_formats;
  Printf.printf "  log volume reduction over physical: delta %.1fx, oplog %.1fx\n"
    b.log_delta_reduction b.log_oplog_reduction;
  Printf.printf "open-loop server (simulated time, group commit, mpl 64):\n";
  List.iter
    (fun s ->
      Printf.printf "  %s:\n" s.sv_engine;
      List.iter
        (fun p ->
          Printf.printf
            "    offered %8.0f tps -> sustained %8.0f tps  p50 %8.1f us  p99 %9.1f us  \
             p999 %9.1f us  (%d forces, %d restarts, queue peak %d)\n"
            p.sv_offered_tps p.sv_sustained_tps p.sv_p50_us p.sv_p99_us p.sv_p999_us
            p.sv_forces p.sv_restarts p.sv_max_queued)
        s.sv_sweep;
      Printf.printf
        "    top load head-to-head: eager %8.0f tps (p99 %9.1f us) -> grouped %8.0f tps \
         (p99 %9.1f us)  %.1fx, recovery %s\n"
        s.sv_eager_tps s.sv_eager_p99_us s.sv_grouped_tps s.sv_grouped_p99_us s.sv_speedup
        (if s.sv_equivalent then "equivalent" else "DIVERGED"))
    b.server;
  Printf.printf "  worst grouped/eager speedup across engines: %.2fx\n" b.server_speedup;
  Printf.printf "read-heavy snapshot sweep (eager commits, Zipfian pages, simulated time):\n";
  List.iter
    (fun e ->
      Printf.printf "  %s:\n" e.re_engine;
      List.iter
        (fun p ->
          Printf.printf "    read fraction %.2f%s:\n" p.rf_read_frac
            (if p.rf_heavy_tail then " [Pareto sizes]" else "");
          List.iter
            (fun m ->
              Printf.printf
                "      %-8s %8.0f tps  %6d locks  %3d restarts (%d ro)  ro p50/p99 %8.1f/%9.1f us  \
                 rw p50/p99 %8.1f/%9.1f us\n"
                m.rm_mode m.rm_sustained_tps m.rm_lock_acquires m.rm_restarts m.rm_ro_restarts
                m.rm_ro_p50_us m.rm_ro_p99_us m.rm_rw_p50_us m.rm_rw_p99_us)
            p.rf_modes;
          Printf.printf "      snapshot over xlock: %.2fx, recovered scans %s\n"
            p.rf_snapshot_speedup
            (if p.rf_equivalent then "identical across modes" else "DIVERGED"))
        e.re_points)
    b.read_heavy;
  Printf.printf
    "  worst snapshot/xlock speedup near read fraction 0.9: %.2fx (%d ro restarts on the \
     snapshot path)\n"
    b.read_speedup b.read_ro_restarts;
  Printf.printf "sharded execution (zero-cross workload, group commit, simulated time):\n";
  List.iter
    (fun p ->
      Printf.printf
        "  %d shard%s%s %8.0f tps  makespan %10.0f us  p99 %9.1f us  (%d restarts, %d in \
         doubt, scan %s%s)\n"
        p.sh_shards
        (if p.sh_shards > 1 then "s" else " ")
        (if p.sh_oversubscribed then " [oversubscribed]" else "")
        p.sh_sustained_tps p.sh_makespan_us p.sh_p99_us p.sh_restarts p.sh_in_doubt
        (if p.sh_scan_equal then "identical" else "DIVERGED")
        (if p.sh_shards = 1 then
           if p.sh_serial_identical then ", bit-identical to Server.run" else ", SERIAL DRIFT"
         else ""))
    b.shard.sb_points;
  Printf.printf "  scaling at the top shard count: %.2fx over 1 shard\n" b.shard.sb_scaling;
  Printf.printf "cross-shard fraction sweep (two-phase commit at the top shard count):\n";
  List.iter
    (fun c ->
      Printf.printf
        "  cross %.2f: %4d cross txns  %8.0f tps  cross p99 %9.1f us  (%d in doubt, scan %s)\n"
        c.cf_cross_frac c.cf_cross_txns c.cf_sustained_tps c.cf_p99_cross_us c.cf_in_doubt
        (if c.cf_scan_equal then "identical" else "DIVERGED"))
    b.shard.sb_cross;
  Printf.printf "buffer pool get: %.0f ns hit, %.0f ns miss\n" b.pool_hit_ns b.pool_miss_ns;
  Printf.printf "journal: %.2fM appends/s, %.2fM appends/s with sync every 64\n"
    (b.journal_append_per_sec /. 1e6)
    (b.journal_append_sync_per_sec /. 1e6)

let equivalence_failures b =
  List.filter_map
    (fun (held, failure) -> if held then None else Some failure)
    [
      (b.sched_equivalent, "wakeup scheduler report diverged from the polling reference");
      ( b.recovery_equivalent,
        "parallel/checkpointed recovery state diverged from the serial reference" );
      (b.server_equivalent, "grouped-commit recovered state diverged from the eager reference");
      ( b.log_format_equivalent,
        "a log format recovered to different state than the physical reference" );
      (b.read_equivalent, "a read-lock regime recovered to different data than its peers");
      ( b.read_ro_restarts = 0,
        Printf.sprintf "%d read-only restarts on the snapshot path (must be 0)"
          b.read_ro_restarts );
      (b.shard.sb_equivalent, "a sharded run diverged from the serial reference after recovery");
    ]
