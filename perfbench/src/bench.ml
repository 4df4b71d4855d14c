(* The four workloads, their correctness gates and their metrics.
   README.md in this directory says why each workload exists and what
   every metric means. *)

open Dbm_storage
module W = Dbm_workload.Workload
module Hist = Dbm_util.Stats.Histogram
module Prng = Dbm_util.Prng
module Pool = Dbm_util.Pool
module Ledger = Shim.Ledger
module Counters = Shim.Counters

type workload = Oltp_write | Read_mostly | Restart_recovery | Cross_shard

let workloads =
  [
    ("oltp_write", Oltp_write);
    ("read_mostly", Read_mostly);
    ("restart_recovery", Restart_recovery);
    ("cross_shard", Cross_shard);
  ]

type sizes = {
  oltp_txns : int;
  read_txns : int;
  recovery_txns : int;
  recovery_losers : int;
  cross_txns : int;
  min_rounds : int;  (* measured rounds per run even past the deadline *)
}

let default_sizes =
  {
    oltp_txns = 2_500;
    read_txns = 1_000;
    recovery_txns = 2_000;
    recovery_losers = 8;
    cross_txns = 2_500;
    min_rounds = 24;
  }

let tiny_sizes =
  {
    oltp_txns = 300;
    read_txns = 200;
    recovery_txns = 256;
    recovery_losers = 4;
    cross_txns = 300;
    min_rounds = 1;
  }

(* --- fixed configuration ------------------------------------------- *)

(* The server's cost model, passed explicitly so the sim_* metrics do
   not silently follow a change of Server's defaults. *)
let op_cost_us = 1.0

let sync_cost_us = 100.0

let batch = 32

let timeout_us = 1000.0

let mode = Commit_pipeline.Grouped { batch; timeout_us }

let mpl = 64

(* Far above every workload's simulated capacity (~110k txn/s for
   oltp_write): the whole batch queues at once, so a run measures how
   fast the code drains it. *)
let offered_tps = 400_000.0

let keys_per_page = 4

let db_pages = 1024

let read_db_pages = 256

let shards = 2

let cross_frac = 0.2

let read_frac = 0.9

let checkpoint_frac = 0.5

let host_cores = Pool.default_jobs ()

(* Domains of the parallel recovery the traced run times.  The
   end-to-end recovery_ms times the serial path: on a host whose cores
   are shared, a second domain made each recovery about twice as slow
   and its wall several times as variable (README.md). *)
let recovery_jobs = min 2 host_cores

(* --- metric catalogue ---------------------------------------------- *)

let end_to_end =
  [
    ("setup_s", "s");
    ("txn_per_s", "txn/s");
    ("txn_wall_us_p50", "us");
    ("txn_wall_us_p99", "us");
    ("sim_txn_per_s", "txn/s");
    ("sim_latency_us_p99", "us");
    ("recovery_ms", "ms");
    ("heap_peak_mb", "MB");
  ]

let engine_ops =
  [
    ("begin", Counters.begin_);
    ("get", Counters.get);
    ("put", Counters.put);
    ("abort", Counters.abort);
    ("snapshot", Counters.snapshot);
    ("snapshot_get", Counters.snapshot_get);
    ("snapshot_release", Counters.snapshot_release);
  ]

let per_layer =
  [
    ("workload.gen_ms", "ms");
    ("server.self_ms", "ms");
    ("scheduler.restarts", "count");
    ("scheduler.useful_frac", "ratio");
    ("lock_mgr.acquires_per_txn", "count");
    ("server.max_queued", "count");
  ]
  @ List.concat_map
      (fun (op, _) ->
        [
          ("engine." ^ op ^ ".calls", "count");
          ("engine." ^ op ^ ".ms", "ms");
          ("engine." ^ op ^ ".ns_mean", "ns");
        ])
      engine_ops
  @ [
      ("engine.disk_reads", "count");
      ("engine.disk_writes", "count");
      ("diff.a_records", "count");
      ("diff.d_records", "count");
      ("diff.merges", "count");
      ("pipeline.append.ms", "ms");
      ("pipeline.force.ms", "ms");
      ("pipeline.forces", "count");
      ("pipeline.commits_per_force", "ratio");
      ("wal.records", "count");
      ("wal.bytes", "bytes");
      ("wal.bytes_per_record", "bytes");
      ("wal.bytes_per_user_byte", "ratio");
      ("journal.syncs", "count");
      ("wal.encode_ns_per_record", "ns");
      ("wal.decode_ns_per_record", "ns");
      ("replay.scan_ms", "ms");
      ("replay.start_ms", "ms");
      ("replay.decode_ms", "ms");
      ("replay.committed_ms", "ms");
      ("replay.apply_ms", "ms");
      ("replay.residual_ms", "ms");
      ("replay.residual_frac", "ratio");
      ("replay.records_total", "count");
      ("replay.records_skipped", "count");
      ("replay.records_decoded", "count");
      ("replay.pages_written", "count");
      ("recovery.reference_ms", "ms");
      ("recovery.parallel_ms", "ms");
      ("engine.prepare.calls", "count");
      ("engine.prepare.ms", "ms");
      ("coordinator.decisions", "count");
      ("coordinator.log_syncs", "count");
      ("shard.cross_txns", "count");
      ("shard.cross_sim_latency_us_p99", "us");
      ("shard.domains", "count");
      ("shard.oversubscribed", "bool");
      ("pool.jobs", "count");
      ("host_cores", "count");
      ("gc.minor_words_per_txn", "words");
      ("gc.major_collections", "count");
      ("trace.overhead_frac", "ratio");
      ("trace.layer_sum_err_frac", "ratio");
    ]

(* Accounting tolerances of the traced run.  The shim's call stamps
   partition each engine instance's timeline, so the server layer sum is
   exact unless calls overlap.  The replay phases are separate calls on a
   copy of the log, so their sum only approximates crash_and_recover:
   the residual holds the engine's own epilogue (index rebuild, in-doubt
   scan, page writes) plus run-to-run noise. *)
let layer_sum_tolerance = 0.01

let replay_residual_tolerance = 0.5

(* --- observations --------------------------------------------------- *)

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Named samples, one per round (or per set-up, or per recovery). *)
module Obs = struct
  type t = (string, float list) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let add (t : t) k v = Hashtbl.replace t k (v :: Option.value ~default:[] (Hashtbl.find_opt t k))

  let mem (t : t) k = Hashtbl.mem t k

  let median (t : t) k = match Hashtbl.find_opt t k with None -> 0.0 | Some l -> median l

  let mean (t : t) k =
    match Hashtbl.find_opt t k with
    | None | Some [] -> 0.0
    | Some l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

  let max (t : t) k =
    match Hashtbl.find_opt t k with None -> 0.0 | Some l -> List.fold_left Float.max neg_infinity l
end

(* Nearest-rank percentile of sorted ns samples, in µs. *)
let percentile_us sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let i = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
    float_of_int sorted.(max 0 (min (n - 1) i)) /. 1e3

let ms ns = Clock.ms_of_ns ns

(* One round's per-attempt wall latencies. *)
let observe_latency obs samples =
  let sorted = Shim.Samples.sorted samples in
  Obs.add obs "txn_wall_us_p50" (percentile_us sorted 50.0);
  Obs.add obs "txn_wall_us_p99" (percentile_us sorted 99.0)

let timed f =
  let t0 = Clock.now_ns () in
  let r = f () in
  (r, Clock.now_ns () - t0)

let stat stats name = float_of_int (try List.assoc name stats with Not_found -> 0)

(* --- inputs --------------------------------------------------------- *)

type inputs = {
  scripts : Scheduler.script array;
  arrivals_us : float array;
  read_only : bool array option;
  n_keys : int;
}

(* A value names the transaction that wrote it, so a lost or reordered
   write reads back as the wrong value. *)
let value_of i = Printf.sprintf "txn%09d" i

let scripts_of (txns : W.txn array) =
  Array.mapi
    (fun i (t : W.txn) ->
      List.init (Array.length t.W.pages) (fun j ->
          let k = t.W.pages.(j) * keys_per_page in
          if t.W.writes.(j) then Scheduler.Put (k, value_of i) else Scheduler.Get k))
    txns

let gen_config ~n ~seed ~pages ~pattern ~write_fraction ~max_pages =
  { W.n_transactions = n; min_pages = 2; max_pages; write_fraction; pattern; db_pages = pages; seed }

(* The generator seed of a run's [batch]-th input batch. *)
let batch_seed ~seed ~batch = (seed * 1_000_003) + batch

let arrivals ~seed ~n =
  let rng = Prng.create (seed + 0x5a17) in
  Array.map (fun s -> s *. 1e6) (W.gen_arrival_times rng (W.Poisson { rate = offered_tps }) ~n)

let gen_inputs workload sizes ~seed =
  match workload with
  | Oltp_write | Restart_recovery ->
    let n = sizes.oltp_txns in
    let txns =
      W.generate
        (gen_config ~n ~seed ~pages:db_pages ~pattern:W.Random_access ~write_fraction:0.7
           ~max_pages:8)
    in
    { scripts = scripts_of txns; arrivals_us = arrivals ~seed ~n; read_only = None; n_keys = db_pages * keys_per_page }
  | Read_mostly ->
    let n = sizes.read_txns in
    let txns =
      W.generate
        (gen_config ~n ~seed ~pages:read_db_pages ~pattern:(W.Zipfian { theta = 0.99 })
           ~write_fraction:0.6 ~max_pages:8)
    in
    let txns = W.apply_read_fraction (Prng.create (seed lxor 0x5eed)) ~read_frac txns in
    {
      scripts = scripts_of txns;
      arrivals_us = arrivals ~seed ~n;
      read_only = Some (Array.map (fun t -> W.write_set_size t = 0) txns);
      n_keys = read_db_pages * keys_per_page;
    }
  | Cross_shard ->
    let n = sizes.cross_txns in
    let txns =
      W.generate
        (gen_config ~n ~seed ~pages:db_pages ~pattern:W.Random_access ~write_fraction:0.7
           ~max_pages:8)
    in
    let txns =
      W.apply_cross_fraction (Prng.create (seed lxor 0xc105)) ~cross_frac ~classes:shards
        ~class_of:(fun p -> Shard_router.shard_of_page ~shards p)
        ~db_pages txns
    in
    { scripts = scripts_of txns; arrivals_us = arrivals ~seed ~n; read_only = None; n_keys = db_pages * keys_per_page }

(* The restart_recovery history: one client's transactions (2-6 puts
   each, 4 on average), then loser transactions on pages no other loser
   touches. *)
type history = { writes : (int * string) list array; losers : (int * string) list array }

let gen_history sizes ~seed =
  let n = sizes.recovery_txns in
  let txns =
    W.generate
      (gen_config ~n ~seed ~pages:db_pages ~pattern:W.Random_access ~write_fraction:1.0
         ~max_pages:6)
  in
  let writes =
    Array.mapi
      (fun i (t : W.txn) ->
        Array.to_list (Array.map (fun p -> (p * keys_per_page, value_of i)) t.W.pages))
      txns
  in
  let rng = Prng.create (seed lxor 0x1055) in
  let perm = Array.init db_pages Fun.id in
  for i = db_pages - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let x = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- x
  done;
  let losers =
    Array.init sizes.recovery_losers (fun l ->
        List.init 4 (fun j -> (perm.((4 * l) + j) * keys_per_page, Printf.sprintf "loser%07d" l)))
  in
  { writes; losers }

let digest_inputs workload sizes ~seed =
  let d = Dbm_util.Digest.create () in
  (match workload with
  | Restart_recovery ->
    let h = gen_history sizes ~seed in
    Array.iter
      (List.iter (fun (k, v) ->
           Dbm_util.Digest.int d k;
           Dbm_util.Digest.string d v))
      (Array.append h.writes h.losers)
  | _ ->
    let inp = gen_inputs workload sizes ~seed in
    Array.iter
      (List.iter (function
        | Scheduler.Get k -> Dbm_util.Digest.int d k
        | Scheduler.Put (k, v) ->
          Dbm_util.Digest.int d k;
          Dbm_util.Digest.string d v
        | Scheduler.Delete k -> Dbm_util.Digest.int d (-k)))
      inp.scripts;
    Array.iter (Dbm_util.Digest.float d) inp.arrivals_us);
  Dbm_util.Digest.hex d

(* --- correctness gate ---------------------------------------------- *)

(* Keys whose recovered value differs from a Kv.Model fed every
   committed transaction in each instance's commit order.  Instances
   own disjoint keys (shards), so their order relative to each other
   does not matter. *)
let model_mismatches ~n_keys ~get ledgers =
  let module M = Kv.Model in
  let m = M.create ~n_keys () in
  Array.iter
    (fun l ->
      Ledger.iter_commits l (fun ws ->
          let tx = M.begin_txn m in
          List.iter (function k, Some v -> M.put tx k v | k, None -> M.delete tx k) ws;
          M.commit tx))
    ledgers;
  let tx = M.begin_txn m in
  let bad = ref 0 in
  for k = 0 to n_keys - 1 do
    if M.get tx k <> get k then incr bad
  done;
  M.abort tx;
  !bad

let log_scan_mismatches ~n_keys (raws : Engine_log.t array) ledgers =
  let shards = Array.length raws in
  let txs = Array.map Engine_log.begin_txn raws in
  let get k = Engine_log.get txs.(Shard_router.shard_of_key ~shards ~keys_per_page k) k in
  let bad = model_mismatches ~n_keys ~get ledgers in
  Array.iter Engine_log.abort txs;
  bad

(* --- one run's outcome --------------------------------------------- *)

type run_out = {
  start_ns : int;
  wall_ns : int;
  completed : int;
  restarts : int;
  lock_acquires : int;
  max_queued : int;
  sim_tps : float;
  sim_p99_us : float;
  cross_txns : int;
  cross_p99_us : float;
  minor_words : float;
  major_collections : int;
}

let gc_timed f =
  let g0 = Gc.quick_stat () in
  let start_ns = Clock.now_ns () in
  let r = f () in
  let wall_ns = Clock.now_ns () - start_ns in
  let g1 = Gc.quick_stat () in
  (r, start_ns, wall_ns, g1.Gc.minor_words -. g0.Gc.minor_words,
   g1.Gc.major_collections - g0.Gc.major_collections)

let p99 h = if Hist.count h = 0 then 0.0 else Hist.p99 h

(* Per-layer numbers the Timed shim collected, summed over instances. *)
let observe_counters obs ~domains ~start_ns ~wall_ns (cs : Counters.t array) =
  let sum f = Array.fold_left (fun acc c -> acc + f c) 0 cs in
  let calls op = sum (fun c -> c.Counters.calls.(op)) in
  let ns op = sum (fun c -> c.Counters.ns.(op)) in
  List.iter
    (fun (name, op) ->
      let n = calls op in
      Obs.add obs ("engine." ^ name ^ ".calls") (float_of_int n);
      Obs.add obs ("engine." ^ name ^ ".ms") (ms (ns op));
      Obs.add obs ("engine." ^ name ^ ".ns_mean")
        (if n = 0 then 0.0 else float_of_int (ns op) /. float_of_int n))
    engine_ops;
  Obs.add obs "engine.prepare.calls" (float_of_int (calls Counters.prepare));
  Obs.add obs "engine.prepare.ms" (ms (ns Counters.prepare));
  let append = ns Counters.commit + ns Counters.commit_group in
  let force = ns Counters.force in
  Obs.add obs "pipeline.append.ms" (ms append);
  Obs.add obs "pipeline.force.ms" (ms force);
  let layers = Array.fold_left ( + ) 0 (Array.map (fun c -> Array.fold_left ( + ) 0 c.Counters.ns) cs) in
  (* Each instance's own time: before its first call, between calls, and
     after its last call — what the server (and, sharded, the decision
     waits) spent outside the engine. *)
  let stop = start_ns + wall_ns in
  let self =
    Array.fold_left
      (fun acc c ->
        if c.Counters.first = 0 then acc + wall_ns
        else acc + (c.Counters.first - start_ns) + c.Counters.gap_ns + (stop - c.Counters.last_exit))
      0 cs
  in
  Obs.add obs "server.self_ms" (ms self);
  let total = float_of_int (domains * wall_ns) in
  Obs.add obs "trace.layer_sum_err_frac" (Float.abs (total -. float_of_int (self + layers)) /. total)

let observe_run obs ~domains (o : run_out) ledgers =
  let completed = float_of_int o.completed in
  let sum f = Array.fold_left (fun acc l -> acc + f l) 0 ledgers in
  let forces = sum (fun l -> l.Ledger.forces) in
  Obs.add obs "txn_per_s" (completed /. Clock.s_of_ns o.wall_ns);
  Obs.add obs "sim_txn_per_s" o.sim_tps;
  Obs.add obs "sim_latency_us_p99" o.sim_p99_us;
  Obs.add obs "scheduler.restarts" (float_of_int o.restarts);
  Obs.add obs "scheduler.useful_frac" (completed /. (completed +. float_of_int o.restarts));
  Obs.add obs "lock_mgr.acquires_per_txn" (float_of_int o.lock_acquires /. completed);
  Obs.add obs "server.max_queued" (float_of_int o.max_queued);
  Obs.add obs "pipeline.forces" (float_of_int forces);
  Obs.add obs "pipeline.commits_per_force"
    (if forces = 0 then 0.0 else float_of_int (sum (fun l -> l.Ledger.grouped)) /. float_of_int forces);
  Obs.add obs "gc.minor_words_per_txn" (o.minor_words /. completed);
  Obs.add obs "gc.major_collections" (float_of_int o.major_collections);
  if domains > 1 then begin
    Obs.add obs "shard.cross_txns" (float_of_int o.cross_txns);
    Obs.add obs "shard.cross_sim_latency_us_p99" o.cross_p99_us
  end

let user_bytes ledgers =
  Array.fold_left
    (fun acc l ->
      List.fold_left
        (List.fold_left (fun acc (_, v) -> match v with Some v -> acc + String.length v | None -> acc))
        acc l.Ledger.commits)
    0 ledgers

let observe_log_engines obs (raws : Engine_log.t array) ledgers =
  let sum name = Array.fold_left (fun acc e -> acc +. stat (Engine_log.stats e) name) 0.0 raws in
  let records = float_of_int (Array.fold_left (fun acc e -> acc + Engine_log.records_logged e) 0 raws) in
  let bytes = float_of_int (Array.fold_left (fun acc e -> acc + Engine_log.log_bytes e) 0 raws) in
  Obs.add obs "wal.records" records;
  Obs.add obs "wal.bytes" bytes;
  Obs.add obs "wal.bytes_per_record" (if records = 0.0 then 0.0 else bytes /. records);
  Obs.add obs "wal.bytes_per_user_byte" (bytes /. float_of_int (max 1 (user_bytes ledgers)));
  Obs.add obs "journal.syncs" (sum "log_syncs");
  Obs.add obs "engine.disk_reads" (sum "disk_reads");
  Obs.add obs "engine.disk_writes" (sum "disk_writes")

(* The WAL codec re-run over the run's own durable records. *)
let observe_codec obs (raws : Engine_log.t array) =
  let recs =
    Array.of_list
      (List.concat_map
         (fun e ->
           List.concat_map (fun d -> Engine_log.dump_log e ~disk:d) (List.init (Engine_log.log_disks e) Fun.id))
         (Array.to_list raws))
  in
  let n = Array.length recs in
  if n > 0 then begin
    let enc, enc_ns = timed (fun () -> Array.map Wal.encode recs) in
    let (), dec_ns = timed (fun () -> Array.iter (fun s -> ignore (Sys.opaque_identity (Wal.decode s))) enc) in
    Obs.add obs "wal.encode_ns_per_record" (float_of_int enc_ns /. float_of_int n);
    Obs.add obs "wal.decode_ns_per_record" (float_of_int dec_ns /. float_of_int n)
  end

(* --- a run: set-up, measured rounds, gates --------------------------- *)

type result = {
  config : (string * string) list;
  attempted : int;
  failed : int;
  checks : (string * bool) list;  (* accounting checks of the traced run *)
  e2e : (string * float * string) list;
  layers : (string * float * string) list;
}

type state = {
  u : Obs.t;  (* untraced rounds: the end-to-end metrics *)
  t : Obs.t;  (* traced rounds: the per-layer metrics *)
  mutable attempted : int;
  mutable failed : int;
  mutable heap_peak_words : int;
}

let new_state () = { u = Obs.create (); t = Obs.create (); attempted = 0; failed = 0; heap_peak_words = 0 }

(* Runs [round ~traced ~batch] until [seconds] have passed and at least
   [min_rounds] of each kind ran.  The heap peak is read once those
   rounds are done: a fixed amount of work, so the figure does not
   depend on how many rounds fit in the run.  Every round generates its own input
   batch from the seed, so a run's medians average over inputs as well as
   over host noise; a traced run alternates kinds on the same batch.
   Every timed region starts from a finished major GC cycle: a restarted
   or freshly loaded process does not inherit the garbage of the
   previous round, and rounds stay independent of each other. *)
let rounds st ~sizes ~seconds ~trace round =
  let deadline = Clock.now_ns () + int_of_float (seconds *. 1e9) in
  let per_kind = if trace then 2 else 1 in
  let i = ref 0 in
  while !i < sizes.min_rounds * per_kind || Clock.now_ns () < deadline do
    Gc.major ();
    round ~traced:(trace && !i mod 2 = 1) ~batch:(!i / per_kind);
    incr i;
    if !i = sizes.min_rounds * per_kind then st.heap_peak_words <- (Gc.quick_stat ()).Gc.top_heap_words
  done;
  !i

module type THIN = Shim.THIN

(* oltp_write, read_mostly and cross_shard share one round: a timed
   set-up (generate the round's batch, create its engines), one timed
   Server/Shard run, then [after] — the engine's own statistics and the
   correctness gate, which returns the number of failures it found. *)
module Served (S : THIN) = struct
  module Srv = Server.Make (S)
  module Shd = Shard.Make (S)

  let view e () =
    let s = S.snapshot e in
    { Scheduler.view_get = S.snapshot_get s; view_close = (fun () -> S.snapshot_release s) }

  let server ~snapshot_reads inp engines =
    let e = engines.(0) in
    let snapshot = if snapshot_reads then Some (view e) else None in
    let r, start_ns, wall_ns, minor_words, major_collections =
      gc_timed (fun () ->
          Srv.run ?snapshot ?read_only:inp.read_only ~mpl ~op_cost_us ~sync_cost_us ~mode
            ~arrivals_us:inp.arrivals_us ~scripts:inp.scripts e)
    in
    {
      start_ns;
      wall_ns;
      completed = r.Server.completed;
      restarts = r.Server.restarts;
      lock_acquires = r.Server.lock_acquires;
      max_queued = r.Server.max_queued;
      sim_tps = r.Server.sustained_tps;
      sim_p99_us = p99 r.Server.latency_us;
      cross_txns = 0;
      cross_p99_us = 0.0;
      minor_words;
      major_collections;
    }

  let sharded coordinator inp engines =
    let r, start_ns, wall_ns, minor_words, major_collections =
      gc_timed (fun () ->
          Shd.run ~mpl ~op_cost_us ~sync_cost_us ~mode ~arrivals_us:inp.arrivals_us
            ~scripts:inp.scripts ~coordinator engines)
    in
    {
      start_ns;
      wall_ns;
      completed = r.Shard.completed;
      restarts = r.Shard.restarts;
      lock_acquires = r.Shard.lock_acquires;
      max_queued = 0;
      sim_tps = r.Shard.sustained_tps;
      sim_p99_us = p99 r.Shard.latency_us;
      cross_txns = r.Shard.cross_committed;
      cross_p99_us = p99 r.Shard.cross_latency_us;
      minor_words;
      major_collections;
    }

  let round st ~traced ~domains ~gen ~serve ~after =
    let obs = if traced then st.t else st.u in
    let (inp, engines), setup_ns =
      timed (fun () ->
          let inp, gen_ns = timed gen in
          Obs.add obs "workload.gen_ms" (ms gen_ns);
          (inp, Array.init domains (fun _ -> S.create ~n_keys:inp.n_keys ())))
    in
    Obs.add obs "setup_s" (Clock.s_of_ns setup_ns);
    let o = serve inp engines in
    let ledgers = Array.map S.ledger engines in
    observe_run obs ~domains o ledgers;
    if traced then
      observe_counters obs ~domains ~start_ns:o.start_ns ~wall_ns:o.wall_ns
        (Array.map (fun e -> Option.get (S.counters e)) engines)
    else begin
      let lat = Shim.Samples.create () in
      Array.iter (fun l -> Shim.Samples.append lat l.Ledger.lat) ledgers;
      observe_latency obs lat
    end;
    let unacked = Array.fold_left (fun acc l -> acc + Ledger.unacked l) 0 ledgers in
    let bad = after obs ~traced (Array.map S.raw engines) ledgers in
    st.attempted <- st.attempted + o.completed;
    st.failed <- st.failed + unacked + bad
end

module Log_u = Served (Shim.Thin (Shim.Log_delta))
module Diff_u = Served (Shim.Thin (Shim.Diff))

(* Statistics, then crash, recover and scan.  With a coordinator, the
   shards recover with in-doubt transactions resolved from it, and none
   may stay in doubt. *)
let log_after ~coordinator obs ~traced raws ledgers =
  observe_log_engines obs raws ledgers;
  if traced then observe_codec obs raws;
  Option.iter
    (fun c ->
      Obs.add obs "coordinator.decisions" (float_of_int (Coordinator_log.decisions c));
      Obs.add obs "coordinator.log_syncs" (float_of_int (Coordinator_log.log_syncs c)))
    coordinator;
  Gc.major ();
  let (), ns =
    timed (fun () ->
        match coordinator with
        | None -> Array.iter Engine_log.crash_and_recover raws
        | Some c ->
          Coordinator_log.crash_and_recover c;
          Array.iter
            (Engine_log.crash_and_recover_resolved ~resolve:(fun ~gid -> Coordinator_log.resolve c ~gid))
            raws)
  in
  Obs.add obs "recovery_ms" (ms ns);
  let in_doubt = Array.fold_left (fun acc e -> acc + List.length (Engine_log.in_doubt e)) 0 raws in
  in_doubt + log_scan_mismatches ~n_keys:(Engine_log.max_keys raws.(0)) raws ledgers

(* Statistics, then crash, recover and scan; a snapshot left open by the
   run counts as a failure. *)
let diff_after obs ~traced:_ (raws : Engine_diff.t array) ledgers =
  let e = raws.(0) in
  let stats = Engine_diff.stats e in
  List.iter
    (fun (name, key) -> Obs.add obs name (stat stats key))
    [
      ("diff.a_records", "a_records");
      ("diff.d_records", "d_records");
      ("diff.merges", "merges");
      ("engine.disk_reads", "disk_reads");
      ("engine.disk_writes", "disk_writes");
    ];
  let leaked = Engine_diff.live_snapshots e in
  Gc.major ();
  (* Recovery here reads only the differential files' suffix and takes
     well under a millisecond, so each round times several. *)
  for _ = 1 to 10 do
    let (), ns = timed (fun () -> Engine_diff.crash_and_recover e) in
    Obs.add obs "recovery_ms" (ms ns)
  done;
  let tx = Engine_diff.begin_txn e in
  let bad = model_mismatches ~n_keys:(Engine_diff.max_keys e) ~get:(Engine_diff.get tx) ledgers in
  Engine_diff.abort tx;
  leaked + bad

let served_round workload st sizes ~seed ~traced ~batch =
  let gen () = gen_inputs workload sizes ~seed:(batch_seed ~seed ~batch) in
  match workload with
  | Oltp_write ->
    let after = log_after ~coordinator:None in
    if traced then
      let module T = Served (Shim.Thin (Shim.Timed (Shim.Log_delta))) in
      T.round st ~traced ~domains:1 ~gen ~serve:(T.server ~snapshot_reads:false) ~after
    else Log_u.round st ~traced ~domains:1 ~gen ~serve:(Log_u.server ~snapshot_reads:false) ~after
  | Read_mostly ->
    if traced then
      let module T = Served (Shim.Thin (Shim.Timed (Shim.Diff))) in
      T.round st ~traced ~domains:1 ~gen ~serve:(T.server ~snapshot_reads:true) ~after:diff_after
    else Diff_u.round st ~traced ~domains:1 ~gen ~serve:(Diff_u.server ~snapshot_reads:true) ~after:diff_after
  | Cross_shard ->
    let c = Coordinator_log.create () in
    let after = log_after ~coordinator:(Some c) in
    if traced then
      let module T = Served (Shim.Thin (Shim.Timed (Shim.Log_delta))) in
      T.round st ~traced ~domains:shards ~gen ~serve:(T.sharded c) ~after
    else Log_u.round st ~traced ~domains:shards ~gen ~serve:(Log_u.sharded c) ~after
  | Restart_recovery -> invalid_arg "served_round: restart_recovery has no server"

(* --- restart_recovery ------------------------------------------------ *)

(* The preload client on the server's cost model: [op_cost_us] per put
   and per commit append, [sync_cost_us] per force of a [batch]-commit
   group.  Returns (txn/s, p99 begin-to-durable µs) of simulated time. *)
let preload_model h =
  let n = Array.length h.writes in
  let clock = ref 0.0 and pending = ref [] and lat = ref [] in
  Array.iteri
    (fun i ws ->
      pending := !clock :: !pending;
      clock := !clock +. (float_of_int (List.length ws + 1) *. op_cost_us);
      if (i + 1) mod batch = 0 || i = n - 1 then begin
        clock := !clock +. sync_cost_us;
        List.iter (fun s -> lat := (!clock -. s) :: !lat) !pending;
        pending := []
      end)
    h.writes;
  let sorted = Array.of_list !lat in
  Array.sort Float.compare sorted;
  (float_of_int n /. !clock *. 1e6, sorted.(max 0 ((n * 99 / 100) - 1)))

(* One client: begin, puts, commit_group, a force every [batch] commits;
   a flush and a fuzzy checkpoint at [checkpoint_frac] of the history
   (the flush first, or dirty pages would pin the replay start at 0).
   Then the losers write and a flush steals their pages.  Records the
   preload's observations; returns the bare engine and its ledger. *)
let preload (type a) (module S : THIN with type t = a and type raw = Engine_log.t) st ~traced h =
  let n = Array.length h.writes in
  let ckpt = int_of_float (checkpoint_frac *. float_of_int n) / batch * batch in
  let e = S.create ~n_keys:(db_pages * keys_per_page) () in
  let (), start_ns, wall_ns, minor_words, major_collections =
    gc_timed (fun () ->
        Array.iteri
          (fun i ws ->
            if i = ckpt then begin
              Engine_log.flush (S.raw e);
              Engine_log.checkpoint_fuzzy (S.raw e)
            end;
            let tx = S.begin_txn e in
            List.iter (fun (k, v) -> S.put tx k v) ws;
            S.commit_group tx;
            if (i + 1) mod batch = 0 || i = n - 1 then S.force_commits e)
          h.writes)
  in
  let raw = S.raw e in
  Array.iter
    (fun ws ->
      let tx = Engine_log.begin_txn raw in
      List.iter (fun (k, v) -> Engine_log.put tx k v) ws)
    h.losers;
  Engine_log.flush raw;
  let obs = if traced then st.t else st.u in
  let l = S.ledger e in
  Obs.add obs "txn_per_s" (float_of_int n /. Clock.s_of_ns wall_ns);
  Obs.add obs "gc.minor_words_per_txn" (minor_words /. float_of_int n);
  Obs.add obs "gc.major_collections" (float_of_int major_collections);
  Obs.add obs "pipeline.forces" (float_of_int l.Ledger.forces);
  Obs.add obs "pipeline.commits_per_force" (float_of_int l.Ledger.grouped /. float_of_int (max 1 l.Ledger.forces));
  observe_log_engines obs [| raw |] [| l |];
  (match S.counters e with
  | Some c -> observe_counters obs ~domains:1 ~start_ns ~wall_ns [| c |]
  | None -> observe_latency obs l.Ledger.lat);
  st.failed <- st.failed + Ledger.unacked l;
  (raw, l)

module Phys_u = Shim.Thin (Shim.Log_physical)

(* A copy of the durable log, encoded as the journals hold it. *)
let encoded_log raw =
  Array.init (Engine_log.log_disks raw) (fun d ->
      Array.of_list (List.map Wal.encode (Engine_log.dump_log raw ~disk:d)))

(* Replay's phases, timed one by one on the encoded copy.  recover_sorted
   recomputes the committed set itself, so apply is its wall less the
   separately timed committed phase.  Returns the phases' sum. *)
let replay_phases obs raws =
  let t0 = Clock.now_ns () in
  let meta = Replay.scan raws in
  let t1 = Clock.now_ns () in
  let start_lsn = Replay.replay_start_raw raws in
  let lo = Replay.suffix_starts meta ~start_lsn in
  let t2 = Clock.now_ns () in
  let records = Replay.decode_from raws ~lo in
  let t3 = Clock.now_ns () in
  ignore (Sys.opaque_identity (Replay.committed ~start_lsn records));
  let t4 = Clock.now_ns () in
  let pages = ref 0 in
  Replay.recover_sorted ~records ~start_lsn ~write:(fun ~page:_ _ -> incr pages) ();
  let t5 = Clock.now_ns () in
  let committed = t4 - t3 in
  Obs.add obs "replay.scan_ms" (ms (t1 - t0));
  Obs.add obs "replay.start_ms" (ms (t2 - t1));
  Obs.add obs "replay.decode_ms" (ms (t3 - t2));
  Obs.add obs "replay.committed_ms" (ms committed);
  Obs.add obs "replay.apply_ms" (ms (t5 - t4 - committed));
  let total = Array.fold_left (fun acc r -> acc + Array.length r) 0 raws in
  let skipped = Array.fold_left ( + ) 0 lo in
  Obs.add obs "replay.records_total" (float_of_int total);
  Obs.add obs "replay.records_skipped" (float_of_int skipped);
  Obs.add obs "replay.records_decoded" (float_of_int (total - skipped));
  Obs.add obs "replay.pages_written" (float_of_int !pages);
  ms (t5 - t0 - committed)

(* Recoveries timed per round, each on the round's freshly loaded log. *)
let recoveries_per_round = 3

(* Set-up is generating the history and loading it; each round loads a
   fresh engine, then crashes and recovers it repeatedly. *)
let restart_recovery st ~sizes ~seed ~seconds ~trace =
  rounds st ~sizes ~seconds ~trace (fun ~traced ~batch ->
      let obs = if traced then st.t else st.u in
      let (h, raw, l), setup_ns =
        timed (fun () ->
            let h, gen_ns = timed (fun () -> gen_history sizes ~seed:(batch_seed ~seed ~batch)) in
            Obs.add obs "workload.gen_ms" (ms gen_ns);
            let raw, l =
              if traced then
                let module T = Shim.Thin (Shim.Timed (Shim.Log_physical)) in
                preload (module T) st ~traced h
              else preload (module Phys_u) st ~traced h
            in
            (h, raw, l))
      in
      Obs.add obs "setup_s" (Clock.s_of_ns setup_ns);
      let sim_tps, sim_p99 = preload_model h in
      Obs.add obs "sim_txn_per_s" sim_tps;
      Obs.add obs "sim_latency_us_p99" sim_p99;
      st.attempted <- st.attempted + Array.length h.writes;
      let gate () =
        st.failed <- st.failed + log_scan_mismatches ~n_keys:(Engine_log.max_keys raw) [| raw |] [| l |]
      in
      let copy = if traced then Some (encoded_log raw) else None in
      for _ = 1 to recoveries_per_round do
        Option.iter
          (fun c ->
            Gc.major ();
            Obs.add obs "replay.sum_ms" (replay_phases obs c))
          copy;
        Gc.major ();
        let (), ns = timed (fun () -> Engine_log.crash_and_recover raw) in
        Obs.add obs "recovery_ms" (ms ns);
        gate ()
      done;
      if traced then begin
        (* The pool lives only for this recovery: an idle worker
           domain slows every minor collection of the others. *)
        Pool.with_pool ~jobs:recovery_jobs (fun pool ->
            Engine_log.set_recovery_pool raw (Some pool);
            Gc.major ();
            let (), ns = timed (fun () -> Engine_log.crash_and_recover raw) in
            Obs.add obs "recovery.parallel_ms" (ms ns);
            Engine_log.set_recovery_pool raw None);
        gate ()
      end;
      (* The checkpoint-skipping replay must land on the state the
         from-zero reference replay rebuilds.  Recover once more first:
         the gate's scan transaction advanced the txn counter the
         fingerprint covers. *)
      Engine_log.crash_and_recover raw;
      let fp = Engine_log.state_fingerprint raw in
      Gc.major ();
      let (), ref_ns = timed (fun () -> Engine_log.crash_and_recover_reference raw) in
      Obs.add obs "recovery.reference_ms" (ms ref_ns);
      if not (String.equal fp (Engine_log.state_fingerprint raw)) then st.failed <- st.failed + 1;
      gate ())

(* --- assembly ---------------------------------------------------------- *)

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

let pipeline_desc = Printf.sprintf "grouped(batch=%d,timeout_us=%g)" batch timeout_us

let config workload sizes ~seed ~trace ~rounds =
  let domains, engine, log_format, extra =
    match workload with
    | Oltp_write ->
      (1, "Engine_log", "delta", [ ("txns", string_of_int sizes.oltp_txns); ("pages", string_of_int db_pages); ("pattern", "uniform") ])
    | Read_mostly ->
      ( 1,
        "Engine_diff",
        "differential-files",
        [
          ("txns", string_of_int sizes.read_txns);
          ("pages", string_of_int read_db_pages);
          ("pattern", "zipfian(0.99)");
          ("read_frac", string_of_float read_frac);
          ("snapshot_reads", "true");
        ] )
    | Restart_recovery ->
      ( 1,
        "Engine_log",
        "physical",
        [
          ("txns", string_of_int sizes.recovery_txns);
          ("losers", string_of_int sizes.recovery_losers);
          ("pages", string_of_int db_pages);
          ("checkpoint_frac", string_of_float checkpoint_frac);
          ("recovery_jobs", "1");
          ("traced_parallel_recovery_jobs", string_of_int recovery_jobs);
        ] )
    | Cross_shard ->
      ( shards,
        "Engine_log",
        "delta",
        [
          ("txns", string_of_int sizes.cross_txns);
          ("pages", string_of_int db_pages);
          ("shards", string_of_int shards);
          ("cross_frac", string_of_float cross_frac);
        ] )
  in
  let oversubscribed = domains > host_cores in
  ( domains,
    [
      ("workload", workload_name workload);
      ("seed", string_of_int seed);
      ("trace", string_of_bool trace);
      ("host_cores", string_of_int host_cores);
      ("domains", string_of_int domains);
      ("oversubscribed", string_of_bool oversubscribed);
      ("ocaml", Sys.ocaml_version);
      ("engine", engine);
      ("log_format", log_format);
      ("log_disks", if engine = "Engine_log" then "2" else "0");
      ("pipeline", if workload = Restart_recovery then Printf.sprintf "client(force_every=%d)" batch else pipeline_desc);
      ("mpl", string_of_int mpl);
      ("offered_tps", Printf.sprintf "%g" offered_tps);
      ("op_cost_us", Printf.sprintf "%g" op_cost_us);
      ("sync_cost_us", Printf.sprintf "%g" sync_cost_us);
      ("rounds", string_of_int rounds);
    ]
    @ extra
    @ if oversubscribed then [ ("parallel_ratio", "unverified (domains exceed cores)") ] else [] )

let run ?(sizes = default_sizes) ~workload ~seed ~seconds ~trace () =
  let st = new_state () in
  let rounds =
    match workload with
    | Restart_recovery -> restart_recovery st ~sizes ~seed ~seconds ~trace
    | _ -> rounds st ~sizes ~seconds ~trace (served_round workload st sizes ~seed)
  in
  let domains, config = config workload sizes ~seed ~trace ~rounds in
  Obs.add st.u "heap_peak_mb" (float_of_int (st.heap_peak_words * (Sys.word_size / 8)) /. 1e6);
  let fixed =
    [
      ("host_cores", float_of_int host_cores);
      ( "pool.jobs",
        float_of_int (match workload with Restart_recovery -> recovery_jobs | Cross_shard -> shards | _ -> 1) );
      ("shard.domains", float_of_int (if workload = Cross_shard then shards else 1));
      ("shard.oversubscribed", if domains > host_cores then 1.0 else 0.0);
    ]
  in
  let src = if trace then st.t else st.u in
  List.iter (fun (k, v) -> Obs.add src k v) fixed;
  if trace then begin
    Obs.add st.t "trace.overhead_frac" (1.0 -. (Obs.median st.t "txn_per_s" /. Obs.median st.u "txn_per_s"));
    if workload = Restart_recovery then begin
      let crash = Obs.median st.t "recovery_ms" in
      let residual = crash -. Obs.median st.t "replay.sum_ms" in
      Obs.add st.t "replay.residual_ms" residual;
      Obs.add st.t "replay.residual_frac" (residual /. crash)
    end
  end;
  let e2e =
    List.map
      (fun (k, unit) ->
        if not (Obs.mem st.u k) then failwith ("perfbench: no samples for " ^ k);
        (* Model outputs carry no timing noise; their mean over the
           rounds' batches is not quantized like one run's histogram
           percentile. *)
        let v = if String.starts_with ~prefix:"sim_" k then Obs.mean st.u k else Obs.median st.u k in
        (k, v, unit))
      end_to_end
  in
  let layers = List.map (fun (k, unit) -> (k, Obs.median src k, unit)) per_layer in
  let checks =
    if not trace then []
    else if workload = Restart_recovery then
      [ ("replay_residual", Float.abs (Obs.median st.t "replay.residual_frac") <= replay_residual_tolerance) ]
    else [ ("layer_sum", Obs.max st.t "trace.layer_sum_err_frac" <= layer_sum_tolerance) ]
  in
  {
    config;
    attempted = st.attempted;
    failed = st.failed;
    checks;
    e2e;
    layers;
  }
