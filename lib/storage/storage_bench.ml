(* Storage-half throughput measurements.  Pure library code: the caller
   supplies the clock (bench/main and dbmsim pass Unix.gettimeofday), so
   dbm_storage itself needs no unix dependency.

   Each section measures, then hands back its lines of the report, its
   fields of the storage JSON object and its gate rows; nothing outside
   this file knows a field or a threshold. *)

module Json = Dbm_util.Json

type kind = Check | Floor

type row = { kind : kind; name : string; held : bool; detail : string }

type section = { report : string; fields : (string * Json.t) list; rows : row list }

type t = { scale : int; sections : section list }

(* One measured point of a sweep as its section consumes it: its report
   text, its JSON entry and the values the section's summary and rows
   read. *)
type 'v point = { text : string; json : Json.t; v : 'v }

let texts points = String.concat "" (List.map (fun p -> p.text) points)

let jsons points = Json.List (List.map (fun p -> p.json) points)

let row kind name held fmt = Printf.ksprintf (fun detail -> { kind; name; held; detail }) fmt

let check name held fmt = row Check name held fmt

let floor name held fmt = row Floor name held fmt

let finite xs = List.for_all Float.is_finite xs

let positive xs = List.for_all (fun v -> Float.is_finite v && v > 0.) xs

let time now f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- shared workload ------------------------------------------------ *)

let value = "value-0123456789abcdef"

module W = Dbm_workload.Workload
module Hist = Dbm_util.Stats.Histogram

(* One key per referenced page, so lock conflicts stay at the paper's
   page granule. *)
let scripts_of txns =
  Array.map
    (fun t ->
      List.init (Array.length t.W.pages) (fun i ->
          let k = t.W.pages.(i) * 4 in
          if t.W.writes.(i) then Scheduler.Put (k, value) else Scheduler.Get k))
    txns

let random_access_pages = 1024

let random_access_txns ~n ~seed =
  W.generate
    {
      W.n_transactions = n;
      min_pages = 2;
      max_pages = 8;
      write_fraction = 0.7;
      pattern = W.Random_access;
      db_pages = random_access_pages;
      seed;
    }

(* The committed data, as data: a digest of every key's value read
   through [get].  Every put writes the one constant [value], so any
   serializable execution of the same transactions scans identically
   after crash recovery, whatever its commit order. *)
let scan_digest ~n_keys get =
  let d = Dbm_util.Digest.create () in
  for k = 0 to n_keys - 1 do
    Dbm_util.Digest.int d k;
    match get k with
    | Some v ->
      Dbm_util.Digest.int d 1;
      Dbm_util.Digest.string d v
    | None -> Dbm_util.Digest.int d 0
  done;
  Dbm_util.Digest.hex d

(* Open-loop Poisson arrival instants in microseconds, seeded per point. *)
let poisson_arrivals_us ~seed ~rate ~n =
  let rng = Dbm_util.Prng.create seed in
  Array.map (fun s -> s *. 1e6) (W.gen_arrival_times rng (W.Poisson { rate }) ~n)

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

let sched_section ~now ~scale =
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
  let naive_ms = naive_s *. 1000. and opt_ms = opt_s *. 1000. in
  let speedup = if opt_ms > 0. then naive_ms /. opt_ms else infinity in
  {
    report =
      Printf.sprintf
        "contended scheduler (%d scripts): polling %.2f ms -> wakeup %.2f ms (%.1fx, reports %s)\n"
        scripts naive_ms opt_ms speedup
        (if equivalent then "identical" else "DIVERGED");
    fields =
      Json.
        [
          ("sched_contended_scripts", Int scripts);
          ("sched_naive_wall_ms", Float naive_ms);
          ("sched_opt_wall_ms", Float opt_ms);
          ("sched_speedup", Float speedup);
          ("sched_reports_equivalent", Bool equivalent);
        ];
    rows =
      [
        check "sched.equivalent" equivalent
          "wakeup scheduler report diverged from the polling reference";
        check "sched.measured" (finite [ naive_ms; opt_ms; speedup ])
          "scheduler walls or speedup not finite";
        floor "sched.speedup" (speedup >= 5.0) "contended speedup %.2fx below the 5x floor"
          speedup;
      ];
  }

(* --- per-engine committed-txns/sec under the 2PL scheduler ---------- *)

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

(* [v]: both rates came back finite. *)
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
  {
    text =
      Printf.sprintf "  %-22s %10.0f | %10.0f  (%d restarts)\n" E.engine_name low_tps high_tps
        high_restarts;
    json =
      Json.(
        Obj
          [
            ("engine", String E.engine_name);
            ("low_tps", Float low_tps);
            ("low_restarts", Int low_restarts);
            ("high_tps", Float high_tps);
            ("high_restarts", Int high_restarts);
          ]);
    v = finite [ low_tps; high_tps ];
  }

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

let engines_section ~now ~scale =
  let measured = List.map (fun e -> bench_engine e ~now ~rounds:(20 * scale)) all_engines in
  let count = List.length measured in
  {
    report = "committed txns/sec (low | high contention):\n" ^ texts measured;
    fields = [ ("engines", jsons measured) ];
    rows =
      [
        check "engines.complete" (count >= 6) "per-engine table has %d engines, below 6" count;
        check "engines.measured"
          (List.for_all (fun p -> p.v) measured)
          "an engine's low or high tps is not finite";
      ];
  }

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

(* The linearity ratio wall(2L)/wall(L) is a gate, so it must not
   wobble with whatever heap and machine state earlier bench sections
   left behind.  Both engines are built first, the heap is compacted
   once, and the two log lengths are then timed in alternation — any
   remaining distortion hits both measurements alike and cancels in the
   ratio.  Best of five: recovery leaves the journal intact, so repeated
   crash-and-recover runs measure the same work. *)
let recovery_length_section ~now ~txns =
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
  let wall_l = !best_l *. 1000. and wall_2l = !best_2l *. 1000. in
  let ratio = if wall_l > 0. then wall_2l /. wall_l else infinity in
  {
    report =
      Printf.sprintf "recovery: %d records %.2f ms; %d records %.2f ms (ratio %.2f)\n" records_l
        wall_l records_2l wall_2l ratio;
    fields =
      Json.
        [
          ("recovery_txns_l", Int txns);
          ("recovery_records_l", Int records_l);
          ("recovery_wall_l_ms", Float wall_l);
          ("recovery_records_2l", Int records_2l);
          ("recovery_wall_2l_ms", Float wall_2l);
          ("recovery_wall_ratio", Float ratio);
        ];
    rows =
      [
        check "recovery.measured" (finite [ wall_l; wall_2l; ratio ])
          "recovery walls or their ratio not finite";
        floor "recovery.linear" (ratio <= 2.5)
          "recovery superlinear: 2L/L wall ratio %.2f above 2.5" ratio;
      ];
  }

(* --- parallel recovery and fuzzy checkpoints ------------------------ *)

module Pool = Dbm_util.Pool

(* What a timed recovery and the log-format head-to-head need from an
   engine; Engine_log (under either log format) and Engine_oplog both
   satisfy it. *)
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

(* Best-of-five crash-and-recover wall; recovery leaves the durable
   journal intact, so repeated runs measure the same work.  Returns the
   wall and the post-recovery fingerprint for the equivalence check. *)
let timed_recovery (type a) (module E : FORMAT_ENGINE with type t = a) ~now (e : a) =
  let best = ref infinity in
  for _ = 1 to 5 do
    let (), w = time now (fun () -> E.crash_and_recover e) in
    if w < !best then best := w
  done;
  (!best *. 1000., E.state_fingerprint e)

(* The domain counts a recovery curve actually runs: the request list
   plus the jobs = 1 baseline, capped at the host's cores unless
   oversubscription is allowed, with a 2-domain stand-in when nothing
   parallel survives (1-core hosts) — mirroring the table-regeneration
   fallback in bench/main. *)
let kept_jobs ~jobs ~allow_oversubscribe =
  let host = Pool.default_jobs () in
  let requested = List.sort_uniq Int.compare (1 :: jobs) in
  let kept =
    if allow_oversubscribe then requested
    else List.filter (fun j -> j <= host) requested
  in
  if List.exists (fun j -> j > 1) kept then kept else kept @ [ 2 ]

(* One fixed uncheckpointed log replayed at each domain count; every
   point's restart state must fingerprint-equal the serial reference
   replay (Naive.Log_replay), which is measured first on the same
   engine.  Returns (jobs, oversubscribed, wall ms, equivalent) per
   point and the log's durable record count. *)
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
        let wall_ms, fp = timed_recovery (module Engine_log) ~now t in
        Engine_log.set_recovery_pool t None;
        Option.iter Pool.shutdown pool;
        (j, j > host, wall_ms, String.equal fp ref_fp))
      kept
  in
  (points, durable_records t)

(* Same committed work at every point; only where (and whether) the
   fuzzy checkpoint record sits in the log varies.  Replay is serial
   (no pool), so any saving is the skipped prefix — the records before
   the checkpoint's start LSN that recovery never decodes — and not
   parallelism.  Each point's restart state is fingerprint-checked
   against the from-zero serial reference on the same engine.  Returns
   (fraction, records, wall ms, equivalent) per point. *)
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
  List.map
    (fun (frac, t) ->
      let wall_ms, fp = timed_recovery (module Engine_log) ~now t in
      Engine_log.crash_and_recover_reference t;
      (frac, durable_records t, wall_ms, String.equal fp (Engine_log.state_fingerprint t)))
    engines

let identical ok what = if ok then "state identical to " ^ what else "STATE DIVERGED"

let recovery_parallel_section ~now ~jobs ~allow_oversubscribe ~txns =
  let by_jobs, records = recovery_vs_jobs ~now ~jobs ~allow_oversubscribe ~txns in
  let by_age = recovery_vs_checkpoint_age ~now ~txns in
  let serial = List.fold_left (fun acc (j, _, w, _) -> if j = 1 then w else acc) nan by_jobs in
  let best_parallel =
    List.fold_left (fun acc (j, _, w, _) -> if j > 1 then Float.min acc w else acc) infinity by_jobs
  in
  let wall_at f = List.fold_left (fun acc (f', _, w, _) -> if f' = f then w else acc) nan by_age in
  let parallel_speedup = serial /. best_parallel in
  let ckpt_speedup = wall_at 0.0 /. wall_at 0.9 in
  let equivalent =
    List.for_all (fun (_, _, _, eq) -> eq) by_jobs && List.for_all (fun (_, _, _, eq) -> eq) by_age
  in
  (* parallel replay must not lose to serial where each domain had a core *)
  let slower =
    List.filter (fun (j, over, w, _) -> j > 1 && (not over) && not (w <= serial)) by_jobs
  in
  let walls = List.map (fun (_, _, w, _) -> w) by_jobs @ List.map (fun (_, _, w, _) -> w) by_age in
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.bprintf buf fmt in
  pr "parallel recovery (%d records):\n" records;
  List.iter
    (fun (j, over, w, eq) ->
      pr "  %d job%s%s %8.2f ms  (%s)\n" j
        (if j > 1 then "s" else " ")
        (if over then " [oversubscribed]" else "")
        w
        (identical eq "serial reference"))
    by_jobs;
  pr "  best parallel speedup over serial: %.2fx\n" parallel_speedup;
  pr "fuzzy-checkpointed recovery (serial replay, same committed work):\n";
  List.iter
    (fun (f, recs, w, eq) ->
      pr "  checkpoint after %3.0f%% of commits: %7d records %8.2f ms  (%s)\n" (100. *. f) recs w
        (identical eq "full replay"))
    by_age;
  pr "  newest checkpoint vs full replay: %.2fx cheaper\n" ckpt_speedup;
  {
    report = Buffer.contents buf;
    fields =
      Json.
        [
          ( "recovery_jobs",
            List
              (List.map
                 (fun (j, over, w, eq) ->
                   Obj
                     [
                       ("jobs", Int j);
                       ("oversubscribed", Bool over);
                       ("wall_ms", Float w);
                       ("equivalent", Bool eq);
                     ])
                 by_jobs) );
          ("recovery_parallel_speedup", Float parallel_speedup);
          ( "recovery_checkpoint",
            List
              (List.map
                 (fun (f, recs, w, eq) ->
                   Obj
                     [
                       ("fraction", Float f);
                       ("records", Int recs);
                       ("wall_ms", Float w);
                       ("equivalent", Bool eq);
                     ])
                 by_age) );
          ("recovery_checkpoint_speedup", Float ckpt_speedup);
          ("recovery_equivalent", Bool equivalent);
        ];
    rows =
      [
        check "recovery.equivalent" equivalent
          "parallel/checkpointed recovery state diverged from the serial reference";
        check "recovery.jobs_curve"
          (List.length by_jobs >= 2)
          "recovery-vs-jobs curve has %d points, below 2" (List.length by_jobs);
        check "recovery.checkpoint_curve"
          (List.length by_age >= 3)
          "recovery-vs-checkpoint-age curve has %d points, below 3" (List.length by_age);
        check "recovery.point_walls" (positive walls)
          "a recovery point's wall is not finite and positive";
        floor "recovery.parallel_not_slower" (slower = [])
          "parallel recovery slower than serial (%.2f ms) at %s" serial
          (String.concat ", "
             (List.map (fun (j, _, w, _) -> Printf.sprintf "%d jobs (%.2f ms)" j w) slower));
        floor "recovery.checkpoint_speedup" (ckpt_speedup >= 1.5)
          "fuzzy checkpoint saved too little: %.2fx below the 1.5x floor" ckpt_speedup;
      ];
  }

(* --- log formats: physical vs delta vs operation logging ------------ *)

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

(* [v]: the format's log bytes per committed txn, whether every
   recovered fingerprint (serial and at each job count) matched the
   reference, and whether its measurements came back finite and
   positive. *)
let format_point (type a) (module E : FORMAT_ENGINE with type t = a) ~now ~name ~txns
    ~par_jobs ~ref_fp (e : a) =
  Gc.compact ();
  let (), load_s = time now (fun () -> load_format (module E) e ~txns) in
  let records = E.records_logged e in
  let bytes = E.log_bytes e in
  let serial_ms, serial_fp = timed_recovery (module E) ~now e in
  let par =
    List.map
      (fun j ->
        let pool = Pool.create ~jobs:j ~allow_oversubscribe:true () in
        E.set_recovery_pool e (Some pool);
        let ms, fp = timed_recovery (module E) ~now e in
        E.set_recovery_pool e None;
        Pool.shutdown pool;
        (ms, fp))
      par_jobs
  in
  let bytes_per_txn = float_of_int bytes /. float_of_int txns in
  (* the whole append path (page update, diff/encode, journal append,
     commit force) over records logged, not the codec alone *)
  let append_ns = load_s *. 1e9 /. float_of_int (max 1 records) in
  let parallel_ms = List.fold_left (fun acc (ms, _) -> Float.min acc ms) infinity par in
  let equivalent =
    String.equal serial_fp ref_fp && List.for_all (fun (_, fp) -> String.equal fp ref_fp) par
  in
  {
    text =
      Printf.sprintf
        "  %-9s %8d records %10d bytes  %8.1f B/txn  append %7.0f ns/rec  replay %7.2f ms \
         serial, %7.2f ms parallel  (%s)\n"
        name records bytes bytes_per_txn append_ns serial_ms parallel_ms
        (identical equivalent "physical reference");
    json =
      Json.(
        Obj
          [
            ("format", String name);
            ("committed_txns", Int txns);
            ("records", Int records);
            ("log_bytes", Int bytes);
            ("log_bytes_per_txn", Float bytes_per_txn);
            ("append_ns_per_record", Float append_ns);
            ("replay_wall_ms", Float serial_ms);
            ("replay_parallel_ms", Float parallel_ms);
            ("equivalent", Bool equivalent);
          ]);
    v = (bytes_per_txn, equivalent, positive [ bytes_per_txn; append_ns; serial_ms ]);
  }

let known_formats = [ "physical"; "delta"; "oplog" ]

let log_format_section ~now ~jobs ~allow_oversubscribe ~formats ~txns =
  let want f = List.mem f formats in
  let par_jobs = List.filter (fun j -> j > 1) (kept_jobs ~jobs ~allow_oversubscribe) in
  (* The cross-format reference: the physical engine's serial reference
     replay (Naive.Log_replay) on the same workload. *)
  let ref_fp =
    let t = load_log_engine ~txns () in
    Engine_log.crash_and_recover_reference t;
    Engine_log.state_fingerprint t
  in
  let point (type a) (module E : FORMAT_ENGINE with type t = a) name (e : a) =
    format_point (module E) ~now ~name ~txns ~par_jobs ~ref_fp e
  in
  let physical = point (module Engine_log) "physical" (Engine_log.create_with ~n_keys:256 ()) in
  let delta =
    if not (want "delta") then None
    else
      Some
        (point (module Engine_log) "delta"
           (Engine_log.create_with ~n_keys:256 ~log_format:Engine_log.Delta ()))
  in
  let oplog =
    if not (want "oplog") then None
    else Some (point (module Engine_oplog) "oplog" (Engine_oplog.create_with ~n_keys:256 ()))
  in
  (* A format the caller excluded scores [infinity]: "no bytes spent". *)
  let physical_bpt, _, _ = physical.v in
  let reduction = function
    | Some { v = bpt, _, _; _ } when bpt > 0. -> physical_bpt /. bpt
    | Some _ | None -> infinity
  in
  let delta_reduction = reduction delta and oplog_reduction = reduction oplog in
  let points = physical :: List.filter_map Fun.id [ delta; oplog ] in
  let equivalent = List.for_all (fun { v = _, eq, _; _ } -> eq) points in
  {
    report =
      Printf.sprintf "log formats (same committed workload; %d txns):\n" txns
      ^ texts points
      ^ Printf.sprintf "  log volume reduction over physical: delta %.1fx, oplog %.1fx\n"
          delta_reduction oplog_reduction;
    fields =
      Json.
        [
          ("log_formats", jsons points);
          ("log_delta_reduction", Float delta_reduction);
          ("log_oplog_reduction", Float oplog_reduction);
          ("log_format_equivalent", Bool equivalent);
        ];
    rows =
      [
        check "log.equivalent" equivalent
          "a log format recovered to different state than the physical reference";
        check "log.measured"
          (List.for_all (fun { v = _, _, ok; _ } -> ok) points)
          "a log format's bytes/txn, append ns/record or serial replay wall is not finite and \
           positive";
        floor "log.formats"
          (List.length points >= 3)
          "log-format head-to-head has %d formats, below 3" (List.length points);
        (* the slimmer format must actually shrink the log *)
        floor "log.delta_reduction" (delta_reduction >= 2.0)
          "delta log reduction %.2fx below the 2x floor" delta_reduction;
      ];
  }

(* --- open-loop server: group commit vs per-transaction sync --------- *)

module type SERVER_ENGINE = sig
  include Server.ENGINE

  val state_fingerprint : t -> string
end

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

(* [v]: the engine's grouped/eager speedup, its equivalence check, its
   sweep length, and whether every sweep point's latency percentiles
   came back finite and positive, and monotone. *)
let server_bench_engine (type a) (module E : SERVER_ENGINE with type t = a) ~loads ~n ~seed =
  let module Srv = Server.Make (E) in
  let scripts = scripts_of (random_access_txns ~n ~seed) in
  let arrivals rate = poisson_arrivals_us ~seed:(seed + int_of_float rate) ~rate ~n in
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
        let h = r.Server.latency_us in
        let p50 = Hist.p50 h and p99 = Hist.p99 h and p999 = Hist.p999 h in
        {
          text =
            Printf.sprintf
              "    offered %8.0f tps -> sustained %8.0f tps  p50 %8.1f us  p99 %9.1f us  p999 \
               %9.1f us  (%d forces, %d restarts, queue peak %d)\n"
              rate r.Server.sustained_tps p50 p99 p999 r.Server.forces r.Server.restarts
              r.Server.max_queued;
          json =
            Json.(
              Obj
                [
                  ("offered_tps", Float rate);
                  ("sustained_tps", Float r.Server.sustained_tps);
                  ("completed", Int r.Server.completed);
                  ("p50_us", Float p50);
                  ("p99_us", Float p99);
                  ("p999_us", Float p999);
                  ("mean_us", Float (Hist.mean h));
                  ("max_us", Float (Hist.max h));
                  ("restarts", Int r.Server.restarts);
                  ("forces", Int r.Server.forces);
                  ("max_queued", Int r.Server.max_queued);
                ]);
          v = (positive [ p50; p99; p999 ], p50 <= p99 && p99 <= p999);
        })
      loads
  in
  let top = List.fold_left Float.max 0.0 loads in
  let eager = point ~mode:Commit_pipeline.Eager top in
  let grouped = point ~mode:grouped_mode top in
  let eager_tps = eager.Server.sustained_tps and grouped_tps = grouped.Server.sustained_tps in
  let speedup = if eager_tps > 0. then grouped_tps /. eager_tps else infinity in
  let eager_p99 = Hist.p99 eager.Server.latency_us in
  let grouped_p99 = Hist.p99 grouped.Server.latency_us in
  let equivalent = grouped_equivalent (module E) in
  {
    text =
      Printf.sprintf "  %s:\n" E.engine_name
      ^ texts sweep
      ^ Printf.sprintf
          "    top load head-to-head: eager %8.0f tps (p99 %9.1f us) -> grouped %8.0f tps \
           (p99 %9.1f us)  %.1fx, recovery %s\n"
          eager_tps eager_p99 grouped_tps grouped_p99 speedup
          (if equivalent then "equivalent" else "DIVERGED");
    json =
      Json.(
        Obj
          [
            ("engine", String E.engine_name);
            ("sweep", jsons sweep);
            ("eager_tps", Float eager_tps);
            ("grouped_tps", Float grouped_tps);
            ("group_commit_speedup", Float speedup);
            ("eager_p99_us", Float eager_p99);
            ("grouped_p99_us", Float grouped_p99);
            ("equivalent", Bool equivalent);
          ]);
    v =
      ( speedup,
        equivalent,
        List.length sweep,
        List.for_all (fun { v = ok, _; _ } -> ok) sweep,
        List.for_all (fun { v = _, ok; _ } -> ok) sweep );
  }

(* Offered loads spanning both engines' saturation points: eager
   capacity is ~1/(sync + ops) ~ 9k tps, grouped ~1/(ops + sync/batch)
   — the top points drive both pipelines well past saturation. *)
let server_loads = [ 2_000.0; 10_000.0; 40_000.0; 160_000.0; 400_000.0 ]

(* The logging engine on the slimmed (delta) log: the server sweep
   re-run over far fewer log bytes per commit. *)
module Engine_log_delta = struct
  include Engine_log

  let engine_name = "logging-delta"

  let create ?n_keys () = create_with ?n_keys ~log_format:Delta ()
end

let server_section ~scale =
  let n = 800 * scale and seed = 20_250 in
  let bench (module E : SERVER_ENGINE) =
    server_bench_engine (module E) ~loads:server_loads ~n ~seed
  in
  let engines =
    List.map bench
      [ (module Engine_log : SERVER_ENGINE); (module Engine_log_delta); (module Engine_diff) ]
  in
  let speedup =
    List.fold_left (fun acc { v = s, _, _, _, _; _ } -> Float.min acc s) infinity engines
  in
  let equivalent = List.for_all (fun { v = _, eq, _, _, _; _ } -> eq) engines in
  let count = List.length engines in
  {
    report =
      "open-loop server (simulated time, group commit, mpl 64):\n"
      ^ texts engines
      ^ Printf.sprintf "  worst grouped/eager speedup across engines: %.2fx\n" speedup;
    fields =
      Json.
        [
          ("server", jsons engines);
          ("server_group_commit_speedup", Float speedup);
          ("server_equivalent", Bool equivalent);
        ];
    rows =
      [
        check "server.equivalent" equivalent
          "grouped-commit recovered state diverged from the eager reference";
        check "server.engines" (count >= 2) "server sweep has %d engines, below 2" count;
        check "server.sweep"
          (List.for_all (fun { v = _, _, loads, _, _; _ } -> loads >= 3) engines)
          "an engine's server sweep has fewer than 3 points";
        check "server.percentiles_finite"
          (List.for_all (fun { v = _, _, _, ok, _; _ } -> ok) engines)
          "a server sweep point's p50, p99 or p999 is not finite and positive";
        check "server.percentiles_monotone"
          (List.for_all (fun { v = _, _, _, _, ok; _ } -> ok) engines)
          "a server sweep point's percentiles are not monotone (p50 <= p99 <= p999)";
        (* group commit is only worth its durability window if it buys
           real throughput *)
        floor "server.group_commit_speedup" (speedup >= 2.0)
          "group-commit speedup %.2fx below the 2x floor" speedup;
      ];
  }

(* --- MVCC snapshot reads: read-heavy head-to-head ------------------- *)

(* What the read-heavy sweep needs: a {!Server.ENGINE} that can also pin
   MVCC snapshots.  Engine_diff, Engine_versel and Engine_oplog all
   satisfy it. *)
module type SNAPSHOT_SERVER_ENGINE = sig
  include Kv.SNAPSHOT

  val commit_group : txn -> unit

  val force_commits : t -> unit
end

let snapshot_engines : (module SNAPSHOT_SERVER_ENGINE) list =
  [ (module Engine_diff); (module Engine_versel); (module Engine_oplog) ]

(* Zipfian-page transactions with a read-only class carved out: each
   transaction's whole write set is cleared with probability
   [read_frac].  One key per referenced page keeps conflicts at the
   page granule; the heavy-tail variant draws Pareto sizes (mostly
   small, occasionally huge transaction mixes). *)
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
  (scripts_of txns, Array.map (fun t -> W.write_set_size t = 0) txns)

(* Crash-recover, then scan through one fresh transaction: the three
   lock modes must scan identically — unlike the engines'
   [state_fingerprint]s, whose counters legitimately differ across
   modes. *)
let read_scan_digest (type a) (module E : SNAPSHOT_SERVER_ENGINE with type t = a) (e : a) =
  E.crash_and_recover e;
  let txn = E.begin_txn e in
  let digest = scan_digest ~n_keys:(E.max_keys e) (E.get txn) in
  E.abort txn;
  digest

let pctl h p = if Hist.count h = 0 then 0.0 else Hist.percentile h ~p

let read_modes = [ "xlock"; "slock"; "snapshot" ]

(* One server run of the workload under one read-lock regime, through
   the eager (per-commit-force) pipeline: in the locked modes {e every}
   transaction — read-only ones included — appends a commit record and
   pays the force; the snapshot read-only class has nothing to make
   durable and bypasses the pipeline, which together with the absent
   lock waits is where its throughput headroom comes from.  [v]: the
   sustained tps, the read-only restarts, the post-crash scan digest
   and whether every snapshot view was closed by the end. *)
let read_mode_run (type a) (module E : SNAPSHOT_SERVER_ENGINE with type t = a) ~mode_name
    ~arrivals_us ~scripts ~read_only =
  let module Srv = Server.Make (E) in
  let e = E.create ~n_keys:1024 () in
  let snapshot =
    if String.equal mode_name "snapshot" then Some (Scheduler.snapshot_view (module E) e)
    else None
  in
  let read_mode = if String.equal mode_name "xlock" then Some Lock_mgr.X else None in
  let r =
    Srv.run ?snapshot ?read_mode ~read_only ~mpl:64 ~op_cost_us:1.0 ~sync_cost_us:100.0
      ~mode:Commit_pipeline.Eager ~arrivals_us ~scripts e
  in
  let leaked = E.live_snapshots e in
  let ro = r.Server.ro_latency_us and rw = r.Server.rw_latency_us in
  let digest = read_scan_digest (module E) e in
  {
    text =
      Printf.sprintf
        "      %-8s %8.0f tps  %6d locks  %3d restarts (%d ro)  ro p50/p99 %8.1f/%9.1f us  rw \
         p50/p99 %8.1f/%9.1f us\n"
        mode_name r.Server.sustained_tps r.Server.lock_acquires r.Server.restarts
        r.Server.ro_restarts (pctl ro 50.0) (pctl ro 99.0) (pctl rw 50.0) (pctl rw 99.0);
    json =
      Json.(
        Obj
          [
            ("mode", String mode_name);
            ("sustained_tps", Float r.Server.sustained_tps);
            ("restarts", Int r.Server.restarts);
            ("ro_restarts", Int r.Server.ro_restarts);
            ("lock_acquires", Int r.Server.lock_acquires);
            ("ro_p50_us", Float (pctl ro 50.0));
            ("ro_p99_us", Float (pctl ro 99.0));
            ("rw_p50_us", Float (pctl rw 50.0));
            ("rw_p99_us", Float (pctl rw 99.0));
          ]);
    v = (r.Server.sustained_tps, r.Server.ro_restarts, digest, leaked = 0);
  }

(* What the read-heavy section reads of one read-fraction point. *)
type read_point = {
  read_frac : float;
  heavy : bool;
  speedup : float;  (* snapshot tps over xlock tps *)
  equivalent : bool;  (* post-crash scans equal across modes, no leaked view *)
  snapshot_ro_restarts : int;
  tps_positive : bool;  (* every mode's tps finite and > 0 *)
  modes : string list;
}

let read_frac_point (module E : SNAPSHOT_SERVER_ENGINE) ~n ~seed ~read_frac ~heavy =
  let scripts, read_only = read_heavy_scripts ~n ~seed ~read_frac ~heavy in
  (* Offered load well above the eager baseline's ~9.5k tps capacity
     (one 100 µs force per commit), so the locked modes are
     capacity-bound and sustained tps measures capacity, not the
     arrival rate. *)
  let arrivals_us =
    poisson_arrivals_us ~seed:(seed + int_of_float (read_frac *. 1000.0)) ~rate:160_000.0 ~n
  in
  let runs =
    List.map
      (fun mode_name ->
        (mode_name, read_mode_run (module E) ~mode_name ~arrivals_us ~scripts ~read_only))
      read_modes
  in
  let points = List.map snd runs in
  let xlock_tps, _, _, _ = (List.assoc "xlock" runs).v in
  let snapshot_tps, snapshot_ro_restarts, _, _ = (List.assoc "snapshot" runs).v in
  let speedup = if xlock_tps > 0. then snapshot_tps /. xlock_tps else infinity in
  let digests = List.map (fun { v = _, _, digest, _; _ } -> digest) points in
  let equivalent =
    List.for_all (String.equal (List.hd digests)) digests
    && List.for_all (fun { v = _, _, _, closed; _ } -> closed) points
  in
  {
    text =
      Printf.sprintf "    read fraction %.2f%s:\n" read_frac
        (if heavy then " [Pareto sizes]" else "")
      ^ texts points
      ^ Printf.sprintf "      snapshot over xlock: %.2fx, recovered scans %s\n" speedup
          (if equivalent then "identical across modes" else "DIVERGED");
    json =
      Json.(
        Obj
          [
            ("read_frac", Float read_frac);
            ("heavy_tail", Bool heavy);
            ("modes", jsons points);
            ("snapshot_speedup", Float speedup);
            ("equivalent", Bool equivalent);
          ]);
    v =
      {
        read_frac;
        heavy;
        speedup;
        equivalent;
        snapshot_ro_restarts;
        tps_positive = positive (List.map (fun { v = t, _, _, _; _ } -> t) points);
        modes = List.map fst runs;
      };
  }

(* The gate point: among an engine's uniform-size points, the one
   closest to read fraction 0.9 (exactly 0.9 on default sweeps). *)
let gate_speedup points =
  snd
    (List.fold_left
       (fun (d, sp) { v = p; _ } ->
         let d' = Float.abs (p.read_frac -. 0.9) in
         if (not p.heavy) && d' < d then (d', p.speedup) else (d, sp))
       (infinity, infinity) points)

let read_heavy_section ~scale ~read_fracs =
  let n = 400 * scale and seed = 90_125 in
  let engines =
    List.map
      (fun (module E : SNAPSHOT_SERVER_ENGINE) ->
        let point = read_frac_point (module E) ~n ~seed in
        ( E.engine_name,
          List.map (fun rf -> point ~read_frac:rf ~heavy:false) read_fracs
          @ [ point ~read_frac:0.9 ~heavy:true ] ))
      snapshot_engines
  in
  let all = List.concat_map (fun (_, ps) -> List.map (fun p -> p.v) ps) engines in
  let speedup =
    List.fold_left (fun acc (_, ps) -> Float.min acc (gate_speedup ps)) infinity engines
  in
  let ro_restarts = List.fold_left (fun acc p -> acc + p.snapshot_ro_restarts) 0 all in
  let equivalent = List.for_all (fun p -> p.equivalent) all in
  let count = List.length engines in
  {
    report =
      "read-heavy snapshot sweep (eager commits, Zipfian pages, simulated time):\n"
      ^ String.concat ""
          (List.map (fun (name, ps) -> Printf.sprintf "  %s:\n" name ^ texts ps) engines)
      ^ Printf.sprintf
          "  worst snapshot/xlock speedup near read fraction 0.9: %.2fx (%d ro restarts on the \
           snapshot path)\n"
          speedup ro_restarts;
    fields =
      Json.
        [
          ( "read_heavy",
            List
              (List.map
                 (fun (name, ps) -> Obj [ ("engine", String name); ("points", jsons ps) ])
                 engines) );
          ("read_snapshot_speedup", Float speedup);
          ("read_ro_restarts", Int ro_restarts);
          ("read_equivalent", Bool equivalent);
        ];
    rows =
      [
        check "read.equivalent" equivalent
          "a read-lock regime recovered to different data than its peers";
        check "read.ro_restarts" (ro_restarts = 0)
          "%d read-only restarts on the snapshot path (must be 0)" ro_restarts;
        check "read.engines" (count >= 3) "snapshot sweep has %d engines, below 3" count;
        check "read.heavy_tail"
          (List.for_all (fun (_, ps) -> List.exists (fun p -> p.v.heavy) ps) engines)
          "an engine's snapshot sweep lacks the Pareto-size point";
        check "read.modes"
          (List.for_all (fun p -> p.modes = read_modes) all)
          "a snapshot-sweep point lacks one of the xlock, slock and snapshot modes";
        check "read.tps"
          (List.for_all (fun p -> p.tps_positive) all)
          "a read mode's sustained tps is not finite and positive";
        floor "read.points"
          (List.for_all (fun (_, ps) -> List.length ps >= 4) engines)
          "an engine's snapshot sweep has fewer than 4 points";
        (* the snapshot path must beat the lock-everything baseline on
           read-heavy load *)
        floor "read.snapshot_speedup" (speedup >= 2.0)
          "snapshot read speedup %.2fx below the 2x floor" speedup;
      ];
  }

(* --- sharded multicore execution: tps vs shards, cross-shard 2PC ---- *)

module Sharded_log = Shard.Make (Engine_log)
module Serial_log = Server.Make (Engine_log)

let shard_n_keys = random_access_pages * 4 (* 4 keys per page *)

(* Workload with an exact cross-shard fraction carved against the {e
   top} shard count's router.  The router's class at [top] refines its
   class at every divisor (x mod 2 is determined by x mod 4), so when
   the swept counts all divide the top one, a zero-cross workload stays
   single-shard at {e every} count — the fully-parallel regime the
   scaling gate measures. *)
let shard_scripts ~n ~seed ~cross_frac ~top =
  let rng = Dbm_util.Prng.create (seed lxor 0xc105) in
  scripts_of
    (W.apply_cross_fraction rng ~cross_frac ~classes:top
       ~class_of:(fun p -> Shard_router.shard_of_page ~shards:top p)
       ~db_pages:random_access_pages (random_access_txns ~n ~seed))

(* Each key read from its home shard: the cross-shard-count and
   cross-fraction equality gate. *)
let shard_scan_digest ~shards engines =
  let keys_per_page = Engine_log.keys_per_page engines.(0) in
  scan_digest ~n_keys:shard_n_keys (fun k ->
      let t = Engine_log.begin_txn engines.(Shard_router.shard_of_key ~shards ~keys_per_page k) in
      let v = Engine_log.get t k in
      Engine_log.abort t;
      v)

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
  (* Offered load far above a single serial server's capacity, so tps
     measures capacity and the shard sweep exposes the parallel
     headroom.  Simulated time: the curve is machine-independent. *)
  let arrivals_us = poisson_arrivals_us ~seed:(seed + 77) ~rate:400_000.0 ~n in
  (* tps vs shard count on the zero-cross workload; [v]: shard count,
     oversubscribed, sustained tps, equivalent *)
  let scripts0 = shard_scripts ~n ~seed ~cross_frac:0.0 ~top in
  let direct, direct_fingerprint, reference =
    shard_serial_reference ~arrivals_us ~scripts:scripts0
  in
  let points =
    List.map
      (fun shards ->
        let r, fingerprint, digest, in_doubt = shard_run ~shards ~arrivals_us ~scripts:scripts0 in
        let p99 = Hist.p99 r.Shard.latency_us in
        (* vacuously true at counts other than 1 *)
        let serial_identical =
          shards <> 1 || shard_serial_identical r fingerprint direct direct_fingerprint
        in
        let scan_equal = String.equal digest reference in
        {
          text =
            Printf.sprintf
              "  %d shard%s%s %8.0f tps  makespan %10.0f us  p99 %9.1f us  (%d restarts, %d in \
               doubt, scan %s%s)\n"
              shards
              (if shards > 1 then "s" else " ")
              (if r.Shard.oversubscribed then " [oversubscribed]" else "")
              r.Shard.sustained_tps r.Shard.makespan_us p99 r.Shard.restarts in_doubt
              (if scan_equal then "identical" else "DIVERGED")
              (if shards = 1 then
                 if serial_identical then ", bit-identical to Server.run" else ", SERIAL DRIFT"
               else "");
          json =
            Json.(
              Obj
                [
                  ("shards", Int shards);
                  ("oversubscribed", Bool r.Shard.oversubscribed);
                  ("sustained_tps", Float r.Shard.sustained_tps);
                  ("makespan_us", Float r.Shard.makespan_us);
                  ("p99_us", Float p99);
                  ("restarts", Int r.Shard.restarts);
                  ("serial_identical", Bool serial_identical);
                  ("scan_equal", Bool scan_equal);
                  ("in_doubt", Int in_doubt);
                ]);
          v =
            ( shards,
              r.Shard.oversubscribed,
              r.Shard.sustained_tps,
              scan_equal && serial_identical && in_doubt = 0 );
        })
      counts
  in
  let tps_of c =
    List.fold_left (fun acc { v = s, _, tps, _; _ } -> if s = c then tps else acc) 0.0 points
  in
  let scaling = if tps_of 1 > 0.0 then tps_of top /. tps_of 1 else infinity in
  let top_oversubscribed = List.exists (fun { v = _, over, _, _; _ } -> over) points in
  (* cross-shard fraction sweep at the top shard count, each fraction
     gated against its own serial reference; [v]: fraction, cross
     txns, equivalent *)
  let cross =
    List.map
      (fun cf ->
        let scripts = shard_scripts ~n ~seed ~cross_frac:cf ~top in
        let _, _, reference = shard_serial_reference ~arrivals_us ~scripts in
        let r, _, digest, in_doubt = shard_run ~shards:top ~arrivals_us ~scripts in
        let xh = r.Shard.cross_latency_us in
        let p99_cross = if Hist.count xh = 0 then 0.0 else Hist.p99 xh in
        let scan_equal = String.equal digest reference in
        {
          text =
            Printf.sprintf
              "  cross %.2f: %4d cross txns  %8.0f tps  cross p99 %9.1f us  (%d in doubt, scan \
               %s)\n"
              cf r.Shard.cross_committed r.Shard.sustained_tps p99_cross in_doubt
              (if scan_equal then "identical" else "DIVERGED");
          json =
            Json.(
              Obj
                [
                  ("cross_frac", Float cf);
                  ("cross_txns", Int r.Shard.cross_committed);
                  ("sustained_tps", Float r.Shard.sustained_tps);
                  ("p99_cross_us", Float p99_cross);
                  ("scan_equal", Bool scan_equal);
                  ("in_doubt", Int in_doubt);
                ]);
          v = (cf, r.Shard.cross_committed, scan_equal && in_doubt = 0);
        })
      cross_fracs
  in
  let equivalent =
    List.for_all (fun { v = _, _, _, eq; _ } -> eq) points
    && List.for_all (fun { v = _, _, eq; _ } -> eq) cross
  in
  let n_points = List.length points in
  {
    report =
      "sharded execution (zero-cross workload, group commit, simulated time):\n"
      ^ texts points
      ^ Printf.sprintf "  scaling at the top shard count: %.2fx over 1 shard\n" scaling
      ^ "cross-shard fraction sweep (two-phase commit at the top shard count):\n"
      ^ texts cross;
    fields =
      Json.
        [
          ( "shard",
            Obj
              [
                ("points", jsons points);
                ("scaling", Float scaling);
                ("cross", jsons cross);
                ("equivalent", Bool equivalent);
              ] );
        ];
    rows =
      [
        check "shard.equivalent" equivalent
          "a sharded run diverged from the serial reference after recovery (scan digest, \
           1-shard identity or transactions left in doubt)";
        check "shard.tps"
          (positive (List.map (fun { v = _, _, tps, _; _ } -> tps) points))
          "a shard point's sustained tps is not finite and positive";
        floor "shard.points" (n_points >= 3) "shard sweep has %d points, below 3" n_points;
        floor "shard.cross_txns"
          (List.for_all (fun { v = cf, txns, _; _ } -> cf <= 0.0 || txns > 0) cross)
          "a cross-shard fraction above 0 generated no cross-shard transactions";
        (* skipped when the host has fewer cores than shards *)
        floor "shard.scaling" (top_oversubscribed || scaling >= 1.5)
          "shard scaling %.2fx below the 1.5x floor" scaling;
      ];
  }

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

let substrate_section ~now ~scale =
  let hit_ns, miss_ns = pool_ns ~now ~iters:(200_000 * scale) in
  let append, append_sync = journal_throughput ~now ~iters:(200_000 * scale) in
  {
    report =
      Printf.sprintf "buffer pool get: %.0f ns hit, %.0f ns miss\n" hit_ns miss_ns
      ^ Printf.sprintf "journal: %.2fM appends/s, %.2fM appends/s with sync every 64\n"
          (append /. 1e6) (append_sync /. 1e6);
    fields =
      Json.
        [
          ("pool_hit_ns", Float hit_ns);
          ("pool_miss_ns", Float miss_ns);
          ("journal_append_per_sec", Float append);
          ("journal_append_sync_per_sec", Float append_sync);
        ];
    rows =
      [
        check "substrate.measured" (finite [ hit_ns; miss_ns; append; append_sync ])
          "buffer-pool or journal rates not finite";
      ];
  }

(* --- entry point ---------------------------------------------------- *)

let default_shard_counts = [ 1; 2; 4 ]

let default_cross_fracs = [ 0.0; 0.05; 0.2 ]

let default_read_fracs = [ 0.5; 0.9; 0.99 ]

let run ?(scale = 1) ?(jobs = [ 1; 2; 4 ]) ?(allow_oversubscribe = false)
    ?(log_formats = known_formats) ?(read_fracs = default_read_fracs)
    ?(shard_counts = default_shard_counts) ?(cross_fracs = default_cross_fracs) ~now () =
  let fraction f = f >= 0.0 && f <= 1.0 in
  if scale <= 0 then invalid_arg "Storage_bench.run: scale must be positive";
  if List.exists (fun j -> j < 1) jobs then
    invalid_arg "Storage_bench.run: jobs must all be >= 1";
  List.iter
    (fun f ->
      if not (List.mem f known_formats) then
        invalid_arg (Printf.sprintf "Storage_bench.run: unknown log format %S" f))
    log_formats;
  if read_fracs = [] || not (List.for_all fraction read_fracs) then
    invalid_arg "Storage_bench.run: read_fracs must be non-empty, each in [0,1]";
  if shard_counts = [] || List.exists (fun s -> s < 1) shard_counts then
    invalid_arg "Storage_bench.run: shard_counts must be non-empty, each >= 1";
  if not (List.for_all fraction cross_fracs) then
    invalid_arg "Storage_bench.run: cross_fracs must each be in [0,1]";
  (* Sections run in this order so each wall is taken in the heap state
     the earlier sections leave behind. *)
  let txns = 600 * scale in
  let sched = sched_section ~now ~scale in
  let engines = engines_section ~now ~scale in
  let length = recovery_length_section ~now ~txns in
  let parallel = recovery_parallel_section ~now ~jobs ~allow_oversubscribe ~txns in
  let formats = log_format_section ~now ~jobs ~allow_oversubscribe ~formats:log_formats ~txns in
  let server = server_section ~scale in
  let read_heavy = read_heavy_section ~scale ~read_fracs in
  let shard = shard_section ~scale ~shard_counts ~cross_fracs in
  let substrate = substrate_section ~now ~scale in
  {
    scale;
    sections = [ sched; engines; length; parallel; formats; server; read_heavy; shard; substrate ];
  }

let print b = List.iter (fun s -> print_string s.report) b.sections

let to_json b =
  Json.Obj (("scale", Json.Int b.scale) :: List.concat_map (fun s -> s.fields) b.sections)

let failed b =
  List.concat_map
    (fun s ->
      List.filter_map
        (fun r ->
          if r.held then None
          else
            Some
              ( r.kind,
                Printf.sprintf "%s %s: %s"
                  (match r.kind with Check -> "check" | Floor -> "floor")
                  r.name r.detail ))
        s.rows)
    b.sections
