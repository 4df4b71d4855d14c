(* Tests for the transaction workload generator. *)

module W = Dbm_workload.Workload

let check = Alcotest.check

let cfg = { W.default with W.n_transactions = 40; seed = 5 }

let test_determinism () =
  let a = W.generate cfg and b = W.generate cfg in
  check Alcotest.bool "same seed same workload" true (a = b);
  let c = W.generate { cfg with W.seed = 6 } in
  check Alcotest.bool "different seed differs" true (a <> c)

let test_sizes_in_range () =
  Array.iter
    (fun t ->
      let n = W.read_set_size t in
      if n < cfg.W.min_pages || n > cfg.W.max_pages then
        Alcotest.failf "size %d out of [%d,%d]" n cfg.W.min_pages cfg.W.max_pages)
    (W.generate cfg)

let test_pages_in_db () =
  Array.iter
    (fun t ->
      Array.iter
        (fun p -> if p < 0 || p >= cfg.W.db_pages then Alcotest.failf "page %d out of db" p)
        t.W.pages)
    (W.generate cfg)

let test_random_pages_distinct () =
  Array.iter
    (fun t ->
      let n = Array.length t.W.pages in
      let d = List.length (List.sort_uniq Int.compare (Array.to_list t.W.pages)) in
      check Alcotest.int "distinct pages" n d)
    (W.generate cfg)

let test_sequential_runs () =
  let seq = W.generate { cfg with W.pattern = W.Sequential } in
  Array.iter
    (fun t ->
      Array.iteri
        (fun i p -> if i > 0 && p <> t.W.pages.(i - 1) + 1 then Alcotest.fail "not consecutive")
        t.W.pages)
    seq

let test_write_fraction () =
  let txns = W.generate { cfg with W.n_transactions = 200 } in
  let reads = W.total_pages txns and writes = W.total_writes txns in
  let f = float_of_int writes /. float_of_int reads in
  check Alcotest.bool "write fraction ~20%" true (f > 0.18 && f < 0.22);
  (* per transaction, the rounding is exact *)
  Array.iter
    (fun t ->
      let expected =
        int_of_float (Float.round (0.20 *. float_of_int (W.read_set_size t)))
      in
      check Alcotest.int "per-txn write count" expected (W.write_set_size t))
    txns

let test_write_subset_of_read () =
  Array.iter
    (fun t ->
      let reads = Array.to_list t.W.pages in
      List.iter
        (fun w -> if not (List.mem w reads) then Alcotest.fail "write outside read set")
        (W.write_pages t))
    (W.generate cfg)

let test_write_pages_order () =
  let txns = W.generate cfg in
  Array.iter
    (fun t ->
      let expected =
        List.filteri (fun i _ -> t.W.writes.(i)) (Array.to_list t.W.pages)
      in
      check (Alcotest.list Alcotest.int) "reference order" expected (W.write_pages t))
    txns

let test_zero_write_fraction () =
  let txns = W.generate { cfg with W.write_fraction = 0.0 } in
  check Alcotest.int "no writes" 0 (W.total_writes txns)

let test_full_write_fraction () =
  let txns = W.generate { cfg with W.write_fraction = 1.0 } in
  check Alcotest.int "all writes" (W.total_pages txns) (W.total_writes txns)

let test_validation () =
  let bad config msg =
    match W.generate config with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail msg
  in
  bad { cfg with W.min_pages = 0 } "min_pages 0 accepted";
  bad { cfg with W.max_pages = 0 } "max < min accepted";
  bad { cfg with W.db_pages = 10 } "db smaller than max accepted";
  bad { cfg with W.write_fraction = 1.5 } "write fraction > 1 accepted"

let test_hotspot_skew () =
  let cfg =
    { cfg with
      W.pattern = W.Hotspot { hot_fraction = 0.05; hot_access_prob = 0.8 };
      n_transactions = 60 }
  in
  let hot_limit = int_of_float (0.05 *. float_of_int cfg.W.db_pages) in
  let hot = ref 0 and total = ref 0 in
  Array.iter
    (fun t ->
      Array.iter
        (fun p ->
          incr total;
          if p < hot_limit then incr hot)
        t.W.pages)
    (W.generate cfg);
  let f = float_of_int !hot /. float_of_int !total in
  check Alcotest.bool "hot region draws ~80% of accesses" true (f > 0.7 && f < 0.9)

let test_hotspot_pages_distinct () =
  let cfg =
    { cfg with W.pattern = W.Hotspot { hot_fraction = 0.1; hot_access_prob = 0.9 } }
  in
  Array.iter
    (fun t ->
      let n = Array.length t.W.pages in
      let d = List.length (List.sort_uniq Int.compare (Array.to_list t.W.pages)) in
      check Alcotest.int "distinct" n d)
    (W.generate cfg)

let test_hotspot_validation () =
  let bad pattern msg =
    match W.generate { cfg with W.pattern } with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail msg
  in
  bad (W.Hotspot { hot_fraction = 0.0; hot_access_prob = 0.5 }) "hot_fraction 0 accepted";
  bad (W.Hotspot { hot_fraction = 1.5; hot_access_prob = 0.5 }) "hot_fraction > 1 accepted";
  bad (W.Hotspot { hot_fraction = 0.5; hot_access_prob = 1.5 }) "hot_access_prob > 1 accepted";
  (* hot region must still fit max_pages distinct pages *)
  bad (W.Hotspot { hot_fraction = 0.001; hot_access_prob = 0.9 }) "tiny hot region accepted"

let test_serialization_format () =
  let txns =
    [| { W.id = 3; pages = [| 10; 20; 30 |]; writes = [| false; true; false |] } |]
  in
  check Alcotest.string "format" "3 10 20! 30\n" (W.to_string txns)

let test_empty_workload () =
  check Alcotest.int "no transactions" 0
    (Array.length (W.generate { cfg with W.n_transactions = 0 }))

(* --- Zipfian access pattern ---------------------------------------- *)

let zipf_cfg = { cfg with W.pattern = W.Zipfian { theta = 0.99 }; db_pages = 1024 }

let test_zipfian_skew () =
  (* the hottest 1% of pages must draw far more than 1% of accesses
     (small read sets: duplicate rejection barely perturbs the skew) *)
  let txns =
    W.generate { zipf_cfg with W.n_transactions = 400; min_pages = 1; max_pages = 8 }
  in
  let total = ref 0 and hot = ref 0 in
  Array.iter
    (fun t ->
      Array.iter
        (fun p ->
          incr total;
          if p < zipf_cfg.W.db_pages / 100 then incr hot)
        t.W.pages)
    txns;
  let frac = float_of_int !hot /. float_of_int !total in
  if frac < 0.10 then Alcotest.failf "zipfian skew too weak: hot fraction %.3f" frac

let test_zipfian_pages_distinct () =
  Array.iter
    (fun t ->
      let sorted = List.sort_uniq Int.compare (Array.to_list t.W.pages) in
      check Alcotest.int "pages distinct within a txn" (Array.length t.W.pages)
        (List.length sorted))
    (W.generate zipf_cfg)

let test_zipfian_validation () =
  List.iter
    (fun theta ->
      match W.generate { zipf_cfg with W.pattern = W.Zipfian { theta } } with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "theta %f accepted" theta)
    [ 0.0; -1.0; Float.nan; Float.infinity ]

let test_zipfian_digest_distinct () =
  let dg pattern =
    let d = Dbm_util.Digest.create () in
    W.feed_config d { cfg with W.pattern };
    Dbm_util.Digest.hex d
  in
  let all =
    [
      dg W.Random_access;
      dg (W.Hotspot { hot_fraction = 0.05; hot_access_prob = 0.8 });
      dg (W.Zipfian { theta = 0.99 });
      dg (W.Zipfian { theta = 1.2 });
    ]
  in
  check Alcotest.int "patterns digest distinctly" 4 (List.length (List.sort_uniq compare all))

(* --- open-loop arrivals ---------------------------------------------- *)

let test_arrival_deterministic () =
  let gen seed a = W.gen_arrival_times (Dbm_util.Prng.create seed) a ~n:50 in
  let a = W.Poisson { rate = 100.0 } in
  check Alcotest.bool "same seed same trace" true (gen 3 a = gen 3 a);
  check Alcotest.bool "different seed differs" true (gen 3 a <> gen 4 a)

let test_arrival_increasing () =
  List.iter
    (fun a ->
      let ts = W.gen_arrival_times (Dbm_util.Prng.create 9) a ~n:200 in
      check Alcotest.int "n arrivals" 200 (Array.length ts);
      Array.iteri
        (fun i t ->
          if t <= 0.0 then Alcotest.failf "arrival %d not positive" i;
          if i > 0 && t <= ts.(i - 1) then Alcotest.failf "arrival %d not increasing" i)
        ts)
    [ W.Poisson { rate = 500.0 }; W.Poisson { rate = 20_000.0 } ]

let test_poisson_mean_rate () =
  let rate = 1000.0 in
  let n = 20_000 in
  let ts = W.gen_arrival_times (Dbm_util.Prng.create 21) (W.Poisson { rate }) ~n in
  let observed = float_of_int n /. ts.(n - 1) in
  if Float.abs (observed -. rate) /. rate > 0.05 then
    Alcotest.failf "poisson rate off: asked %.0f observed %.1f" rate observed

let test_arrival_validation () =
  List.iter
    (fun a ->
      match W.validate_arrival a with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "bad arrival accepted")
    [
      W.Poisson { rate = 0.0 };
      W.Poisson { rate = -5.0 };
      W.Poisson { rate = Float.nan };
      W.Poisson { rate = Float.infinity };
    ];
  match W.gen_arrival_times (Dbm_util.Prng.create 1) (W.Poisson { rate = 1.0 }) ~n:(-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative n accepted"

let () =
  Alcotest.run "dbm_workload"
    [
      ( "generator",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "sizes in range" `Quick test_sizes_in_range;
          Alcotest.test_case "pages in db" `Quick test_pages_in_db;
          Alcotest.test_case "random pages distinct" `Quick test_random_pages_distinct;
          Alcotest.test_case "sequential runs" `Quick test_sequential_runs;
          Alcotest.test_case "write fraction" `Quick test_write_fraction;
          Alcotest.test_case "write subset of read" `Quick test_write_subset_of_read;
          Alcotest.test_case "write pages order" `Quick test_write_pages_order;
          Alcotest.test_case "zero write fraction" `Quick test_zero_write_fraction;
          Alcotest.test_case "full write fraction" `Quick test_full_write_fraction;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "hotspot skew" `Quick test_hotspot_skew;
          Alcotest.test_case "hotspot distinct pages" `Quick test_hotspot_pages_distinct;
          Alcotest.test_case "hotspot validation" `Quick test_hotspot_validation;
          Alcotest.test_case "serialization format" `Quick test_serialization_format;
          Alcotest.test_case "empty workload" `Quick test_empty_workload;
          Alcotest.test_case "zipfian skew" `Quick test_zipfian_skew;
          Alcotest.test_case "zipfian distinct pages" `Quick test_zipfian_pages_distinct;
          Alcotest.test_case "zipfian validation" `Quick test_zipfian_validation;
          Alcotest.test_case "zipfian digests distinctly" `Quick test_zipfian_digest_distinct;
        ] );
      ( "arrivals",
        [
          Alcotest.test_case "deterministic" `Quick test_arrival_deterministic;
          Alcotest.test_case "strictly increasing" `Quick test_arrival_increasing;
          Alcotest.test_case "poisson mean rate" `Quick test_poisson_mean_rate;
          Alcotest.test_case "validation" `Quick test_arrival_validation;
        ] );
    ]
