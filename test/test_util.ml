(* Unit and property tests for the foundation library (dbm_util). *)

module Prng = Dbm_util.Prng
module Heap = Dbm_util.Heap
module Lru = Dbm_util.Lru
module Ring = Dbm_util.Ring
module Stats = Dbm_util.Stats

let check = Alcotest.check

(* --- Prng ----------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Prng.create 17 and b = Prng.create 17 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 17 and b = Prng.create 18 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  check Alcotest.int "different seeds diverge" 0 !same

let test_prng_int_range () =
  let rng = Prng.create 3 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.failf "int out of range: %d" v
  done

let test_prng_int_in_inclusive () =
  let rng = Prng.create 4 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    let v = Prng.int_in rng ~lo:10 ~hi:14 in
    check Alcotest.bool "in range" true (v >= 10 && v <= 14);
    seen.(v - 10) <- true
  done;
  Array.iteri (fun i s -> check Alcotest.bool (Printf.sprintf "value %d seen" (i + 10)) true s) seen

let test_prng_float_bounds () =
  let rng = Prng.create 5 in
  for _ = 1 to 1000 do
    let v = Prng.float rng 2.5 in
    check Alcotest.bool "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_prng_bool_extremes () =
  let rng = Prng.create 6 in
  check Alcotest.bool "p=0 never true" false (Prng.bool rng ~p:0.0);
  check Alcotest.bool "p=1 always true" true (Prng.bool rng ~p:1.0)

let test_prng_bool_frequency () =
  let rng = Prng.create 7 in
  let hits = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Prng.bool rng ~p:0.2 then incr hits
  done;
  let f = float_of_int !hits /. float_of_int n in
  check Alcotest.bool "frequency near 0.2" true (f > 0.17 && f < 0.23)

let test_prng_exponential_mean () =
  let rng = Prng.create 8 in
  let acc = ref 0.0 in
  let n = 20_000 in
  for _ = 1 to n do
    acc := !acc +. Prng.exponential rng ~mean:5.0
  done;
  let mean = !acc /. float_of_int n in
  check Alcotest.bool "mean near 5" true (mean > 4.7 && mean < 5.3)

let test_sample_distinct () =
  let rng = Prng.create 9 in
  let s = Prng.sample_distinct rng ~n:50 ~lo:0 ~hi:99 in
  check Alcotest.int "size" 50 (Array.length s);
  let sorted = List.sort_uniq Int.compare (Array.to_list s) in
  check Alcotest.int "distinct" 50 (List.length sorted);
  List.iter (fun v -> check Alcotest.bool "in range" true (v >= 0 && v <= 99)) sorted

let test_sample_distinct_full_range () =
  let rng = Prng.create 10 in
  let s = Prng.sample_distinct rng ~n:10 ~lo:5 ~hi:14 in
  check Alcotest.int "whole range" 10 (List.length (List.sort_uniq Int.compare (Array.to_list s)))

let test_sample_distinct_invalid () =
  let rng = Prng.create 11 in
  Alcotest.check_raises "range too small" (Invalid_argument "Prng.sample_distinct: range too small")
    (fun () -> ignore (Prng.sample_distinct rng ~n:11 ~lo:0 ~hi:9))

let test_shuffle_permutation () =
  let rng = Prng.create 12 in
  let a = Array.init 30 (fun i -> i) in
  Prng.shuffle rng a;
  check (Alcotest.list Alcotest.int) "same elements" (List.init 30 (fun i -> i))
    (List.sort Int.compare (Array.to_list a))

let test_split_independent () =
  let a = Prng.create 13 in
  let b = Prng.split a in
  let va = Prng.bits64 a and vb = Prng.bits64 b in
  check Alcotest.bool "split streams differ" true (va <> vb)

(* --- Heap ------------------------------------------------------------ *)

let test_heap_sorts () =
  let h = Heap.create ~cmp:Int.compare () in
  let rng = Prng.create 21 in
  let input = List.init 200 (fun _ -> Prng.int rng 1000) in
  List.iter (Heap.push h) input;
  let rec drain acc = match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc) in
  check (Alcotest.list Alcotest.int) "heap sorts" (List.sort Int.compare input) (drain [])

let test_heap_peek_pop () =
  let h = Heap.create ~cmp:Int.compare () in
  check (Alcotest.option Alcotest.int) "peek empty" None (Heap.peek h);
  Heap.push h 5;
  Heap.push h 2;
  check (Alcotest.option Alcotest.int) "peek min" (Some 2) (Heap.peek h);
  check Alcotest.int "length" 2 (Heap.length h);
  check (Alcotest.option Alcotest.int) "pop min" (Some 2) (Heap.pop h);
  check (Alcotest.option Alcotest.int) "pop next" (Some 5) (Heap.pop h);
  check Alcotest.bool "empty" true (Heap.is_empty h)

let test_heap_to_sorted_list () =
  let h = Heap.create ~cmp:Int.compare () in
  List.iter (Heap.push h) [ 3; 1; 2 ];
  check (Alcotest.list Alcotest.int) "sorted view" [ 1; 2; 3 ] (Heap.to_sorted_list h);
  check Alcotest.int "non-destructive" 3 (Heap.length h)

let test_heap_pop_releases () =
  (* popping must overwrite the vacated slot: a long-lived heap may not
     pin elements that have left it *)
  let h = Heap.create ~cmp:(fun a b -> Int.compare !a !b) () in
  List.iter (fun i -> Heap.push h (ref i)) [ 3; 1; 2 ];
  let w = Weak.create 1 in
  (fun () ->
    match Heap.pop h with
    | Some r ->
      check Alcotest.int "pops min" 1 !r;
      Weak.set w 0 (Some r)
    | None -> Alcotest.fail "expected an element")
    ();
  Gc.full_major ();
  Gc.full_major ();
  check Alcotest.int "rest retained" 2 (Heap.length h);
  check Alcotest.bool "popped element is collectable" false (Weak.check w 0)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list int)
    (fun input ->
      let h = Heap.create ~cmp:Int.compare () in
      List.iter (Heap.push h) input;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort Int.compare input)

(* --- Pool ------------------------------------------------------------ *)

module Pool = Dbm_util.Pool

let squares n = List.init n (fun i -> i * i)

let test_pool_serial_path () =
  Pool.with_pool ~jobs:1 (fun p ->
      check Alcotest.int "jobs" 1 (Pool.jobs p);
      check (Alcotest.list Alcotest.int) "maps in order" (squares 10)
        (Pool.map_ordered p (List.init 10 (fun i -> i)) ~f:(fun x -> x * x)))

(* The parallel-path tests oversubscribe deliberately so they exercise
   real domains even on a single-core host, where plain ~jobs would
   clamp to 1 and test nothing. *)
let test_pool_parallel_ordering () =
  Pool.with_pool ~jobs:4 ~allow_oversubscribe:true (fun p ->
      check (Alcotest.list Alcotest.int) "order preserved across domains" (squares 100)
        (Pool.map_ordered p (List.init 100 (fun i -> i)) ~f:(fun x -> x * x)))

let test_pool_matches_serial () =
  let f x = (x * 7919) mod 101 in
  let xs = List.init 57 (fun i -> i) in
  let serial = Pool.with_pool ~jobs:1 (fun p -> Pool.map_ordered p xs ~f) in
  let parallel =
    Pool.with_pool ~jobs:3 ~allow_oversubscribe:true (fun p -> Pool.map_ordered p xs ~f)
  in
  check (Alcotest.list Alcotest.int) "identical results" serial parallel

let test_pool_empty_and_reuse () =
  Pool.with_pool ~jobs:2 ~allow_oversubscribe:true (fun p ->
      check (Alcotest.list Alcotest.int) "empty" [] (Pool.map_ordered p [] ~f:(fun x -> x));
      check (Alcotest.list Alcotest.int) "first use" [ 2; 4 ]
        (Pool.map_ordered p [ 1; 2 ] ~f:(fun x -> 2 * x));
      check (Alcotest.list Alcotest.int) "pool is reusable" [ 3; 6 ]
        (Pool.map_ordered p [ 1; 2 ] ~f:(fun x -> 3 * x)))

let test_pool_exception () =
  Pool.with_pool ~jobs:4 ~allow_oversubscribe:true (fun p ->
      match
        Pool.map_ordered p [ 1; 2; 3; 4 ] ~f:(fun x ->
            if x mod 2 = 0 then failwith (string_of_int x) else x)
      with
      | exception Failure m -> check Alcotest.string "smallest failing index wins" "2" m
      | _ -> Alcotest.fail "expected the worker exception to propagate")

let test_pool_invalid_jobs () =
  match Pool.create ~jobs:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "jobs = 0 accepted"

let test_pool_clamps_to_cores () =
  let cores = Pool.default_jobs () in
  Pool.with_pool ~jobs:(cores + 63) (fun p ->
      check Alcotest.int "request is remembered" (cores + 63) (Pool.requested_jobs p);
      check Alcotest.int "effective size clamps to the cores" cores (Pool.jobs p));
  Pool.with_pool ~jobs:1 (fun p ->
      check Alcotest.int "small requests pass through" 1 (Pool.jobs p))

let test_pool_oversubscribe_escape_hatch () =
  Pool.with_pool ~jobs:(Pool.default_jobs () + 2) ~allow_oversubscribe:true (fun p ->
      check Alcotest.int "oversubscription honoured when asked for"
        (Pool.default_jobs () + 2) (Pool.jobs p))

(* --- weighted scheduling --------------------------------------------- *)

let test_weighted_serial_path () =
  Pool.with_pool ~jobs:1 (fun p ->
      let weight_calls = ref 0 in
      let r =
        Pool.map_ordered_weighted p
          (List.init 10 (fun i -> i))
          ~weight:(fun _ ->
            incr weight_calls;
            1.0)
          ~f:(fun x -> x * x)
      in
      check (Alcotest.list Alcotest.int) "maps in order" (squares 10) r;
      (* jobs=1 must reproduce the serial path bit-for-bit: no sort, no
         cost estimation, nothing the weight could influence. *)
      check Alcotest.int "weight never consulted" 0 !weight_calls)

let test_weighted_reuse_any_weights () =
  let f x = (x * 31) mod 97 in
  let xs = List.init 57 (fun i -> i) in
  Pool.with_pool ~jobs:3 ~allow_oversubscribe:true (fun p ->
      check (Alcotest.list Alcotest.int) "ascending weights" (List.map f xs)
        (Pool.map_ordered_weighted p xs ~weight:float_of_int ~f);
      check (Alcotest.list Alcotest.int) "descending weights (pool reused)" (List.map f xs)
        (Pool.map_ordered_weighted p xs ~weight:(fun x -> -.float_of_int x) ~f);
      check (Alcotest.list Alcotest.int) "empty input" []
        (Pool.map_ordered_weighted p [] ~weight:float_of_int ~f))

let test_weighted_exception () =
  Pool.with_pool ~jobs:4 ~allow_oversubscribe:true (fun p ->
      match
        Pool.map_ordered_weighted p [ 1; 2; 3; 4 ]
          ~weight:(fun x -> float_of_int (10 - x))
          ~f:(fun x -> if x mod 2 = 0 then failwith (string_of_int x) else x)
      with
      | exception Failure m -> check Alcotest.string "smallest failing index wins" "2" m
      | _ -> Alcotest.fail "expected the worker exception to propagate")

(* Whatever the weights (including ties, negatives, NaN and infinities)
   and whatever the pool size, the result is exactly [List.map f]. *)
let prop_weighted_matches_list_map =
  QCheck.Test.make ~name:"map_ordered_weighted = List.map f" ~count:30
    QCheck.(triple (int_range 1 4) (small_list int) (int_range 0 1000))
    (fun (jobs, xs, wseed) ->
      let f x = (x * 7919) mod 101 in
      let weight x =
        match abs (x + wseed) mod 5 with
        | 0 -> Float.nan
        | 1 -> Float.infinity
        | 2 -> Float.neg_infinity
        | _ -> float_of_int ((abs (x * wseed) mod 13) - 3)
      in
      Pool.with_pool ~jobs ~allow_oversubscribe:true (fun p ->
          Pool.map_ordered_weighted p xs ~weight ~f = List.map f xs))

(* --- Lru ------------------------------------------------------------- *)

let test_lru_eviction_order () =
  let l = Lru.create ~capacity:2 () in
  ignore (Lru.add l 1 "a");
  ignore (Lru.add l 2 "b");
  (* touch 1 so 2 becomes the LRU victim *)
  ignore (Lru.find l 1);
  match Lru.add l 3 "c" with
  | Some { Lru.key; _ } -> check Alcotest.int "evicts LRU" 2 key
  | None -> Alcotest.fail "expected an eviction"

let test_lru_hit_miss_counters () =
  let l = Lru.create ~capacity:4 () in
  ignore (Lru.add l 1 "a");
  ignore (Lru.find l 1);
  ignore (Lru.find l 2);
  check Alcotest.int "hits" 1 (Lru.hits l);
  check Alcotest.int "misses" 1 (Lru.misses l)

let test_lru_dirty_eviction () =
  let l = Lru.create ~capacity:1 () in
  ignore (Lru.add l 1 "a");
  Lru.set_dirty l 1 true;
  (match Lru.add l 2 "b" with
  | Some { Lru.key; dirty; _ } ->
    check Alcotest.int "victim" 1 key;
    check Alcotest.bool "dirty flag" true dirty
  | None -> Alcotest.fail "expected an eviction");
  check Alcotest.bool "gone" false (Lru.mem l 1)

let test_lru_overwrite_no_eviction () =
  let l = Lru.create ~capacity:1 () in
  ignore (Lru.add l 1 "a");
  check Alcotest.bool "overwrite evicts nothing" true (Lru.add l 1 "b" = None);
  check (Alcotest.option Alcotest.string) "new value" (Some "b") (Lru.peek l 1)

let test_lru_dirty_entries () =
  let l = Lru.create ~capacity:4 () in
  ignore (Lru.add l 1 "a");
  ignore (Lru.add l 2 "b" ~dirty:true);
  ignore (Lru.add l 3 "c");
  Lru.set_dirty l 1 true;
  let keys = List.sort Int.compare (List.map fst (Lru.dirty_entries l)) in
  check (Alcotest.list Alcotest.int) "dirty set" [ 1; 2 ] keys

let test_lru_remove_and_clear () =
  let l = Lru.create ~capacity:4 () in
  ignore (Lru.add l 1 "a");
  Lru.remove l 1;
  check Alcotest.bool "removed" false (Lru.mem l 1);
  ignore (Lru.add l 2 "b");
  Lru.clear l;
  check Alcotest.int "cleared" 0 (Lru.length l)

let prop_lru_capacity =
  QCheck.Test.make ~name:"lru never exceeds capacity" ~count:200
    QCheck.(pair (int_range 1 8) (small_list (int_range 0 20)))
    (fun (cap, keys) ->
      let l = Lru.create ~capacity:cap () in
      List.iter (fun k -> ignore (Lru.add l k k)) keys;
      Lru.length l <= cap)

(* --- Ring ------------------------------------------------------------ *)

let test_ring_fifo () =
  let r = Ring.create ~capacity:3 () in
  check Alcotest.bool "push 1" true (Ring.push r 1);
  check Alcotest.bool "push 2" true (Ring.push r 2);
  check Alcotest.bool "push 3" true (Ring.push r 3);
  check Alcotest.bool "full rejects" false (Ring.push r 4);
  check (Alcotest.option Alcotest.int) "fifo pop" (Some 1) (Ring.pop r);
  check Alcotest.bool "room again" true (Ring.push r 4);
  check (Alcotest.list Alcotest.int) "contents" [ 2; 3; 4 ] (Ring.to_list r)

let test_ring_wraparound () =
  let r = Ring.create ~capacity:2 () in
  for i = 1 to 10 do
    check Alcotest.bool "push" true (Ring.push r i);
    check (Alcotest.option Alcotest.int) "pop" (Some i) (Ring.pop r)
  done;
  check Alcotest.bool "empty at end" true (Ring.is_empty r)

let test_ring_push_exn () =
  let r = Ring.create ~capacity:1 () in
  Ring.push_exn r 1;
  Alcotest.check_raises "overflow" (Failure "Ring.push_exn: buffer full") (fun () ->
      Ring.push_exn r 2)

(* --- Stats ----------------------------------------------------------- *)

let test_acc_moments () =
  let a = Stats.Acc.create () in
  List.iter (Stats.Acc.add a) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check (Alcotest.float 1e-9) "mean" 5.0 (Stats.Acc.mean a);
  check (Alcotest.float 1e-9) "variance" 4.0 (Stats.Acc.variance a);
  check (Alcotest.float 1e-9) "stddev" 2.0 (Stats.Acc.stddev a);
  check (Alcotest.float 1e-9) "min" 2.0 (Stats.Acc.min a);
  check (Alcotest.float 1e-9) "max" 9.0 (Stats.Acc.max a);
  check Alcotest.int "count" 8 (Stats.Acc.count a)

let test_acc_empty () =
  let a = Stats.Acc.create () in
  check (Alcotest.float 1e-9) "mean of empty" 0.0 (Stats.Acc.mean a);
  Alcotest.check_raises "min of empty" (Invalid_argument "Stats.Acc.min: empty accumulator")
    (fun () -> ignore (Stats.Acc.min a))

let test_acc_merge () =
  let a = Stats.Acc.create () and b = Stats.Acc.create () and whole = Stats.Acc.create () in
  let xs = [ 1.0; 2.0; 3.0 ] and ys = [ 10.0; 20.0 ] in
  List.iter (Stats.Acc.add a) xs;
  List.iter (Stats.Acc.add b) ys;
  List.iter (Stats.Acc.add whole) (xs @ ys);
  let m = Stats.Acc.merge a b in
  check (Alcotest.float 1e-9) "merged mean" (Stats.Acc.mean whole) (Stats.Acc.mean m);
  check (Alcotest.float 1e-6) "merged variance" (Stats.Acc.variance whole) (Stats.Acc.variance m);
  check Alcotest.int "merged count" 5 (Stats.Acc.count m)

let test_timeweighted () =
  let tw = Stats.Timeweighted.create () in
  Stats.Timeweighted.update tw ~now:0.0 ~level:2.0;
  Stats.Timeweighted.update tw ~now:10.0 ~level:4.0;
  (* 2.0 for 10 units, then 4.0 for 10 units -> mean 3.0 at t=20 *)
  check (Alcotest.float 1e-9) "time-weighted mean" 3.0 (Stats.Timeweighted.mean tw ~now:20.0);
  check (Alcotest.float 1e-9) "level" 4.0 (Stats.Timeweighted.level tw)

let test_busy_utilization () =
  let b = Stats.Busy.create () in
  Stats.Busy.add_busy b 30.0;
  check (Alcotest.float 1e-9) "utilization" 0.3
    (Stats.Busy.utilization b ~elapsed:100.0 ~servers:1);
  check (Alcotest.float 1e-9) "two servers" 0.15
    (Stats.Busy.utilization b ~elapsed:100.0 ~servers:2);
  check (Alcotest.float 1e-9) "empty interval" 0.0 (Stats.Busy.utilization b ~elapsed:0.0 ~servers:1)

let test_percentile () =
  let xs = [ 10.0; 20.0; 30.0; 40.0 ] in
  check (Alcotest.float 1e-9) "p0 = min" 10.0 (Stats.percentile xs ~p:0.0);
  check (Alcotest.float 1e-9) "p100 = max" 40.0 (Stats.percentile xs ~p:100.0);
  check (Alcotest.float 1e-9) "p50 interpolates" 25.0 (Stats.percentile xs ~p:50.0);
  check (Alcotest.float 1e-9) "singleton" 7.0 (Stats.percentile [ 7.0 ] ~p:95.0);
  match Stats.percentile [] ~p:50.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty sample accepted"

let prop_percentile_bounds =
  QCheck.Test.make ~name:"percentile lies within sample bounds" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 20) (float_range (-100.) 100.)) (float_range 0. 100.))
    (fun (xs, p) ->
      let v = Stats.percentile xs ~p in
      let mn = List.fold_left Float.min infinity xs
      and mx = List.fold_left Float.max neg_infinity xs in
      v >= mn -. 1e-9 && v <= mx +. 1e-9)

(* --- streaming histogram ------------------------------------------- *)

module H = Stats.Histogram

let test_hist_small_n_exact () =
  (* below the exact-prefix limit the histogram must reproduce
     Stats.percentile bit-for-bit, interpolation included *)
  let rng = Dbm_util.Prng.create 11 in
  let xs = List.init 100 (fun _ -> Dbm_util.Prng.float rng 5_000.0 +. 0.001) in
  let h = H.create () in
  List.iter (H.add h) xs;
  List.iter
    (fun p ->
      check (Alcotest.float 1e-12)
        (Printf.sprintf "p%g exact on small n" p)
        (Stats.percentile xs ~p) (H.percentile h ~p))
    [ 0.0; 50.0; 90.0; 99.0; 99.9; 100.0 ]

let test_hist_large_n_bounded_error () =
  let rng = Dbm_util.Prng.create 12 in
  let xs = Array.init 50_000 (fun _ -> Dbm_util.Prng.exponential rng ~mean:800.0 +. 1.0) in
  let h = H.create () in
  Array.iter (H.add h) xs;
  let exact = Array.copy xs in
  Array.sort Float.compare exact;
  List.iter
    (fun p ->
      let truth = Stats.percentile (Array.to_list exact) ~p in
      let est = H.percentile h ~p in
      check Alcotest.bool
        (Printf.sprintf "p%g within 2%%" p)
        true
        (Float.abs (est -. truth) /. truth < 0.02))
    [ 50.0; 99.0; 99.9 ];
  check (Alcotest.float 1e-9) "max is exact" (Array.fold_left Float.max 0.0 xs) (H.max h);
  check Alcotest.bool "p100 never exceeds the true max" true
    (H.percentile h ~p:100.0 <= H.max h);
  check Alcotest.int "count" 50_000 (H.count h);
  check (Alcotest.float 1e-6) "mean"
    (Array.fold_left ( +. ) 0.0 xs /. 50_000.0)
    (H.mean h)

let test_hist_monotone_and_range () =
  let h = H.create () in
  List.iter (H.add h) [ 1e-9; 0.5; 3.0; 1e6; 1e12 ];
  let last = ref neg_infinity in
  for p = 0 to 100 do
    let v = H.percentile h ~p:(float_of_int p) in
    check Alcotest.bool "percentile monotone in p" true (v >= !last);
    last := v
  done;
  check Alcotest.bool "extreme magnitudes bracketed" true
    (H.percentile h ~p:0.0 <= 1e-8 && H.percentile h ~p:100.0 >= 1e11)

let test_hist_validation () =
  let h = H.create () in
  (match H.percentile h ~p:50.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty histogram accepted");
  H.add h 1.0;
  (match H.percentile h ~p:101.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "p out of range accepted");
  match H.add h Float.nan with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "NaN accepted"

let prop_hist_relative_error =
  QCheck.Test.make ~name:"histogram percentile within bucket error of exact" ~count:100
    QCheck.(list_of_size (Gen.int_range 600 900) (float_range 0.001 1e7))
    (fun xs ->
      (* above the exact prefix: every estimate within the ~0.8%
         bucket-midpoint bound (with slack), and never above the max *)
      let h = H.create () in
      List.iter (H.add h) xs;
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      List.for_all
        (fun p ->
          (* the estimate shares a log-scale bucket with the rank-th
             order statistic, so it sits within the bucket's ~0.8%
             half-width of it (and never above the exact max) *)
          let rank = Stdlib.max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))) in
          let v = a.(rank - 1) in
          let est = H.percentile h ~p in
          est <= H.max h +. 1e-9 && Float.abs (est -. v) <= (0.015 *. v) +. 1e-9)
        [ 1.0; 25.0; 50.0; 75.0; 99.0; 100.0 ])

(* --- Json ------------------------------------------------------------ *)

module Json = Dbm_util.Json

let test_json_escaping () =
  check Alcotest.string "quote, backslash, control characters"
    {|"a\"b\\c\u000a\u0001\u001f é"|}
    (Json.to_string (Json.String "a\"b\\c\n\001\031 é"))

let test_json_nesting () =
  check Alcotest.string "scalar-only members stay on one line"
    (String.concat "\n"
       [
         {|{|};
         {|  "a": 1,|};
         {|  "b": [|};
         {|    true,|};
         {|    {"c": null, "d": "x"}|};
         {|  ],|};
         {|  "e": {},|};
         {|  "f": []|};
         {|}|};
       ])
    Json.(
      to_string
        (Obj
           [
             ("a", Int 1);
             ("b", List [ Bool true; Obj [ ("c", Null); ("d", String "x") ] ]);
             ("e", Obj []);
             ("f", List []);
           ]))

let test_json_numbers () =
  check Alcotest.string "ints" "[0, -42, 4611686018427387903]"
    (Json.to_string (Json.List [ Json.Int 0; Json.Int (-42); Json.Int max_int ]));
  check Alcotest.string "non-finite floats are null; finite ones round-trip"
    "[null, null, null, 0.1, 2.5, 1e+21, 0.30000000000000004]"
    (Json.to_string
       (Json.List
          (List.map
             (fun f -> Json.Float f)
             [ nan; infinity; neg_infinity; 0.1; 2.5; 1e21; 0.1 +. 0.2 ])))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_heap_sorted; prop_lru_capacity; prop_percentile_bounds; prop_hist_relative_error ]

let () =
  Alcotest.run "dbm_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "int_in inclusive" `Quick test_prng_int_in_inclusive;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "bool extremes" `Quick test_prng_bool_extremes;
          Alcotest.test_case "bool frequency" `Quick test_prng_bool_frequency;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
          Alcotest.test_case "sample_distinct" `Quick test_sample_distinct;
          Alcotest.test_case "sample_distinct full range" `Quick test_sample_distinct_full_range;
          Alcotest.test_case "sample_distinct invalid" `Quick test_sample_distinct_invalid;
          Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "split independence" `Quick test_split_independent;
        ] );
      ( "heap",
        [
          Alcotest.test_case "sorts" `Quick test_heap_sorts;
          Alcotest.test_case "peek/pop" `Quick test_heap_peek_pop;
          Alcotest.test_case "to_sorted_list" `Quick test_heap_to_sorted_list;
          Alcotest.test_case "pop releases references" `Quick test_heap_pop_releases;
        ] );
      ( "pool",
        [
          Alcotest.test_case "serial path" `Quick test_pool_serial_path;
          Alcotest.test_case "parallel ordering" `Quick test_pool_parallel_ordering;
          Alcotest.test_case "matches serial" `Quick test_pool_matches_serial;
          Alcotest.test_case "empty and reuse" `Quick test_pool_empty_and_reuse;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "invalid jobs" `Quick test_pool_invalid_jobs;
          Alcotest.test_case "clamps to host cores" `Quick test_pool_clamps_to_cores;
          Alcotest.test_case "oversubscribe escape hatch" `Quick
            test_pool_oversubscribe_escape_hatch;
          Alcotest.test_case "weighted serial path" `Quick test_weighted_serial_path;
          Alcotest.test_case "weighted reuse + any weights" `Quick
            test_weighted_reuse_any_weights;
          Alcotest.test_case "weighted exception propagation" `Quick test_weighted_exception;
          QCheck_alcotest.to_alcotest prop_weighted_matches_list_map;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "hit/miss counters" `Quick test_lru_hit_miss_counters;
          Alcotest.test_case "dirty eviction" `Quick test_lru_dirty_eviction;
          Alcotest.test_case "overwrite" `Quick test_lru_overwrite_no_eviction;
          Alcotest.test_case "dirty entries" `Quick test_lru_dirty_entries;
          Alcotest.test_case "remove/clear" `Quick test_lru_remove_and_clear;
        ] );
      ( "ring",
        [
          Alcotest.test_case "fifo" `Quick test_ring_fifo;
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "push_exn overflow" `Quick test_ring_push_exn;
        ] );
      ( "stats",
        [
          Alcotest.test_case "acc moments" `Quick test_acc_moments;
          Alcotest.test_case "acc empty" `Quick test_acc_empty;
          Alcotest.test_case "acc merge" `Quick test_acc_merge;
          Alcotest.test_case "timeweighted" `Quick test_timeweighted;
          Alcotest.test_case "busy utilization" `Quick test_busy_utilization;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "histogram small-n exact" `Quick test_hist_small_n_exact;
          Alcotest.test_case "histogram large-n error bound" `Quick
            test_hist_large_n_bounded_error;
          Alcotest.test_case "histogram monotone + range" `Quick test_hist_monotone_and_range;
          Alcotest.test_case "histogram validation" `Quick test_hist_validation;
        ] );
      ( "json",
        [
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "nesting" `Quick test_json_nesting;
          Alcotest.test_case "numbers" `Quick test_json_numbers;
        ] );
      ("properties", qsuite);
    ]
