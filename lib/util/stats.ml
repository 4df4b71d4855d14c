module Acc = struct
  type t = { mutable count : int; mutable mean : float; mutable max : float }

  let create () = { count = 0; mean = 0.0; max = neg_infinity }

  let add t x =
    t.count <- t.count + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.count);
    if x > t.max then t.max <- x

  let mean t = if t.count = 0 then 0.0 else t.mean

  let max t =
    if t.count = 0 then invalid_arg "Stats.Acc.max: empty accumulator";
    t.max
end

module Timeweighted = struct
  (* An all-float record, so its mutable fields get flat (unboxed)
     stores. *)
  type t = { t0 : float; mutable last_time : float; mutable level : float; mutable area : float }

  let create ?(t0 = 0.0) () = { t0; last_time = t0; level = 0.0; area = 0.0 }

  let update t ~now ~level =
    assert (now >= t.last_time);
    t.area <- t.area +. (t.level *. (now -. t.last_time));
    t.last_time <- now;
    t.level <- level

  let level t = t.level

  let mean t ~now =
    let span = now -. t.t0 in
    if span <= 0.0 then 0.0
    else (t.area +. (t.level *. (now -. t.last_time))) /. span
end

module Histogram = struct
  (* HDR-style fixed-bucket log-scale histogram over non-negative
     floats: each power-of-two range is cut into [subs] linear
     sub-buckets, so the relative quantile error is bounded by
     1/(2*subs) (~0.8% at 64 sub-buckets) at any magnitude.  The first
     [exact_limit] samples are additionally kept raw, making quantiles
     on small samples exact — the server's per-point latency sets in
     tests stay below the limit, the saturated sweeps do not. *)

  let subs = 64

  let sub_bits = 6 (* log2 subs *)

  (* Exponent range covered exactly: frexp exponents in [min_exp,
     max_exp) — magnitudes from ~1e-9 to ~1e18, far beyond any
     microsecond latency this records.  Out-of-range values clamp into
     the edge buckets (max is still tracked exactly). *)
  let min_exp = -30

  let max_exp = 60

  let n_buckets = ((max_exp - min_exp) * subs) + 1 (* + the zero bucket *)

  type t = {
    counts : int array;
    exact : float array;  (* first [exact_limit] raw samples *)
    exact_limit : int;
    mutable count : int;
    mutable total : float;
    mutable max : float;
  }

  let create ?(exact_limit = 512) () =
    if exact_limit < 0 then invalid_arg "Stats.Histogram.create: negative exact_limit";
    {
      counts = Array.make n_buckets 0;
      exact = Array.make exact_limit 0.0;
      exact_limit;
      count = 0;
      total = 0.0;
      max = neg_infinity;
    }

  let bucket_of v =
    if v <= 0.0 then 0
    else begin
      let m, e = Float.frexp v in
      if e < min_exp then 1
      else if e >= max_exp then n_buckets - 1
      else begin
        (* m in [0.5, 1): 2m - 1 in [0, 1) picks the linear sub-bucket. *)
        let sub = int_of_float (((m *. 2.0) -. 1.0) *. float_of_int subs) in
        let sub = if sub >= subs then subs - 1 else sub in
        1 + ((e - min_exp) lsl sub_bits) + sub
      end
    end

  (* Midpoint of the bucket's value range — the representative a
     quantile query reports for samples that fell in it. *)
  let repr i =
    if i = 0 then 0.0
    else begin
      let e = ((i - 1) lsr sub_bits) + min_exp in
      let sub = (i - 1) land (subs - 1) in
      Float.ldexp (0.5 +. ((float_of_int sub +. 0.5) /. float_of_int (2 * subs))) e
    end

  let add t v =
    if Float.is_nan v then invalid_arg "Stats.Histogram.add: nan sample";
    t.counts.(bucket_of v) <- t.counts.(bucket_of v) + 1;
    if t.count < t.exact_limit then t.exact.(t.count) <- v;
    t.count <- t.count + 1;
    t.total <- t.total +. v;
    if v > t.max then t.max <- v

  let count t = t.count

  let total t = t.total

  let mean t = if t.count = 0 then 0.0 else t.total /. float_of_int t.count

  let max t =
    if t.count = 0 then invalid_arg "Stats.Histogram.max: empty histogram";
    t.max

  let percentile t ~p =
    if t.count = 0 then invalid_arg "Stats.Histogram.percentile: empty histogram";
    if p < 0.0 || p > 100.0 then invalid_arg "Stats.Histogram.percentile: p out of [0,100]";
    if t.count <= t.exact_limit then begin
      (* Small sample: exact, same interpolation as {!Stats.percentile}. *)
      let a = Array.sub t.exact 0 t.count in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n = 1 then a.(0)
      else begin
        let rank = p /. 100.0 *. float_of_int (n - 1) in
        let lo = int_of_float (Float.floor rank) in
        let hi = Stdlib.min (lo + 1) (n - 1) in
        let frac = rank -. float_of_int lo in
        a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
      end
    end
    else begin
      (* Bucketed: first bucket whose cumulative count reaches the
         rank.  Never overshoots the exact maximum. *)
      let rank =
        Stdlib.max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.count)))
      in
      let i = ref 0 and seen = ref 0 in
      while !seen < rank && !i < n_buckets do
        seen := !seen + t.counts.(!i);
        if !seen < rank then incr i
      done;
      Float.min (repr !i) t.max
    end

  let p50 t = percentile t ~p:50.0

  let p99 t = percentile t ~p:99.0

  let p999 t = percentile t ~p:99.9

  (* Merging is exact with respect to quantiles: the bucket counts add
     elementwise (the bucketed path sees the same cumulative walk as a
     histogram that recorded the union), and the raw prefix is kept
     only while it is complete — the merged [exact_limit] is the min of
     the two, so whenever the merged count still fits, both inputs'
     prefixes necessarily held every one of their samples.  The exact
     path sorts before interpolating, so concatenation order cannot
     show through. *)
  let merge a b =
    let exact_limit = Stdlib.min a.exact_limit b.exact_limit in
    let t = create ~exact_limit () in
    Array.iteri (fun i c -> t.counts.(i) <- c + b.counts.(i)) a.counts;
    t.count <- a.count + b.count;
    t.total <- a.total +. b.total;
    t.max <- Float.max a.max b.max;
    let filled = ref 0 in
    let take (src : t) =
      let avail = Stdlib.min src.count src.exact_limit in
      let n = Stdlib.min avail (exact_limit - !filled) in
      Array.blit src.exact 0 t.exact !filled n;
      filled := !filled + n
    in
    take a;
    take b;
    t
end

let percentile xs ~p =
  if xs = [] then invalid_arg "Stats.percentile: empty sample";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of [0,100]";
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 1 then a.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

module Busy = struct
  type t = { mutable busy : float }

  let create () = { busy = 0.0 }
  let reset t = t.busy <- 0.0
  let add_busy t d = t.busy <- t.busy +. d

  let utilization t ~elapsed ~servers =
    if elapsed <= 0.0 || servers <= 0 then 0.0
    else Float.min 1.0 (Float.max 0.0 (t.busy /. (elapsed *. float_of_int servers)))
end
