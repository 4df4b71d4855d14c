type pattern =
  | Random_access
  | Sequential
  | Hotspot of { hot_fraction : float; hot_access_prob : float }
  | Zipfian of { theta : float }

type txn = { id : int; pages : int array; writes : bool array }

type config = {
  n_transactions : int;
  min_pages : int;
  max_pages : int;
  write_fraction : float;
  pattern : pattern;
  db_pages : int;
  seed : int;
}

let default =
  {
    n_transactions = 50;
    min_pages = 1;
    max_pages = 250;
    write_fraction = 0.20;
    pattern = Random_access;
    db_pages = 16384;
    seed = 42;
  }

let feed_config d c =
  let module D = Dbm_util.Digest in
  D.string d "workload-config";
  D.int d c.n_transactions;
  D.int d c.min_pages;
  D.int d c.max_pages;
  D.float d c.write_fraction;
  (match c.pattern with
  | Random_access -> D.tag d 0
  | Sequential -> D.tag d 1
  | Hotspot { hot_fraction; hot_access_prob } ->
    D.tag d 2;
    D.float d hot_fraction;
    D.float d hot_access_prob
  | Zipfian { theta } ->
    D.tag d 3;
    D.float d theta);
  D.int d c.db_pages;
  D.int d c.seed

let validate c =
  if c.n_transactions < 0 then invalid_arg "Workload: negative transaction count";
  if c.min_pages < 1 || c.max_pages < c.min_pages then
    invalid_arg "Workload: bad page-count range";
  if c.db_pages < c.max_pages then invalid_arg "Workload: database smaller than max_pages";
  if c.write_fraction < 0.0 || c.write_fraction > 1.0 then
    invalid_arg "Workload: write_fraction out of [0,1]";
  match c.pattern with
  | Hotspot { hot_fraction; hot_access_prob } ->
    if hot_fraction <= 0.0 || hot_fraction >= 1.0 then
      invalid_arg "Workload: hot_fraction out of (0,1)";
    if hot_access_prob < 0.0 || hot_access_prob > 1.0 then
      invalid_arg "Workload: hot_access_prob out of [0,1]";
    if int_of_float (hot_fraction *. float_of_int c.db_pages) < c.max_pages then
      invalid_arg "Workload: hot region smaller than max_pages"
  | Zipfian { theta } ->
    if theta <= 0.0 || not (Float.is_finite theta) then
      invalid_arg "Workload: zipfian theta must be positive and finite"
  | Random_access | Sequential -> ()

(* Unnormalized Zipf CDF over page ranks: cdf.(r) = sum_{i<=r} 1/(i+1)^theta.
   Page 0 is the hottest; a draw is a binary search for the first rank
   whose cumulative weight exceeds a uniform draw on [0, total). *)
let zipf_cdf ~theta ~n =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (r + 1)) theta);
    cdf.(r) <- !acc
  done;
  cdf

let zipf_draw rng cdf =
  let n = Array.length cdf in
  let u = Dbm_util.Prng.float rng cdf.(n - 1) in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

(* --- transaction-size distributions -------------------------------- *)

type size_dist =
  | Uniform_size
  | Pareto_size of { alpha : float }

let validate_size_dist = function
  | Uniform_size -> ()
  | Pareto_size { alpha } ->
    if alpha <= 0.0 || not (Float.is_finite alpha) then
      invalid_arg "Workload: pareto alpha must be positive and finite"

(* Draw a transaction size in [min_pages, max_pages].  The heavy-tailed
   draws are clamped into the configured range, so the tail mass piles
   up at max_pages instead of escaping the database. *)
let draw_size rng c = function
  | Uniform_size -> Dbm_util.Prng.int_in rng ~lo:c.min_pages ~hi:c.max_pages
  | Pareto_size { alpha } ->
    (* Classic Pareto with scale = min_pages: size = min * U^(-1/alpha). *)
    let u = 1.0 -. Dbm_util.Prng.float rng 1.0 in
    let x = float_of_int c.min_pages *. Float.pow u (-1.0 /. alpha) in
    min c.max_pages (max c.min_pages (int_of_float (Float.round x)))

let gen_txn ?zipf ?(size_dist = Uniform_size) rng c id =
  let n = draw_size rng c size_dist in
  let pages =
    match c.pattern with
    | Random_access -> Dbm_util.Prng.sample_distinct rng ~n ~lo:0 ~hi:(c.db_pages - 1)
    | Zipfian _ ->
      (* Skewed draws with duplicate rejection, as with Hotspot: the
         reference string stays a set.  The CDF is precomputed once per
         [generate], not per transaction. *)
      let cdf =
        match zipf with
        | Some cdf -> cdf
        | None -> assert false (* [generate] always precomputes it *)
      in
      let seen = Hashtbl.create (2 * n) in
      let out = Array.make n 0 in
      let filled = ref 0 in
      while !filled < n do
        let p = zipf_draw rng cdf in
        if not (Hashtbl.mem seen p) then begin
          Hashtbl.add seen p ();
          out.(!filled) <- p;
          incr filled
        end
      done;
      out
    | Sequential ->
      let start = Dbm_util.Prng.int rng (c.db_pages - n + 1) in
      Array.init n (fun i -> start + i)
    | Hotspot { hot_fraction; hot_access_prob } ->
      (* Hot pages live in a prefix of the database.  Draw each page
         from the hot or cold region and reject duplicates so the
         reference string stays a set, as with Random_access. *)
      let hot_pages = int_of_float (hot_fraction *. float_of_int c.db_pages) in
      let seen = Hashtbl.create (2 * n) in
      let out = Array.make n 0 in
      let filled = ref 0 in
      while !filled < n do
        let p =
          if Dbm_util.Prng.bool rng ~p:hot_access_prob then Dbm_util.Prng.int rng hot_pages
          else hot_pages + Dbm_util.Prng.int rng (c.db_pages - hot_pages)
        in
        if not (Hashtbl.mem seen p) then begin
          Hashtbl.add seen p ();
          out.(!filled) <- p;
          incr filled
        end
      done;
      out
  in
  (* The write set is a random subset of the read set: mark
     [round (write_fraction * n)] distinct positions. *)
  let n_writes =
    let w = int_of_float (Float.round (c.write_fraction *. float_of_int n)) in
    min n (max 0 w)
  in
  let writes = Array.make n false in
  let positions = Dbm_util.Prng.sample_distinct rng ~n:n_writes ~lo:0 ~hi:(n - 1) in
  Array.iter (fun i -> writes.(i) <- true) positions;
  { id; pages; writes }

let generate_with ?(size_dist = Uniform_size) c =
  validate c;
  validate_size_dist size_dist;
  let rng = Dbm_util.Prng.create c.seed in
  let zipf =
    match c.pattern with
    | Zipfian { theta } -> Some (zipf_cdf ~theta ~n:c.db_pages)
    | Random_access | Sequential | Hotspot _ -> None
  in
  Array.init c.n_transactions (fun id -> gen_txn ?zipf ~size_dist rng c id)

let generate c = generate_with c

(* A read-only transaction class carved out of a generated workload:
   each transaction independently becomes read-only (every write flag
   cleared) with probability [read_frac].  Separate from
   [write_fraction], which thins writes *within* a transaction — a
   server's transaction classes differ per transaction, not per page. *)
let apply_read_fraction rng ~read_frac txns =
  if read_frac < 0.0 || read_frac > 1.0 then
    invalid_arg "Workload.apply_read_fraction: read_frac out of [0,1]";
  Array.map
    (fun t ->
      if Dbm_util.Prng.bool rng ~p:read_frac then
        { t with writes = Array.make (Array.length t.writes) false }
      else t)
    txns

(* A cross-class transaction mix carved out of a generated workload,
   for the sharded server: [class_of] partitions the pages (in practice
   the shard router), and each transaction is remapped to either stay
   inside one class or deliberately span at least two.  Pages are
   re-homed by linear probing from their original value, so the remap
   preserves the workload's shape (sizes, write positions, rough
   locality) while making the cross-class population exact: with
   [cross_frac = 0.] the output has {e zero} cross-class transactions,
   which is what lets a sharded run stay deterministic. *)
let apply_cross_fraction rng ~cross_frac ~classes ~class_of ~db_pages txns =
  if cross_frac < 0.0 || cross_frac > 1.0 then
    invalid_arg "Workload.apply_cross_fraction: cross_frac out of [0,1]";
  if classes < 1 then invalid_arg "Workload.apply_cross_fraction: classes must be >= 1";
  if db_pages < 1 then invalid_arg "Workload.apply_cross_fraction: db_pages must be >= 1";
  (* First page q >= probe start (mod db_pages) in class [c] not already
     used by this transaction. *)
  let rehome used ~start ~c =
    let q = ref (((start mod db_pages) + db_pages) mod db_pages) in
    let tries = ref 0 in
    while !tries < db_pages && not (class_of !q = c && not (Hashtbl.mem used !q)) do
      q := (!q + 1) mod db_pages;
      incr tries
    done;
    if !tries >= db_pages then
      invalid_arg "Workload.apply_cross_fraction: class has too few free pages";
    Hashtbl.add used !q ();
    !q
  in
  Array.map
    (fun t ->
      let n = Array.length t.pages in
      let cross = Dbm_util.Prng.bool rng ~p:cross_frac && n >= 2 && classes >= 2 in
      if cross then begin
        let spans =
          n > 0
          && Array.exists (fun p -> class_of p <> class_of t.pages.(0)) t.pages
        in
        if spans then t
        else begin
          (* Confined to one class: re-home the last page into the next
             class over, keeping the rest in place. *)
          let used = Hashtbl.create (2 * n) in
          Array.iteri (fun i p -> if i < n - 1 then Hashtbl.add used p ()) t.pages;
          let c = (class_of t.pages.(0) + 1) mod classes in
          let pages = Array.copy t.pages in
          pages.(n - 1) <- rehome used ~start:pages.(n - 1) ~c;
          { t with pages }
        end
      end
      else begin
        let c = if n = 0 then 0 else class_of t.pages.(0) in
        if Array.for_all (fun p -> class_of p = c) t.pages then t
        else begin
          let used = Hashtbl.create (2 * n) in
          let pages =
            Array.map
              (fun p ->
                if class_of p = c && not (Hashtbl.mem used p) then begin
                  Hashtbl.add used p ();
                  p
                end
                else rehome used ~start:p ~c)
              t.pages
          in
          { t with pages }
        end
      end)
    txns

(* --- open-loop arrival processes ----------------------------------- *)

type arrival = Poisson of { rate : float }

let validate_arrival (Poisson { rate }) =
  if rate <= 0.0 || not (Float.is_finite rate) then
    invalid_arg "Workload: poisson rate must be positive and finite"

let gen_arrival_times rng (Poisson { rate } as a) ~n =
  validate_arrival a;
  if n < 0 then invalid_arg "Workload.gen_arrival_times: negative count";
  let out = Array.make n 0.0 in
  let t = ref 0.0 in
  for i = 0 to n - 1 do
    t := !t +. Dbm_util.Prng.exponential rng ~mean:(1.0 /. rate);
    out.(i) <- !t
  done;
  out

let read_set_size t = Array.length t.pages

let write_set_size t = Array.fold_left (fun acc w -> if w then acc + 1 else acc) 0 t.writes

let write_pages t =
  let out = ref [] in
  for i = Array.length t.pages - 1 downto 0 do
    if t.writes.(i) then out := t.pages.(i) :: !out
  done;
  !out

let total_pages txns = Array.fold_left (fun acc t -> acc + read_set_size t) 0 txns

let total_writes txns = Array.fold_left (fun acc t -> acc + write_set_size t) 0 txns

let to_string txns =
  let buf = Buffer.create 4096 in
  Array.iter
    (fun t ->
      Buffer.add_string buf (string_of_int t.id);
      Array.iteri
        (fun i page ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int page);
          if t.writes.(i) then Buffer.add_char buf '!')
        t.pages;
      Buffer.add_char buf '\n')
    txns;
  Buffer.contents buf
