type loc = { cylinder : int; track : int; slot : int }

type t = Sequential | Scrambled of int

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* An affine permutation [p -> (a*p + b) mod n] with [gcd(a, n) = 1] is a
   deterministic bijection on [0, n).  With a large multiplier, logically
   adjacent pages land ~[a] pages apart, i.e. on far-apart cylinders,
   which is exactly the scattering the scrambled configuration models. *)
let scramble_coeffs seed n =
  let rng = Dbm_util.Prng.create (seed lxor 0x5deece66) in
  let rec pick_a () =
    let a = 1 + Dbm_util.Prng.int rng (n - 1) in
    (* Keep the multiplier away from 1 so neighbours really scatter. *)
    if gcd a n = 1 && a > n / 7 then a else pick_a ()
  in
  let a = if n <= 2 then 1 else pick_a () in
  let b = Dbm_util.Prng.int rng n in
  (a, b)

(* Coefficients depend only on (seed, capacity); memoize them so locating
   a page stays O(1).  The cache is shared by every simulation domain,
   hence the mutex; a race on the same key just recomputes the same
   deterministic pair. *)
let coeff_cache : (int * int, int * int) Hashtbl.t = Hashtbl.create 8

let coeff_lock = Mutex.create ()

let scramble_coeffs seed n =
  Mutex.lock coeff_lock;
  match Hashtbl.find_opt coeff_cache (seed, n) with
  | Some c ->
    Mutex.unlock coeff_lock;
    c
  | None ->
    Mutex.unlock coeff_lock;
    let c = scramble_coeffs seed n in
    Mutex.lock coeff_lock;
    Hashtbl.replace coeff_cache (seed, n) c;
    Mutex.unlock coeff_lock;
    c

let physical_index params layout ~page =
  if page < 0 then invalid_arg "Layout.locate: negative page";
  let n = Params.total_pages params in
  let p = page mod n in
  match layout with
  | Sequential -> p
  | Scrambled seed ->
    let a, b = scramble_coeffs seed n in
    ((a * p) + b) mod n

(* Resolve everything that depends only on (params, layout) once, so the
   per-page call is pure integer arithmetic: no [loc] record, and for
   scrambled layouts no trip through the mutex-guarded coefficient
   cache. *)
let cylinder_fn params layout =
  let n = Params.total_pages params in
  let per_cyl = Params.pages_per_cylinder params in
  match layout with
  | Sequential ->
    fun page ->
      if page < 0 then invalid_arg "Layout.locate: negative page";
      page mod n / per_cyl
  | Scrambled seed ->
    let a, b = scramble_coeffs seed n in
    fun page ->
      if page < 0 then invalid_arg "Layout.locate: negative page";
      ((a * (page mod n)) + b) mod n / per_cyl

let locate params layout ~page =
  let p = physical_index params layout ~page in
  let per_cyl = Params.pages_per_cylinder params in
  let cylinder = p / per_cyl in
  let within = p mod per_cyl in
  (* Slot-major: consecutive pages fill consecutive rotational slots of a
     track before moving to the next track of the cylinder. *)
  let track = within / params.Params.pages_per_track in
  let slot = within mod params.Params.pages_per_track in
  { cylinder; track; slot }

let same_cylinder params layout p q =
  (locate params layout ~page:p).cylinder = (locate params layout ~page:q).cylinder

let slot_positions params layout pages =
  let slots =
    List.sort_uniq Int.compare (List.map (fun p -> (locate params layout ~page:p).slot) pages)
  in
  List.length slots

let permutation ~seed ~n x =
  if x < 0 || x >= n then invalid_arg "Layout.permutation: input out of range";
  if n <= 2 then x
  else begin
    let a, b = scramble_coeffs seed n in
    ((a * x) + b) mod n
  end

let feed_digest d t =
  let module D = Dbm_util.Digest in
  match t with
  | Sequential -> D.tag d 0
  | Scrambled seed ->
    D.tag d 1;
    D.int d seed

let permutation_fn ~seed ~n =
  if n <= 2 then fun x ->
    if x < 0 || x >= n then invalid_arg "Layout.permutation: input out of range";
    x
  else begin
    let a, b = scramble_coeffs seed n in
    fun x ->
      if x < 0 || x >= n then invalid_arg "Layout.permutation: input out of range";
      ((a * x) + b) mod n
  end
