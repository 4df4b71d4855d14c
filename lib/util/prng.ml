type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = { state = bits64 t }

(* Non-negative 62-bit value: safe to use as an OCaml [int]. *)
let bits62 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let rec draw () =
    let r = bits62 t in
    let v = r mod bound in
    if r - v > (max_int - bound) + 1 then draw () else v
  in
  draw ()

let int_in t ~lo ~hi =
  if hi < lo then invalid_arg "Prng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let float t bound =
  let mantissa = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (mantissa /. 9007199254740992.0 (* 2^53 *))

let bool t ~p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let exponential t ~mean =
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_distinct t ~n ~lo ~hi =
  let span = hi - lo + 1 in
  if n < 0 || span < n then invalid_arg "Prng.sample_distinct: range too small";
  if n = 0 then [||]
  else if n * 3 >= span then begin
    (* Dense case: shuffle a prefix of the whole range. *)
    let all = Array.init span (fun i -> lo + i) in
    shuffle t all;
    Array.sub all 0 n
  end
  else begin
    (* Sparse case: rejection into a hash set keeps memory proportional
       to [n] even for very large ranges. *)
    let seen = Hashtbl.create (2 * n) in
    let out = Array.make n lo in
    let filled = ref 0 in
    while !filled < n do
      let v = int_in t ~lo ~hi in
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        out.(!filled) <- v;
        incr filled
      end
    done;
    out
  end
