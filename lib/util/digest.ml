(* Canonical content digest for run memoization.

   Two independent 64-bit FNV-1a lanes over a tagged, length-prefixed
   byte encoding.  The tags and length prefixes make the encoding
   injective: no two distinct feeder sequences produce the same byte
   stream, so a digest collision requires a collision of the hash
   itself (~2^-128 per pair for the two lanes).  Not cryptographic —
   the inputs are our own configuration records, not attacker data. *)

type t = { mutable a : int64; mutable b : int64 }

let fnv_prime = 0x100000001b3L

(* Lane A uses the standard FNV-1a offset basis; lane B an arbitrary
   distinct odd constant so the lanes decorrelate immediately. *)
let basis_a = 0xcbf29ce484222325L
let basis_b = 0xaf63bd4c8601b7dfL

let create () = { a = basis_a; b = basis_b }

let add_byte t c =
  let c = Int64.of_int (c land 0xff) in
  t.a <- Int64.mul (Int64.logxor t.a c) fnv_prime;
  t.b <- Int64.mul (Int64.logxor t.b c) fnv_prime

let add_int64 t x =
  for i = 0 to 7 do
    add_byte t (Int64.to_int (Int64.shift_right_logical x (8 * i)))
  done

(* Type tags, one byte each, so e.g. the bytes of an int can never be
   confused with the bytes of a float or the contents of a string. *)
let tag_int = 0x69 (* 'i' *)
let tag_float = 0x66 (* 'f' *)
let tag_bool = 0x62 (* 'b' *)
let tag_string = 0x73 (* 's' *)
let tag_variant = 0x76 (* 'v' *)

let int t x =
  add_byte t tag_int;
  add_int64 t (Int64.of_int x)

let float t x =
  add_byte t tag_float;
  add_int64 t (Int64.bits_of_float x)

let bool t x =
  add_byte t tag_bool;
  add_byte t (if x then 1 else 0)

let string t s =
  add_byte t tag_string;
  add_int64 t (Int64.of_int (String.length s));
  String.iter (fun ch -> add_byte t (Char.code ch)) s

let tag t n =
  add_byte t tag_variant;
  add_int64 t (Int64.of_int n)

let hex t = Printf.sprintf "%016Lx%016Lx" t.a t.b

let of_string s =
  let t = create () in
  string t s;
  hex t

(* Four-lane word-at-a-time FNV-1a: word [j] of every 32-byte block
   folds into lane [j], so four multiply chains run side by side
   instead of one long one, and the loads skip their bounds checks
   after the one range check.  Then the lanes, the 0-3 whole words
   after the last block, the trailing partial word and the length fold
   into one value by the same step.  Each step [h <- (h xor w) * prime]
   is a bijection of [h] for a fixed [w] and of [w] for a fixed [h]
   (the prime is odd), so a value that differs in one word, one lane
   or the partial word differs at the end: one flipped bit always
   changes the checksum.  It is a framing checksum, not a content
   address.  The length is mixed in so "abc" / "abc\000" and prefixes
   of each other cannot collide trivially. *)
external unsafe_get64 : string -> int -> int64 = "%caml_string_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] word s i =
  let w = unsafe_get64 s i in
  if Sys.big_endian then swap64 w else w

let[@inline] step h w = Int64.mul (Int64.logxor h w) fnv_prime

(* Inlined into both callers, so [fnv64_words_match] compares the value
   unboxed: the library builds with [-opaque] in the dev profile, and an
   [int64] returned across a call is boxed. *)
let[@inline] fnv64_core s ~pos ~len =
  let h0 = ref basis_b and h1 = ref basis_a in
  let h2 = ref 0x9e3779b97f4a7c15L and h3 = ref 0xc2b2ae3d27d4eb4fL in
  let i = ref pos and blocks = pos + (len land lnot 31) in
  while !i < blocks do
    h0 := step !h0 (word s !i);
    h1 := step !h1 (word s (!i + 8));
    h2 := step !h2 (word s (!i + 16));
    h3 := step !h3 (word s (!i + 24));
    i := !i + 32
  done;
  let h = ref (step (step (step !h0 !h1) !h2) !h3) in
  let words = pos + (len land lnot 7) in
  while !i < words do
    h := step !h (word s !i);
    i := !i + 8
  done;
  let tail = ref 0L in
  while !i < pos + len do
    tail := Int64.logor (Int64.shift_left !tail 8) (Int64.of_int (Char.code (String.unsafe_get s !i)));
    incr i
  done;
  step (step !h !tail) (Int64.of_int len)

let fnv64_words s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Digest.fnv64_words: bad range";
  fnv64_core s ~pos ~len

let fnv64_words_match s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - 8 || len > String.length s - 8 - pos then
    invalid_arg "Digest.fnv64_words_match: bad range";
  let stored = String.get_int64_le s (pos + len) in
  Int64.equal (fnv64_core s ~pos ~len) stored
