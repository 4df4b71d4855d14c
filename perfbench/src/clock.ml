(* Monotonic nanosecond clock: one vDSO call, no allocation. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let ms_of_ns ns = float_of_int ns /. 1e6

let s_of_ns ns = float_of_int ns /. 1e9
