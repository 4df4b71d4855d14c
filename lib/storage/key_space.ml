type t = { n_keys : int; keys_per_page : int; pages : int }

let create ~engine ?(n_keys = 256) ?(keys_per_page = 4) () =
  if n_keys <= 0 then invalid_arg (engine ^ ".create: need at least one key");
  if keys_per_page <= 0 then invalid_arg (engine ^ ".create: bad keys_per_page");
  { n_keys; keys_per_page; pages = (n_keys + keys_per_page - 1) / keys_per_page }

let check t k = if k < 0 || k >= t.n_keys then invalid_arg (Printf.sprintf "key %d out of range" k)

let page_of t k = k / t.keys_per_page
