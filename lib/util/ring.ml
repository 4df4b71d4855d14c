type 'a t = {
  data : 'a option array;
  mutable first : int; (* index of the oldest element *)
  mutable length : int;
}

let create ~capacity () =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { data = Array.make capacity None; first = 0; length = 0 }

let is_full t = t.length = Array.length t.data

let push t x =
  if is_full t then false
  else begin
    let i = (t.first + t.length) mod Array.length t.data in
    t.data.(i) <- Some x;
    t.length <- t.length + 1;
    true
  end

let pop t =
  if t.length = 0 then None
  else begin
    let x = t.data.(t.first) in
    t.data.(t.first) <- None;
    t.first <- (t.first + 1) mod Array.length t.data;
    t.length <- t.length - 1;
    x
  end

let to_list t =
  let rec go i acc =
    if i = t.length then List.rev acc
    else
      match t.data.((t.first + i) mod Array.length t.data) with
      | Some x -> go (i + 1) (x :: acc)
      | None -> assert false
  in
  go 0 []
