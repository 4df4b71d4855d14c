type t = {
  mutable next_seq : int;
  pins : (int, int) Hashtbl.t;  (* live snapshot id -> pinned horizon *)
  mutable next_id : int;
  mutable epoch : int;  (* bumped by a crash: older handles are dead *)
}

type 'a handle = {
  owner : 'a;
  reg : t;
  id : int;
  horizon : int;
  born : int;
  mutable released : bool;
}

let create () = { next_seq = 1; pins = Hashtbl.create 8; next_id = 0; epoch = 0 }

let commit t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

let pin t owner =
  let id = t.next_id in
  t.next_id <- id + 1;
  let horizon = t.next_seq - 1 in
  Hashtbl.replace t.pins id horizon;
  { owner; reg = t; id; horizon; born = t.epoch; released = false }

let owner h =
  if h.released || h.born <> h.reg.epoch then raise Kv.Txn_finished;
  h.owner

let horizon h = h.horizon

let live t = Hashtbl.length t.pins

let watermark t = Hashtbl.fold (fun _ h acc -> min h acc) t.pins max_int

let release h ~reclaim =
  if not h.released then begin
    h.released <- true;
    (* A crash already dropped the pin. *)
    if h.born = h.reg.epoch then begin
      Hashtbl.remove h.reg.pins h.id;
      reclaim h.owner
    end
  end

let crash t =
  Hashtbl.reset t.pins;
  t.next_seq <- 1;
  t.epoch <- t.epoch + 1
