type event = { time : float; source : string; tag : string; detail : string }

type t = {
  ring : event Dbm_util.Ring.t;
  mutable total : int;
}

let create ?(capacity = 10_000) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { ring = Dbm_util.Ring.create ~capacity (); total = 0 }

let emit t ~time ~source ~tag ~detail =
  t.total <- t.total + 1;
  let ev = { time; source; tag; detail } in
  if not (Dbm_util.Ring.push t.ring ev) then begin
    ignore (Dbm_util.Ring.pop t.ring);
    ignore (Dbm_util.Ring.push t.ring ev)
  end

let events t = Dbm_util.Ring.to_list t.ring

let with_tag t tag = List.filter (fun e -> e.tag = tag) (events t)

let total t = t.total

let pp_event ppf e =
  Format.fprintf ppf "%10.2f  %-12s %-10s %s" e.time e.source e.tag e.detail

let dump ppf t =
  List.iter (fun e -> Format.fprintf ppf "%a@." pp_event e) (events t)
