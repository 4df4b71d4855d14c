type mode = Shared | Exclusive

type entry = { mutable holders : (int * mode) list }

type t = {
  pages : (int, entry) Hashtbl.t;
  by_owner : (int, int list ref) Hashtbl.t;
}

let create () = { pages = Hashtbl.create 256; by_owner = Hashtbl.create 16 }

(* [Hashtbl.clear] keeps the grown bucket arrays (unlike [reset]), which
   is the point: a recycled lock table re-serves the next run without
   re-growing.  No behaviour depends on bucket layout — the table is
   only ever probed per key, never iterated during a run. *)
let clear t =
  Hashtbl.clear t.pages;
  Hashtbl.clear t.by_owner

let compatible held requested =
  match held, requested with
  | Shared, Shared -> true
  | _ -> false

let strongest a b =
  match a, b with
  | Exclusive, _ | _, Exclusive -> Exclusive
  | Shared, Shared -> Shared

(* Collapse duplicate page requests to their strongest mode. *)
let normalize locks =
  let tbl = Hashtbl.create (List.length locks) in
  List.iter
    (fun (page, mode) ->
      match Hashtbl.find_opt tbl page with
      | None -> Hashtbl.replace tbl page mode
      | Some m -> Hashtbl.replace tbl page (strongest m mode))
    locks;
  Hashtbl.fold (fun page mode acc -> (page, mode) :: acc) tbl []

let grantable t ~owner ~page ~mode =
  match Hashtbl.find_opt t.pages page with
  | None -> true
  | Some e ->
    List.for_all (fun (o, held) -> o = owner || compatible held mode) e.holders

let can_acquire_all t ~owner ~locks =
  List.for_all (fun (page, mode) -> grantable t ~owner ~page ~mode) (normalize locks)

let record_owner t ~owner ~page =
  match Hashtbl.find_opt t.by_owner owner with
  | Some l -> l := page :: !l
  | None -> Hashtbl.replace t.by_owner owner (ref [ page ])

let acquire_all t ~owner ~locks =
  let locks = normalize locks in
  if not (can_acquire_all t ~owner ~locks) then false
  else begin
    List.iter
      (fun (page, mode) ->
        match Hashtbl.find_opt t.pages page with
        | None ->
          Hashtbl.replace t.pages page { holders = [ (owner, mode) ] };
          record_owner t ~owner ~page
        | Some e ->
          (match List.assoc_opt owner e.holders with
          | Some held ->
            e.holders <-
              (owner, strongest held mode) :: List.remove_assoc owner e.holders
          | None ->
            e.holders <- (owner, mode) :: e.holders;
            record_owner t ~owner ~page))
      locks;
    true
  end

let release_all t ~owner =
  match Hashtbl.find_opt t.by_owner owner with
  | None -> ()
  | Some pages ->
    List.iter
      (fun page ->
        match Hashtbl.find_opt t.pages page with
        | None -> ()
        | Some e ->
          e.holders <- List.remove_assoc owner e.holders;
          if e.holders = [] then Hashtbl.remove t.pages page)
      !pages;
    Hashtbl.remove t.by_owner owner

let holds t ~owner ~page =
  match Hashtbl.find_opt t.pages page with
  | None -> None
  | Some e -> List.assoc_opt owner e.holders

let locked_pages t = Hashtbl.length t.pages

