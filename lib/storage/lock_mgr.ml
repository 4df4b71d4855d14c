type mode = S | X

type outcome = Granted | Would_block | Deadlock of int list

type entry = {
  mutable holders : (int * mode) list;
  mutable waiters : (int * mode) list;  (* FIFO: oldest first *)
}

(* Per-transaction page sets, maintained alongside every holders/waiters
   mutation.  [held] and [waits] let release_all, waiting and the
   waits-for traversal touch only the pages a transaction is actually
   involved with instead of folding the whole lock table. *)
type txn_info = {
  held : (int, unit) Hashtbl.t;
  waits : (int, unit) Hashtbl.t;
}

type t = {
  pages : (int, entry) Hashtbl.t;
  txns : (int, txn_info) Hashtbl.t;
  mutable maybe_cyclic : bool;  (* false only while the waits-for graph holds no cycle *)
}

let create () = { pages = Hashtbl.create 64; txns = Hashtbl.create 16; maybe_cyclic = false }

let entry t page =
  match Hashtbl.find_opt t.pages page with
  | Some e -> e
  | None ->
    let e = { holders = []; waiters = [] } in
    Hashtbl.replace t.pages page e;
    e

let info t txn =
  match Hashtbl.find_opt t.txns txn with
  | Some i -> i
  | None ->
    let i = { held = Hashtbl.create 8; waits = Hashtbl.create 4 } in
    Hashtbl.replace t.txns txn i;
    i

let compatible held requested =
  match held, requested with
  | S, S -> true
  | _ -> false

let conflicts_with t ~txn ~page ~mode =
  match Hashtbl.find_opt t.pages page with
  | None -> []
  | Some e ->
    List.filter_map
      (fun (o, held) -> if o <> txn && not (compatible held mode) then Some o else None)
      e.holders

(* Waiters at positions strictly before [txn] in the FIFO queue whose
   requests are incompatible with [mode]. *)
let waiters_ahead e ~txn ~mode =
  let rec go acc = function
    | [] -> List.rev acc  (* txn not queued yet: everyone ahead *)
    | (w, _) :: _ when w = txn -> List.rev acc
    | (w, wmode) :: rest ->
      go (if compatible wmode mode then acc else w :: acc) rest
  in
  go [] e.waiters

(* Waits-for edges implied by the recorded waiters: a waiter waits for
   every incompatible holder of its page and for every incompatible
   waiter queued ahead of it (FIFO fairness).  Only the pages in the
   transaction's own waits set can contribute edges. *)
let blockers t txn =
  match Hashtbl.find_opt t.txns txn with
  | None -> []
  | Some i ->
    Hashtbl.fold
      (fun page () acc ->
        match Hashtbl.find_opt t.pages page with
        | None -> acc
        | Some e ->
          List.fold_left
            (fun acc (w, mode) ->
              if w = txn then
                let from_holders =
                  List.fold_left
                    (fun acc (o, held) ->
                      if o <> txn && not (compatible held mode) then o :: acc else acc)
                    acc e.holders
                in
                List.rev_append (waiters_ahead e ~txn ~mode) from_holders
              else acc)
            acc e.waiters)
      i.waits []

(* Would adding edge [txn -> targets] close a cycle?  DFS over the
   waits-for graph from each target looking for [txn]. *)
let find_cycle t ~txn ~targets =
  let visited = Hashtbl.create 16 in
  let rec dfs path node =
    if node = txn then Some (List.rev (node :: path))
    else if Hashtbl.mem visited node then None
    else begin
      Hashtbl.replace visited node ();
      let next = blockers t node in
      List.fold_left
        (fun acc n -> match acc with Some _ -> acc | None -> dfs (node :: path) n)
        None next
    end
  in
  List.fold_left
    (fun acc target -> match acc with Some _ -> acc | None -> dfs [] target)
    None targets

let waiting t ~txn =
  match Hashtbl.find_opt t.txns txn with
  | Some i -> Hashtbl.length i.waits > 0
  | None -> false

let queued e ~txn ~mode = List.exists (fun (w, m) -> w = txn && m = mode) e.waiters

(* Returns whether the waiter was newly queued, i.e. added edges. *)
let record_waiter t e ~page ~txn ~mode =
  let fresh = not (queued e ~txn ~mode) in
  if fresh then e.waiters <- e.waiters @ [ (txn, mode) ];
  Hashtbl.replace (info t txn).waits page ();
  fresh

let remove_waiter t e ~page ~txn =
  e.waiters <- List.filter (fun (w, _) -> w <> txn) e.waiters;
  match Hashtbl.find_opt t.txns txn with
  | Some i -> Hashtbl.remove i.waits page
  | None -> ()

(* Edges appear only in [grant] and [block]; removals never close a
   cycle, and [settle] clears the flag after them once none is left. *)
let settle t =
  if t.maybe_cyclic then
    t.maybe_cyclic <-
      Hashtbl.fold
        (fun txn i found ->
          found
          || (Hashtbl.length i.waits > 0 && find_cycle t ~txn ~targets:(blockers t txn) <> None))
        t.txns false

(* A grant's new edges all point at [txn]: they can close a cycle only
   when [txn] still waits on another page and others wait on this one. *)
let grant t e ~page ~txn =
  remove_waiter t e ~page ~txn;
  if e.waiters <> [] && waiting t ~txn then t.maybe_cyclic <- true;
  (Granted, false)

(* A blocked request.  While the graph is acyclic, a repeat block's
   edges close no cycle, so it needs no search; and a new waiter's
   search covers exactly its new edges, except an upgrade's, which
   covers the holders only: search once more from the waiters ahead. *)
let block t e ~page ~txn ~mode ~targets ~upgrade =
  if (not t.maybe_cyclic) && queued e ~txn ~mode then (Would_block, false)
  else
    match find_cycle t ~txn ~targets with
    | Some cycle -> (Deadlock (txn :: cycle), false)
    | None ->
      let fresh = record_waiter t e ~page ~txn ~mode in
      if upgrade && fresh && (not t.maybe_cyclic)
         && find_cycle t ~txn ~targets:(waiters_ahead e ~txn ~mode) <> None
      then t.maybe_cyclic <- true;
      (Would_block, fresh && t.maybe_cyclic)

let acquire_wait_info t ~txn ~page ~mode =
  let e = entry t page in
  match List.assoc_opt txn e.holders with
  | Some held when held = X || mode = S ->
    (* Already held in a sufficient mode. *)
    remove_waiter t e ~page ~txn;
    (Granted, false)
  | Some _ ->
    (* Upgrade S -> X: allowed when we are the only holder. *)
    if List.for_all (fun (o, _) -> o = txn) e.holders then begin
      e.holders <- [ (txn, X) ];
      grant t e ~page ~txn
    end
    else
      let others = List.filter_map (fun (o, _) -> if o <> txn then Some o else None) e.holders in
      block t e ~page ~txn ~mode ~targets:others ~upgrade:true
  | None ->
    let conflicting = conflicts_with t ~txn ~page ~mode in
    (* FIFO fairness: an incompatible waiter queued ahead of us also
       blocks us (prevents writer starvation behind a reader stream). *)
    let blocking_waiters = waiters_ahead e ~txn ~mode in
    if conflicting = [] && blocking_waiters = [] then begin
      e.holders <- (txn, mode) :: e.holders;
      Hashtbl.replace (info t txn).held page ();
      grant t e ~page ~txn
    end
    else block t e ~page ~txn ~mode ~targets:(conflicting @ blocking_waiters) ~upgrade:false

let acquire t ~txn ~page ~mode = fst (acquire_wait_info t ~txn ~page ~mode)

let release_all_pages t ~txn =
  match Hashtbl.find_opt t.txns txn with
  | None -> []
  | Some i ->
    let touched = ref [] in
    let seen = Hashtbl.create 16 in
    let visit page =
      if not (Hashtbl.mem seen page) then begin
        Hashtbl.replace seen page ();
        match Hashtbl.find_opt t.pages page with
        | None -> ()
        | Some e ->
          e.holders <- List.filter (fun (o, _) -> o <> txn) e.holders;
          e.waiters <- List.filter (fun (w, _) -> w <> txn) e.waiters;
          if e.holders = [] && e.waiters = [] then Hashtbl.remove t.pages page;
          touched := page :: !touched
      end
    in
    Hashtbl.iter (fun page () -> visit page) i.held;
    Hashtbl.iter (fun page () -> visit page) i.waits;
    Hashtbl.remove t.txns txn;
    settle t;
    !touched

let release_all t ~txn = ignore (release_all_pages t ~txn)

let holds t ~txn ~page =
  match Hashtbl.find_opt t.pages page with
  | None -> None
  | Some e -> List.assoc_opt txn e.holders

let locked_pages t =
  Hashtbl.fold (fun _ e acc -> if e.holders <> [] then acc + 1 else acc) t.pages 0
