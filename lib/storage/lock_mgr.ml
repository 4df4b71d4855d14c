type mode = S | X

type outcome = Granted | Would_block | Deadlock of int list

(* A page's lock queues.  Entries sit in an array indexed by page and
   stay in place while their page is free, so a grant allocates only
   the list cells that record it. *)
type entry = {
  mutable holders : (int * mode) list;
  mutable waiters : (int * mode) list;  (* FIFO: oldest first *)
}

(* Per-transaction page lists, maintained alongside every holders/waiters
   mutation.  [held] and [waits] let release_all, waiting and the
   waits-for traversal touch only the pages a transaction is actually
   involved with instead of folding the whole lock table.  Neither list
   repeats a page; an upgrade waits on a page it holds, so a page may
   sit in both. *)
type txn_info = {
  mutable held : int list;
  mutable waits : int list;
}

module Itbl = Hashtbl.Make (Int)

type t = {
  pages : entry array;
  txns : txn_info Itbl.t;
  mutable maybe_cyclic : bool;  (* false only while the waits-for graph holds no cycle *)
}

let create ~pages =
  if pages < 0 then invalid_arg "Lock_mgr.create: negative page count";
  {
    pages = Array.init pages (fun _ -> { holders = []; waiters = [] });
    txns = Itbl.create 16;
    maybe_cyclic = false;
  }

let entry t page =
  if page < 0 || page >= Array.length t.pages then invalid_arg "Lock_mgr: page out of range";
  t.pages.(page)

let info t txn =
  match Itbl.find t.txns txn with
  | i -> i
  | exception Not_found ->
    let i = { held = []; waits = [] } in
    Itbl.replace t.txns txn i;
    i

let compatible held requested =
  match held, requested with
  | S, S -> true
  | _ -> false

(* The helpers below are top-level recursions rather than closures
   over [txn] and [mode], so the grant path allocates nothing of its
   own.  [without] returns its argument itself when nothing is
   dropped. *)

(* Holders other than [txn] whose lock is incompatible with [mode]. *)
let rec conflicting ~txn ~mode = function
  | [] -> []
  | (o, held) :: rest ->
    if o <> txn && not (compatible held mode) then o :: conflicting ~txn ~mode rest
    else conflicting ~txn ~mode rest

(* Waiters at positions strictly before [txn] in the FIFO queue whose
   requests are incompatible with [mode], nearest first, onto [acc]. *)
let rec waiters_ahead ~txn ~mode acc = function
  | [] -> acc  (* txn not queued yet: everyone ahead *)
  | (w, _) :: _ when w = txn -> acc
  | (w, wmode) :: rest ->
    waiters_ahead ~txn ~mode (if compatible wmode mode then acc else w :: acc) rest

let rec without txn l =
  match l with
  | [] -> l
  | ((o, _) as x) :: rest ->
    if o = txn then without txn rest
    else
      let rest' = without txn rest in
      if rest' == rest then l else x :: rest'

let rec drop_page page = function
  | [] -> []
  | p :: rest -> if p = page then rest else p :: drop_page page rest

let rec queued ~txn ~mode = function
  | [] -> false
  | (w, m) :: rest -> (w = txn && m = mode) || queued ~txn ~mode rest

(* Waits-for edges implied by the recorded waiters: a waiter waits for
   every incompatible holder of its page and for every incompatible
   waiter queued ahead of it (FIFO fairness).  Only the pages in the
   transaction's own waits list can contribute edges. *)
let blockers t i txn =
  List.fold_left
    (fun acc page ->
      let e = t.pages.(page) in
      List.fold_left
        (fun acc (w, mode) ->
          if w = txn then
            let from_holders =
              List.fold_left
                (fun acc (o, held) ->
                  if o <> txn && not (compatible held mode) then o :: acc else acc)
                acc e.holders
            in
            waiters_ahead ~txn ~mode from_holders e.waiters
          else acc)
        acc e.waiters)
    [] i.waits

(* Would adding edge [txn -> targets] close a cycle?  DFS over the
   waits-for graph from each target looking for [txn]; the path is
   built on the way back out, once a cycle is found. *)
let find_cycle t ~txn ~targets =
  let visited = Itbl.create 16 in
  let rec first = function
    | [] -> None
    | n :: rest -> ( match dfs n with Some _ as found -> found | None -> first rest)
  and dfs node =
    if node = txn then Some [ node ]
    else if Itbl.mem visited node then None
    else begin
      Itbl.replace visited node ();
      match Itbl.find t.txns node with
      | exception Not_found -> None
      | i -> ( match first (blockers t i node) with Some path -> Some (node :: path) | None -> None)
    end
  in
  first targets

let waiting t ~txn =
  match Itbl.find t.txns txn with i -> i.waits <> [] | exception Not_found -> false

(* Returns whether the waiter was newly queued, i.e. added edges. *)
let record_waiter t e ~page ~txn ~mode =
  let fresh = not (queued ~txn ~mode e.waiters) in
  if fresh then e.waiters <- e.waiters @ [ (txn, mode) ];
  let i = info t txn in
  if not (List.mem page i.waits) then i.waits <- page :: i.waits;
  fresh

let remove_waiter t e ~page ~txn =
  e.waiters <- without txn e.waiters;
  match Itbl.find t.txns txn with
  | i -> i.waits <- drop_page page i.waits
  | exception Not_found -> ()

(* Edges appear only in [grant] and [block]; removals never close a
   cycle, and [settle] clears the flag after them once none is left. *)
let settle t =
  if t.maybe_cyclic then
    t.maybe_cyclic <-
      Itbl.fold
        (fun txn i found ->
          found || (i.waits <> [] && find_cycle t ~txn ~targets:(blockers t i txn) <> None))
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
  if (not t.maybe_cyclic) && queued ~txn ~mode e.waiters then (Would_block, false)
  else
    match find_cycle t ~txn ~targets with
    | Some cycle -> (Deadlock (txn :: cycle), false)
    | None ->
      let fresh = record_waiter t e ~page ~txn ~mode in
      if upgrade && fresh && (not t.maybe_cyclic)
         && find_cycle t ~txn ~targets:(waiters_ahead ~txn ~mode [] e.waiters) <> None
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
    let conflicting = conflicting ~txn ~mode e.holders in
    (* FIFO fairness: an incompatible waiter queued ahead of us also
       blocks us (prevents writer starvation behind a reader stream). *)
    let blocking_waiters = waiters_ahead ~txn ~mode [] e.waiters in
    if conflicting = [] && blocking_waiters = [] then begin
      e.holders <- (txn, mode) :: e.holders;
      let i = info t txn in
      i.held <- page :: i.held;
      grant t e ~page ~txn
    end
    else block t e ~page ~txn ~mode ~targets:(conflicting @ blocking_waiters) ~upgrade:false

let acquire t ~txn ~page ~mode = fst (acquire_wait_info t ~txn ~page ~mode)

let rec leave t ~txn = function
  | [] -> ()
  | page :: rest ->
    let e = t.pages.(page) in
    e.holders <- without txn e.holders;
    e.waiters <- without txn e.waiters;
    leave t ~txn rest

let release_all_pages t ~txn =
  match Itbl.find t.txns txn with
  | exception Not_found -> []
  | i ->
    leave t ~txn i.held;
    leave t ~txn i.waits;
    Itbl.remove t.txns txn;
    settle t;
    (* An upgrade waits on a page it holds: name that page once. *)
    List.fold_left (fun acc page -> if List.mem page i.held then acc else page :: acc) i.held i.waits

let release_all t ~txn = ignore (release_all_pages t ~txn)

let holds t ~txn ~page = List.assoc_opt txn (entry t page).holders

let locked_pages t = Array.fold_left (fun n e -> if e.holders <> [] then n + 1 else n) 0 t.pages
