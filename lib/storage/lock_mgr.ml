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
   sit in both.  [mark] is the number of the last deadlock search that
   visited the transaction. *)
type txn_info = {
  mutable held : int list;
  mutable waits : int list;
  mutable mark : int;
}

module Itbl = Hashtbl.Make (Int)

type t = {
  pages : entry array;
  txns : txn_info Itbl.t;
  mutable maybe_cyclic : bool;  (* false only while the waits-for graph holds no cycle *)
  mutable search : int;  (* number of the current deadlock search *)
}

let create ~pages =
  if pages < 0 then invalid_arg "Lock_mgr.create: negative page count";
  {
    pages = Array.init pages (fun _ -> { holders = []; waiters = [] });
    txns = Itbl.create 16;
    maybe_cyclic = false;
    search = 0;
  }

let entry t page =
  if page < 0 || page >= Array.length t.pages then invalid_arg "Lock_mgr: page out of range";
  t.pages.(page)

let info t txn =
  match Itbl.find t.txns txn with
  | i -> i
  | exception Not_found ->
    let i = { held = []; waits = []; mark = 0 } in
    Itbl.replace t.txns txn i;
    i

let compatible held requested =
  match held, requested with
  | S, S -> true
  | _ -> false

(* The helpers below are top-level recursions rather than closures
   over [txn] and [mode], so neither a grant nor a block allocates
   anything of its own.  [without] returns its argument itself when
   nothing is dropped. *)

(* Does a holder other than [txn] hold a lock incompatible with [mode]? *)
let rec conflicts ~txn ~mode = function
  | [] -> false
  | (o, held) :: rest -> (o <> txn && not (compatible held mode)) || conflicts ~txn ~mode rest

(* Is a waiter incompatible with [mode] queued ahead of [txn] (FIFO
   fairness: it prevents writer starvation behind a reader stream)?
   Everyone is ahead of a transaction that is not queued yet. *)
let rec blocked_ahead ~txn ~mode = function
  | [] -> false
  | (w, wmode) :: rest -> w <> txn && ((not (compatible wmode mode)) || blocked_ahead ~txn ~mode rest)

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

(* The deadlock search: a depth-first walk of the waits-for graph that
   visits each transaction once per search (its [mark]) and returns the
   path to [goal], or [] when [goal] is unreachable; only a found path
   allocates.  A waiter waits for every incompatible holder of its page
   and for every incompatible waiter queued ahead of it; only the pages
   in its own waits list carry its edges.  [reaches] enters a
   transaction; the others walk one transaction's edges. *)
let rec reaches t ~goal txn =
  if txn = goal then [ goal ]
  else
    match Itbl.find t.txns txn with
    | exception Not_found -> []
    | i when i.mark = t.search -> []
    | i -> (
      i.mark <- t.search;
      match from_pages t ~goal txn i.waits with [] -> [] | path -> txn :: path)

and from_pages t ~goal txn = function
  | [] -> []
  | page :: rest -> (
    let e = t.pages.(page) in
    match from_queue t ~goal txn e e.waiters with [] -> from_pages t ~goal txn rest | path -> path)

(* [txn]'s requests in a page's queue, one per mode it waits in. *)
and from_queue t ~goal txn e = function
  | [] -> []
  | (w, mode) :: rest -> (
    match if w = txn then from_request t ~goal txn mode e else [] with
    | [] -> from_queue t ~goal txn e rest
    | path -> path)

and from_request t ~goal txn mode e =
  match from_holders t ~goal txn mode e.holders with
  | [] -> from_ahead t ~goal txn mode e.waiters
  | path -> path

and from_holders t ~goal txn mode = function
  | [] -> []
  | (o, held) :: rest -> (
    match if o <> txn && not (compatible held mode) then reaches t ~goal o else [] with
    | [] -> from_holders t ~goal txn mode rest
    | path -> path)

and from_ahead t ~goal txn mode = function
  | [] -> []
  | (w, _) :: _ when w = txn -> []
  | (w, wmode) :: rest -> (
    match if compatible wmode mode then [] else reaches t ~goal w with
    | [] -> from_ahead t ~goal txn mode rest
    | path -> path)

let new_search t = t.search <- t.search + 1

let waiting t ~txn =
  match Itbl.find t.txns txn with i -> i.waits <> [] | exception Not_found -> false

let remove_waiter t e ~page ~txn =
  e.waiters <- without txn e.waiters;
  match Itbl.find t.txns txn with
  | i -> i.waits <- drop_page page i.waits
  | exception Not_found -> ()

(* Edges appear only in [grant] and [block]; removals never close a
   cycle, and [settle] clears the flag after them once no waiting
   transaction reaches itself. *)
let settle t =
  if t.maybe_cyclic then
    t.maybe_cyclic <-
      Itbl.fold
        (fun txn i found ->
          found
          || i.waits <> []
             && begin
                  new_search t;
                  from_pages t ~goal:txn txn i.waits <> []
                end)
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
let block t e ~page ~txn ~mode ~upgrade =
  let repeat = queued ~txn ~mode e.waiters in
  if repeat && not t.maybe_cyclic then (Would_block, false)
  else begin
    new_search t;
    match
      if upgrade then from_holders t ~goal:txn txn mode e.holders
      else from_request t ~goal:txn txn mode e
    with
    | _ :: _ as cycle -> (Deadlock (txn :: cycle), false)
    | [] ->
      if not repeat then e.waiters <- e.waiters @ [ (txn, mode) ];
      let i = info t txn in
      if not (List.mem page i.waits) then i.waits <- page :: i.waits;
      if upgrade && (not repeat) && not t.maybe_cyclic then begin
        new_search t;
        if from_ahead t ~goal:txn txn mode e.waiters <> [] then t.maybe_cyclic <- true
      end;
      (Would_block, (not repeat) && t.maybe_cyclic)
  end

let acquire_wait_info t ~txn ~page ~mode =
  let e = entry t page in
  match List.assoc_opt txn e.holders with
  | Some held when held = X || mode = S ->
    (* Already held in a sufficient mode. *)
    remove_waiter t e ~page ~txn;
    (Granted, false)
  | Some _ ->
    (* Upgrade S -> X: allowed when we are the only holder. *)
    if conflicts ~txn ~mode e.holders then block t e ~page ~txn ~mode ~upgrade:true
    else begin
      e.holders <- [ (txn, X) ];
      grant t e ~page ~txn
    end
  | None ->
    if conflicts ~txn ~mode e.holders || blocked_ahead ~txn ~mode e.waiters then
      block t e ~page ~txn ~mode ~upgrade:false
    else begin
      e.holders <- (txn, mode) :: e.holders;
      let i = info t txn in
      i.held <- page :: i.held;
      grant t e ~page ~txn
    end

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
