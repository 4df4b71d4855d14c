(* The storage-half algorithms as they were before the throughput
   overhaul, kept alive verbatim for two jobs:

   - the benchmark's pre-optimization baseline, so BENCH_5's speedup is
     measured head-to-head in the same process on the same workload;
   - the reference model for the equivalence property tests: the
     optimized {!Lock_mgr} and {!Scheduler} must make byte-identical
     decisions on any trace.

   Nothing here is on a production path. *)

module Locks = struct
  type mode = Lock_mgr.mode = S | X

  type outcome = Lock_mgr.outcome = Granted | Would_block | Deadlock of int list

  type entry = {
    mutable holders : (int * mode) list;
    mutable waiters : (int * mode) list;  (* FIFO: oldest first *)
  }

  type t = { pages : (int, entry) Hashtbl.t }

  let create () = { pages = Hashtbl.create 64 }

  let entry t page =
    match Hashtbl.find_opt t.pages page with
    | Some e -> e
    | None ->
      let e = { holders = []; waiters = [] } in
      Hashtbl.replace t.pages page e;
      e

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

  let waiters_ahead e ~txn ~mode =
    let rec go acc = function
      | [] -> List.rev acc
      | (w, _) :: _ when w = txn -> List.rev acc
      | (w, wmode) :: rest -> go (if compatible wmode mode then acc else w :: acc) rest
    in
    go [] e.waiters

  (* The pre-overhaul waits-for construction: fold the ENTIRE lock table
     looking for the transaction's queued requests. *)
  let blockers t txn =
    Hashtbl.fold
      (fun _page e acc ->
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
      t.pages []

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

  (* The pre-overhaul O(queue) append-by-concatenation. *)
  let record_waiter e ~txn ~mode =
    if not (List.exists (fun (w, m) -> w = txn && m = mode) e.waiters) then
      e.waiters <- e.waiters @ [ (txn, mode) ]

  let remove_waiter e ~txn = e.waiters <- List.filter (fun (w, _) -> w <> txn) e.waiters

  let acquire t ~txn ~page ~mode =
    let e = entry t page in
    match List.assoc_opt txn e.holders with
    | Some held when held = X || mode = S ->
      remove_waiter e ~txn;
      Granted
    | Some _ ->
      if List.for_all (fun (o, _) -> o = txn) e.holders then begin
        e.holders <- [ (txn, X) ];
        remove_waiter e ~txn;
        Granted
      end
      else begin
        let others =
          List.filter_map (fun (o, _) -> if o <> txn then Some o else None) e.holders
        in
        match find_cycle t ~txn ~targets:others with
        | Some cycle -> Deadlock (txn :: cycle)
        | None ->
          record_waiter e ~txn ~mode;
          Would_block
      end
    | None ->
      let conflicting = conflicts_with t ~txn ~page ~mode in
      let blocking_waiters = waiters_ahead e ~txn ~mode in
      if conflicting = [] && blocking_waiters = [] then begin
        e.holders <- (txn, mode) :: e.holders;
        remove_waiter e ~txn;
        Granted
      end
      else begin
        match find_cycle t ~txn ~targets:(conflicting @ blocking_waiters) with
        | Some cycle -> Deadlock (txn :: cycle)
        | None ->
          record_waiter e ~txn ~mode;
          Would_block
      end

  (* The pre-overhaul release: fold the entire table. *)
  let release_all t ~txn =
    let empty_pages = ref [] in
    Hashtbl.iter
      (fun page e ->
        e.holders <- List.filter (fun (o, _) -> o <> txn) e.holders;
        remove_waiter e ~txn;
        if e.holders = [] && e.waiters = [] then empty_pages := page :: !empty_pages)
      t.pages;
    List.iter (Hashtbl.remove t.pages) !empty_pages

  let holds t ~txn ~page =
    match Hashtbl.find_opt t.pages page with
    | None -> None
    | Some e -> List.assoc_opt txn e.holders

  let locked_pages t =
    Hashtbl.fold (fun _ e acc -> if e.holders <> [] then acc + 1 else acc) t.pages 0

  let waiting t ~txn =
    Hashtbl.fold
      (fun _ e acc -> acc || List.exists (fun (w, _) -> w = txn) e.waiters)
      t.pages false
end

(* The pre-parallelization restart recovery of the logging engine,
   verbatim: one thread gathers every durable record, groups the updates
   per page in one hash table and folds each page's LSN-sorted history.
   Always replays from record 0 — fuzzy-checkpoint records are inert
   history to it.  The partitioned Replay module must produce the same
   final images on any job count; the property tests and the bench gate
   enforce it. *)
module Log_replay = struct
  let committed records =
    let committed = Hashtbl.create 16 in
    List.iter
      (fun r ->
        match r with Wal.Commit { txn; _ } -> Hashtbl.replace committed txn () | _ -> ())
      records;
    committed

  let recover_sorted ~records ~read ~write =
    let committed = committed records in
    let by_page : (int, (int * int * Wal_codec.View.t * Wal_codec.View.t) list) Hashtbl.t =
      Hashtbl.create 64
    in
    List.iter
      (fun r ->
        match r with
        | Wal.Update { lsn; txn; page; before; after } ->
          let prev = Option.value (Hashtbl.find_opt by_page page) ~default:[] in
          Hashtbl.replace by_page page ((lsn, txn, before, after) :: prev)
        | _ -> ())
      records;
    Hashtbl.iter
      (fun page updates ->
        let ordered = List.sort (fun (a, _, _, _) (b, _, _, _) -> Int.compare a b) updates in
        let state =
          List.fold_left
            (fun acc (lsn, txn, before, after) ->
              if Hashtbl.mem committed txn then Some (after, max_int)
              else match acc with None -> Some (before, lsn) | Some _ -> acc)
            None ordered
        in
        (* A loser-only restore is skipped when the durable base image
           predates the earliest retained loser update: the base then
           holds no loser effect. *)
        match state with
        | Some (image, guard) when guard = max_int || Page.get_lsn (read ~page) >= guard ->
          write ~page (Wal_codec.View.to_bytes image)
        | Some _ | None -> ())
      by_page

  (* Serial reference for delta logs, written independently of
     Replay.recover_sorted's fold (the parallel path the property tests
     compare against): expand every page's Update/Delta chain to full
     images by replaying slices forward from the chain state the durable
     base image pins, then run the fold above verbatim. *)
  let recover_sorted_delta ~records ~read ~write =
    let by_page : (int, Wal.record list) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun r ->
        match r with
        | Wal.Update { page; _ } | Wal.Delta { page; _ } ->
          let prev = Option.value (Hashtbl.find_opt by_page page) ~default:[] in
          Hashtbl.replace by_page page (r :: prev)
        | _ -> ())
      records;
    let expanded = ref [] in
    Hashtbl.iter
      (fun page recs ->
        let ordered = List.sort (fun a b -> Int.compare (Wal.lsn a) (Wal.lsn b)) recs in
        let base = read ~page in
        let plsn = Page.get_lsn base in
        (* Rewind the base image to the chain's first state: undo, newest
           first, every record the durable image already contains. *)
        let s0 = Bytes.copy base in
        List.iter
          (fun r ->
            match r with
            | Wal.Update { before; _ } -> Wal_codec.View.blit before s0
            | Wal.Delta { off; before_slice; prev_lsn; _ } ->
              Wal.apply_slice s0 ~off before_slice;
              Page.set_lsn s0 prev_lsn
            | _ -> ())
          (List.rev (List.filter (fun r -> Wal.lsn r <= plsn) ordered));
        (* Forward: materialize each record's full before/after pair. *)
        let cur = ref (Wal_codec.View.borrow s0) in
        List.iter
          (fun r ->
            match r with
            | Wal.Update { lsn; txn; page = p; before; after } ->
              cur := after;
              expanded := Wal.Update { lsn; txn; page = p; before; after } :: !expanded
            | Wal.Delta { lsn; txn; page = p; off; after_slice; _ } ->
              let before = !cur in
              let after = Wal_codec.View.to_bytes before in
              Wal.apply_slice after ~off after_slice;
              Page.set_lsn after lsn;
              cur := Wal_codec.View.borrow after;
              expanded := Wal.Update { lsn; txn; page = p; before; after = !cur } :: !expanded
            | _ -> ())
          ordered)
      by_page;
    (* Commit/abort records pass through untouched; the fold only needs
       the commit set and the update images. *)
    let passthrough =
      List.filter (function Wal.Update _ | Wal.Delta _ -> false | _ -> true) records
    in
    recover_sorted ~records:(passthrough @ !expanded) ~read ~write

  (* Serial reference for operation logs: committed operations in one
     global LSN-sorted list, re-executed onto the durable images behind
     the page-header LSN guard — the textbook one-thread formulation of
     Replay.recover_logical. *)
  let recover_logical ~records ~page_of ~read ~write =
    let committed = committed records in
    let ops =
      List.filter_map
        (fun r ->
          match r with
          | Wal.Op { lsn; txn; key; value } when Hashtbl.mem committed txn ->
            Some (lsn, key, value)
          | _ -> None)
        records
      |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
    in
    let images : (int, bytes) Hashtbl.t = Hashtbl.create 64 in
    let dirty : (int, unit) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (lsn, key, value) ->
        let page = page_of key in
        let img =
          match Hashtbl.find_opt images page with
          | Some img -> img
          | None ->
            let img = read ~page in
            Hashtbl.replace images page img;
            img
        in
        if lsn > Page.get_lsn img then begin
          ignore (Page.update img ~key ~value);
          Page.set_lsn img lsn;
          Hashtbl.replace dirty page ()
        end)
      ops;
    Hashtbl.iter (fun page () -> write ~page (Hashtbl.find images page)) dirty
end

(* The pre-overhaul scheduler: every turn round-robin-polls every
   unfinished script, re-running the lock acquisition for blocked ones. *)
module Sched (E : Kv.S) = struct
  open Scheduler

  let key_of = function Get k -> k | Put (k, _) -> k | Delete k -> k

  let mode_of = function Get _ -> Lock_mgr.S | Put _ | Delete _ -> Lock_mgr.X

  type state = {
    id : int;
    index : int;
    script : script;
    mutable remaining : script;
    mutable txn : E.txn option;
    mutable done_ : bool;
    mutable restart_count : int;
    mutable backoff : int;
  }

  let run ?(max_steps = 100_000) engine ~scripts =
    let ids = List.map fst scripts in
    if List.length (List.sort_uniq Int.compare ids) <> List.length ids then
      invalid_arg "Scheduler.run: duplicate script ids";
    let locks = Locks.create () in
    let states =
      List.mapi
        (fun index (id, script) ->
          {
            id;
            index;
            script;
            remaining = script;
            txn = None;
            done_ = false;
            restart_count = 0;
            backoff = 0;
          })
        scripts
    in
    let commit_order = ref [] in
    let restarts = ref 0 in
    let steps = ref 0 in
    let restart st =
      (match st.txn with Some t -> E.abort t | None -> ());
      Locks.release_all locks ~txn:st.id;
      st.txn <- None;
      st.remaining <- st.script;
      st.restart_count <- st.restart_count + 1;
      st.backoff <- st.restart_count * (st.index + 1);
      incr restarts
    in
    let txn_of st =
      match st.txn with
      | Some t -> t
      | None ->
        let t = E.begin_txn engine in
        st.txn <- Some t;
        t
    in
    let advance st =
      match st.remaining with
      | [] ->
        (match st.txn with Some t -> E.commit t | None -> E.commit (txn_of st));
        Locks.release_all locks ~txn:st.id;
        st.done_ <- true;
        commit_order := st.id :: !commit_order;
        true
      | op :: rest -> (
        let page = key_of op / E.keys_per_page engine in
        match Locks.acquire locks ~txn:st.id ~page ~mode:(mode_of op) with
        | Lock_mgr.Granted ->
          let t = txn_of st in
          (match op with
          | Get k -> ignore (E.get t k)
          | Put (k, v) -> E.put t k v
          | Delete k -> E.delete t k);
          st.remaining <- rest;
          true
        | Lock_mgr.Would_block -> false
        | Lock_mgr.Deadlock _ ->
          restart st;
          true)
    in
    let all_done () = List.for_all (fun st -> st.done_) states in
    while (not (all_done ())) && !steps < max_steps do
      List.iter
        (fun st ->
          if not st.done_ then begin
            incr steps;
            if st.backoff > 0 then st.backoff <- st.backoff - 1 else ignore (advance st)
          end)
        states
    done;
    if not (all_done ()) then failwith "Scheduler.run: scripts did not complete (livelock?)";
    { commit_order = List.rev !commit_order; restarts = !restarts; steps = !steps }
end
