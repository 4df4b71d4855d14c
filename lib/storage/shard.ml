(* Domain-parallel transaction shards with two-phase group commit.
   See shard.mli for the protocol overview and DESIGN.md B.5 for the
   correctness argument. *)

module Histogram = Dbm_util.Stats.Histogram
module Pool = Dbm_util.Pool

module type ENGINE = sig
  include Server.ENGINE

  val prepare : txn -> gid:int -> unit
end

type result = {
  completed : int;
  makespan_us : float;
  sustained_tps : float;
  restarts : int;
  forces : int;
  lock_acquires : int;
  cross_committed : int;
  oversubscribed : bool;
  latency_us : Histogram.t;
  single_latency_us : Histogram.t;
  cross_latency_us : Histogram.t;
}

(* Shared 2PC state across the shard domains.  Everything mutable in
   here is touched only under [m]; [c] is broadcast on every decision
   (and on failure) so shards blocked waiting for a decision wake. *)
type cross_state = {
  m : Mutex.t;
  c : Condition.t;
  nparts : int array;  (* participant count per gid; 1 for single-shard *)
  prepared : int array;  (* prepares registered so far *)
  prep_time : float array;  (* max participant prepare sim-time *)
  decided : float array;  (* decision sim-time; nan = undecided *)
  mutable failed : bool;  (* a peer shard raised; waiters must bail *)
}

module Make (E : ENGINE) = struct
  module Srv = Server.Make (E)

  (* One shard's 2PC participant role in the open-loop driver.  A
     cross-shard slice's "commit" is a durable [E.prepare]; the driver
     holds the slice's locks until the coordinator's decision, which it
     applies between passes once [decided] reports it.

     Admission is strictly FIFO with at most one cross-shard slice in
     flight per shard.  Because every shard admits its cross slices in
     global gid order (gids are issued in arrival order and each
     shard's queue preserves it), the shard holding the smallest
     undecided gid's slices can always run them to prepare — its
     participants have no earlier cross work pending — so that gid
     decides, releases, and induction gives global progress: the 2PC
     wait graph never cycles. *)
  let participant ~sync_cost_us ~coordinator ~(cross : cross_state) ~is_cross =
    (* The prepared-but-undecided slice, at most one (admission gate). *)
    let slot = ref None in
    (* A cross slice is in flight from admission (it may be executing,
       restarting, or sitting prepared in [slot]) until its decision is
       applied.  The admission gate keys off this, not [slot]: two
       executing cross slices on one shard would already break the
       gid-order progress argument. *)
    let cross_inflight = ref false in
    let register_prepare gid t =
      Mutex.lock cross.m;
      cross.prepared.(gid) <- cross.prepared.(gid) + 1;
      if t > cross.prep_time.(gid) then cross.prep_time.(gid) <- t;
      if cross.prepared.(gid) = cross.nparts.(gid) then begin
        (* Last participant to vote writes the coordinator's decision —
           the transaction's commit point, forced before anyone learns
           it.  Decision time: every vote durable, plus the
           coordinator's own force. *)
        Coordinator_log.decide coordinator ~gid ~commit:true;
        cross.decided.(gid) <- cross.prep_time.(gid) +. sync_cost_us;
        Condition.broadcast cross.c
      end;
      Mutex.unlock cross.m
    in
    let peer_failed () = failwith "Shard.run: a peer shard failed" in
    let decided_time gid =
      Mutex.lock cross.m;
      let d = cross.decided.(gid) in
      let failed = cross.failed in
      Mutex.unlock cross.m;
      if failed then peer_failed ();
      d
    in
    {
      Srv.votes = is_cross;
      vote =
        (fun ~now ~id txn ->
          (* The driver charged one force for the vote: it covers the
             update disks + Prepare record (engine-side it may force
             more than one journal; the simulated cost model charges
             one round, as eager commit does). *)
          E.prepare txn ~gid:id;
          slot := Some (id, txn);
          register_prepare id now);
      admit =
        (fun gid ->
          if not (is_cross gid) then true
          else if !cross_inflight then
            (* One cross slice in flight at a time: FIFO admission
               stalls here (and everything behind it waits) until the
               decision lands — the gid-order gate the progress
               argument needs. *)
            false
          else begin
            cross_inflight := true;
            true
          end);
      decided =
        (fun () ->
          match !slot with
          | Some (gid, txn) ->
            let dt = decided_time gid in
            if Float.is_nan dt then None
            else begin
              slot := None;
              cross_inflight := false;
              Some (gid, txn, dt)
            end
          | None -> None);
      await =
        (fun () ->
          match !slot with
          | Some (gid, _) ->
            (* Everything local is blocked behind the prepared slice:
               sleep until a peer's vote completes the decision.  Real
               blocking (condition variable), not spinning — on an
               oversubscribed host the OS reschedules a runnable
               shard. *)
            Mutex.lock cross.m;
            while Float.is_nan cross.decided.(gid) && not cross.failed do
              Condition.wait cross.c cross.m
            done;
            let failed = cross.failed in
            Mutex.unlock cross.m;
            if failed then peer_failed ();
            true
          | None -> false);
    }

  let run ?mpl ?op_cost_us ?(sync_cost_us = 100.0) ~mode ~arrivals_us ~scripts ~coordinator
      (engines : E.t array) =
    let shards = Array.length engines in
    if shards < 1 then invalid_arg "Shard.run: need at least one shard engine";
    let n = Array.length arrivals_us in
    if Array.length scripts <> n then
      invalid_arg "Shard.run: arrivals and scripts must have equal length";
    let keys_per_page = E.keys_per_page engines.(0) in
    (* Route every transaction: per-shard slices, participant counts.
       An empty script has no keys to route; it runs (and commits
       empty) on shard 0. *)
    let per_shard = Array.make shards [] in
    let nparts = Array.make n 0 in
    for gid = 0 to n - 1 do
      let slices =
        match Shard_router.split ~shards ~keys_per_page scripts.(gid) with
        | [] -> [ (0, []) ]
        | sl -> sl
      in
      nparts.(gid) <- List.length slices;
      List.iter (fun (s, slice) -> per_shard.(s) <- (gid, slice) :: per_shard.(s)) slices
    done;
    (* gids ascend = arrival order, the FIFO each shard admits in *)
    let work = Array.map (fun l -> Array.of_list (List.rev l)) per_shard in
    let is_cross gid = nparts.(gid) > 1 in
    let cross =
      {
        m = Mutex.create ();
        c = Condition.create ();
        nparts;
        prepared = Array.make n 0;
        prep_time = Array.make n neg_infinity;
        decided = Array.make n Float.nan;
        failed = false;
      }
    in
    let oversubscribed = shards > Pool.default_jobs () in
    (* One domain per shard: the pool hands items out one at a time,
       so each shard loop owns a worker for its whole run and no two
       blocking loops share a domain.  [allow_oversubscribe] keeps that
       guarantee on small hosts; the clock is simulated, so
       oversubscription costs wall time, not measured time.  One shard
       runs on the calling domain. *)
    let results =
      Pool.with_pool ~jobs:shards ~allow_oversubscribe:true (fun pool ->
          Pool.map_ordered pool (List.init shards Fun.id) ~f:(fun s ->
              try
                Srv.drive ?mpl ?op_cost_us ~sync_cost_us
                  ~participant:(participant ~sync_cost_us ~coordinator ~cross ~is_cross)
                  ~mode ~arrivals_us ~ids:(Array.map fst work.(s))
                  ~scripts:(Array.map snd work.(s))
                  engines.(s)
              with e ->
                Mutex.lock cross.m;
                cross.failed <- true;
                Condition.broadcast cross.c;
                Mutex.unlock cross.m;
                raise e))
    in
    let cross_hist = Histogram.create () in
    let cross_committed = ref 0 in
    let prepares = ref 0 in
    let max_decided = ref 0.0 in
    for gid = 0 to n - 1 do
      if is_cross gid then begin
        incr cross_committed;
        prepares := !prepares + cross.prepared.(gid);
        let dt = cross.decided.(gid) in
        if dt > !max_decided then max_decided := dt;
        Histogram.add cross_hist (Float.max 0.0 (dt -. arrivals_us.(gid)))
      end
    done;
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
    (* A shard's own latencies are its single-shard transactions: the
       driver acks a voted slice at its decision without recording it. *)
    let single_hist =
      List.fold_left
        (fun acc r -> Histogram.merge acc r.Server.latency_us)
        (Histogram.create ()) results
    in
    let makespan_us =
      List.fold_left (fun acc r -> Float.max acc r.Server.makespan_us) !max_decided results
    in
    {
      completed = n;
      makespan_us;
      sustained_tps =
        (if makespan_us > 0.0 then float_of_int n /. makespan_us *. 1e6 else Float.infinity);
      restarts = sum (fun r -> r.Server.restarts);
      forces =
        sum (fun r -> r.Server.forces) + !prepares + Coordinator_log.log_syncs coordinator;
      lock_acquires = sum (fun r -> r.Server.lock_acquires);
      cross_committed = !cross_committed;
      oversubscribed;
      latency_us = Histogram.merge single_hist cross_hist;
      single_latency_us = single_hist;
      cross_latency_us = cross_hist;
    }
end
