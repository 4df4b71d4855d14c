type mode = Eager | Grouped of { batch : int; timeout_us : float }

let validate_mode = function
  | Eager -> ()
  | Grouped { batch; timeout_us } ->
    if batch < 1 then invalid_arg "Commit_pipeline: batch must be >= 1";
    if not (timeout_us > 0.0 && Float.is_finite timeout_us) then
      invalid_arg "Commit_pipeline: timeout_us must be positive and finite"

module type GROUPED = sig
  type t

  type txn

  val commit : txn -> unit

  val commit_group : txn -> unit

  val force_commits : t -> unit
end

module Make (E : GROUPED) = struct
  type t = {
    engine : E.t;
    mode : mode;
    sync_cost_us : float;
    on_ack : id:int -> now:float -> unit;
    mutable pending : int list;  (* ids committed in memory, not yet forced; newest first *)
    mutable n_pending : int;
    mutable deadline : float;  (* meaningful iff n_pending > 0 *)
    mutable forces : int;
    mutable acked : int;
  }

  let create ?(sync_cost_us = 0.0) ?(on_ack = fun ~id:_ ~now:_ -> ()) mode engine =
    validate_mode mode;
    if not (sync_cost_us >= 0.0 && Float.is_finite sync_cost_us) then
      invalid_arg "Commit_pipeline: sync_cost_us must be non-negative and finite";
    {
      engine;
      mode;
      sync_cost_us;
      on_ack;
      pending = [];
      n_pending = 0;
      deadline = Float.infinity;
      forces = 0;
      acked = 0;
    }

  let pending t = t.n_pending

  let forces t = t.forces

  let acked t = t.acked

  let deadline t = if t.n_pending > 0 then Some t.deadline else None

  (* One log force: charge one sync latency, then acknowledge every
     pending transaction at the post-force instant — the moment its
     commit record is actually durable. *)
  let force t ~now =
    let now = now +. t.sync_cost_us in
    E.force_commits t.engine;
    t.forces <- t.forces + 1;
    List.iter (fun id -> t.on_ack ~id ~now) (List.rev t.pending);
    t.acked <- t.acked + t.n_pending;
    t.pending <- [];
    t.n_pending <- 0;
    t.deadline <- Float.infinity;
    now

  let submit t ~now ~id txn =
    match t.mode with
    | Eager ->
      let now = now +. t.sync_cost_us in
      E.commit txn;
      t.forces <- t.forces + 1;
      t.on_ack ~id ~now;
      t.acked <- t.acked + 1;
      now
    | Grouped { batch; timeout_us } ->
      E.commit_group txn;
      if t.n_pending = 0 then t.deadline <- now +. timeout_us;
      t.pending <- id :: t.pending;
      t.n_pending <- t.n_pending + 1;
      if t.n_pending >= batch then force t ~now else now

  let poll t ~now = if t.n_pending > 0 && t.deadline <= now then force t ~now else now
end
