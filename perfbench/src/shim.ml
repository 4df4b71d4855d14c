(* Engine wrappers the benchmark drives instead of the bare engines.

   [Thin] is what the untraced run uses: it reads the clock twice per
   transaction (at begin and when the commit becomes durable, or at
   snapshot pin and release) and records each committed transaction's
   writes in the engine instance's commit order for the correctness
   gate.  [Timed] is the traced run's layer probe: it times every engine
   call.  The traced run stacks them as [Thin (Timed (E))], so both runs
   see the same thin bookkeeping and only the traced one pays for
   per-call timing.

   All state is per engine instance: a sharded run drives each instance
   from one domain only, so no counter is shared across domains. *)

open Dbm_storage

(* A growable buffer of nanosecond samples. *)
module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 256 0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let append dst src =
    for i = 0 to src.n - 1 do
      add dst src.a.(i)
    done

  let sorted t =
    let a = Array.sub t.a 0 t.n in
    Array.sort Int.compare a;
    a
end

(* What [Thin] records per engine instance. *)
module Ledger = struct
  type t = {
    mutable commits : (int * string option) list list;
        (* newest commit first; each transaction's writes newest first *)
    mutable pending : int list;  (* begin stamps of appended, unforced commits *)
    mutable forces : int;
    mutable grouped : int;  (* commits that waited for a force *)
    lat : Samples.t;  (* wall ns, begin (or pin) to durable (or release) *)
  }

  let create () = { commits = []; pending = []; forces = 0; grouped = 0; lat = Samples.create () }

  let ack t t0 = Samples.add t.lat (Clock.now_ns () - t0)

  let force t =
    t.forces <- t.forces + 1;
    match t.pending with
    | [] -> ()
    | p ->
      let t1 = Clock.now_ns () in
      List.iter (fun t0 -> Samples.add t.lat (t1 - t0)) p;
      t.pending <- []

  let unacked t = List.length t.pending

  (* Every committed transaction's writes, oldest commit first, each in
     issue order. *)
  let iter_commits t f = List.iter (fun ws -> f (List.rev ws)) (List.rev t.commits)
end

(* Per-call timing, indexed by operation. *)
module Counters = struct
  let begin_ = 0
  let get = 1
  let put = 2
  let delete = 3
  let abort = 4
  let commit = 5
  let commit_group = 6
  let force = 7
  let prepare = 8
  let snapshot = 9
  let snapshot_get = 10
  let snapshot_release = 11

  let n_ops = 12

  type t = {
    calls : int array;
    ns : int array;
    mutable first : int;  (* entry stamp of the first call; 0 before any *)
    mutable last_exit : int;
    mutable gap_ns : int;  (* time between consecutive calls: the caller's own *)
  }

  let create () =
    { calls = Array.make n_ops 0; ns = Array.make n_ops 0; first = 0; last_exit = 0; gap_ns = 0 }

  let enter c =
    let t0 = Clock.now_ns () in
    if c.first = 0 then c.first <- t0 else c.gap_ns <- c.gap_ns + (t0 - c.last_exit);
    t0

  let leave c op t0 =
    let t1 = Clock.now_ns () in
    c.calls.(op) <- c.calls.(op) + 1;
    c.ns.(op) <- c.ns.(op) + (t1 - t0);
    c.last_exit <- t1
end

(* Everything a workload may call: the sharded server's engine interface
   plus snapshot reads, and a way back to the bare engine for the gates
   and the engine's own statistics. *)
module type ENGINE = sig
  include Shard.ENGINE

  type snapshot

  val snapshot : t -> snapshot

  val snapshot_get : snapshot -> int -> string option

  val snapshot_release : snapshot -> unit

  type raw

  val raw : t -> raw

  val counters : t -> Counters.t option
  (** [Some] once a [Timed] layer is present. *)
end

(* The logging engine with two log disks in one log format.  It has no
   snapshot reads. *)
module Log_engine (F : sig
  val log_format : Engine_log.log_format
end) : ENGINE with type raw = Engine_log.t = struct
  include Engine_log

  let create ?n_keys () = create_with ?n_keys ~n_log_disks:2 ~log_format:F.log_format ()

  type snapshot = |

  let snapshot _ = invalid_arg "Engine_log has no snapshot reads"

  let snapshot_get (s : snapshot) _ = match s with _ -> .

  let snapshot_release (s : snapshot) = match s with _ -> .

  type raw = Engine_log.t

  let raw t = t

  let counters _ = None
end

module Log_delta = Log_engine (struct
  let log_format = Engine_log.Delta
end)

module Log_physical = Log_engine (struct
  let log_format = Engine_log.Physical
end)

(* The differential-file engine.  It has no two-phase commit. *)
module Diff : ENGINE with type raw = Engine_diff.t = struct
  include Engine_diff

  let prepare _ ~gid:_ = invalid_arg "Engine_diff has no two-phase commit"

  type raw = Engine_diff.t

  let raw t = t

  let counters _ = None
end

module Timed (E : ENGINE) : ENGINE with type raw = E.raw = struct
  module C = Counters

  type t = { e : E.t; c : C.t }

  type txn = { tx : E.txn; tc : C.t }

  type snapshot = { s : E.snapshot; sc : C.t }

  type raw = E.raw

  let raw t = E.raw t.e

  let counters t = Some t.c

  let engine_name = E.engine_name

  let create ?n_keys () = { e = E.create ?n_keys (); c = C.create () }

  let max_keys t = E.max_keys t.e

  let keys_per_page t = E.keys_per_page t.e

  let crash_and_recover t = E.crash_and_recover t.e

  let checkpoint t = E.checkpoint t.e

  let stats t = E.stats t.e

  let begin_txn t =
    let t0 = C.enter t.c in
    let tx = E.begin_txn t.e in
    C.leave t.c C.begin_ t0;
    { tx; tc = t.c }

  let get x k =
    let t0 = C.enter x.tc in
    let v = E.get x.tx k in
    C.leave x.tc C.get t0;
    v

  let put x k v =
    let t0 = C.enter x.tc in
    E.put x.tx k v;
    C.leave x.tc C.put t0

  let delete x k =
    let t0 = C.enter x.tc in
    E.delete x.tx k;
    C.leave x.tc C.delete t0

  let abort x =
    let t0 = C.enter x.tc in
    E.abort x.tx;
    C.leave x.tc C.abort t0

  let commit x =
    let t0 = C.enter x.tc in
    E.commit x.tx;
    C.leave x.tc C.commit t0

  let commit_group x =
    let t0 = C.enter x.tc in
    E.commit_group x.tx;
    C.leave x.tc C.commit_group t0

  let force_commits t =
    let t0 = C.enter t.c in
    E.force_commits t.e;
    C.leave t.c C.force t0

  let prepare x ~gid =
    let t0 = C.enter x.tc in
    E.prepare x.tx ~gid;
    C.leave x.tc C.prepare t0

  let snapshot t =
    let t0 = C.enter t.c in
    let s = E.snapshot t.e in
    C.leave t.c C.snapshot t0;
    { s; sc = t.c }

  let snapshot_get s k =
    let t0 = C.enter s.sc in
    let v = E.snapshot_get s.s k in
    C.leave s.sc C.snapshot_get t0;
    v

  let snapshot_release s =
    let t0 = C.enter s.sc in
    E.snapshot_release s.s;
    C.leave s.sc C.snapshot_release t0
end

module type THIN = sig
  include ENGINE

  val ledger : t -> Ledger.t
end

module Thin (E : ENGINE) : THIN with type raw = E.raw = struct
  type t = { e : E.t; l : Ledger.t }

  type txn = {
    tx : E.txn;
    t0 : int;
    owner : Ledger.t;
    mutable writes : (int * string option) list;
    mutable prepared : bool;
  }

  type snapshot = { s : E.snapshot; st0 : int; sl : Ledger.t }

  type raw = E.raw

  let raw t = E.raw t.e

  let counters t = E.counters t.e

  let ledger t = t.l

  let engine_name = E.engine_name

  let create ?n_keys () = { e = E.create ?n_keys (); l = Ledger.create () }

  let max_keys t = E.max_keys t.e

  let keys_per_page t = E.keys_per_page t.e

  let crash_and_recover t = E.crash_and_recover t.e

  let checkpoint t = E.checkpoint t.e

  let stats t = E.stats t.e

  let begin_txn t =
    let t0 = Clock.now_ns () in
    { tx = E.begin_txn t.e; t0; owner = t.l; writes = []; prepared = false }

  let get x k = E.get x.tx k

  let put x k v =
    E.put x.tx k v;
    x.writes <- (k, Some v) :: x.writes

  let delete x k =
    E.delete x.tx k;
    x.writes <- (k, None) :: x.writes

  let abort x = E.abort x.tx

  let commit x =
    E.commit x.tx;
    x.owner.commits <- x.writes :: x.owner.commits;
    Ledger.ack x.owner x.t0

  let commit_group x =
    E.commit_group x.tx;
    let l = x.owner in
    l.commits <- x.writes :: l.commits;
    (* A prepared slice became durable when the coordinator forced its
       decision, before the shard applies it here. *)
    if x.prepared then Ledger.ack l x.t0
    else begin
      l.pending <- x.t0 :: l.pending;
      l.grouped <- l.grouped + 1
    end

  let force_commits t =
    E.force_commits t.e;
    Ledger.force t.l

  let prepare x ~gid =
    E.prepare x.tx ~gid;
    x.prepared <- true

  let snapshot t =
    let st0 = Clock.now_ns () in
    { s = E.snapshot t.e; st0; sl = t.l }

  let snapshot_get s k = E.snapshot_get s.s k

  let snapshot_release s =
    E.snapshot_release s.s;
    Ledger.ack s.sl s.st0
end
