(* Tests for the page-partitioned parallel recovery path (Replay), the
   logging engines' fuzzy checkpoints, and the Journal truncation
   boundary cases that feed it.

   The load-bearing property is a THREE-way equivalence over random
   histories: an engine recovering through the partitioned parallel
   path (4 oversubscribed domains, checkpoint-seeking) and an identical
   twin recovering through the preserved serial from-zero reference
   must land on the same state fingerprint after every crash, and both
   must show the executable specification's (Kv.Model) visible state.
   A third twin recovering along the parallel path with no pool must
   write as many pages as the 4-domain one, to the same state. *)

module Kv = Dbm_storage.Kv
module Engine_log = Dbm_storage.Engine_log
module Engine_log_delta = Dbm_storage.Engine_log_delta
module Engine_oplog = Dbm_storage.Engine_oplog
module Journal = Dbm_storage.Journal
module Replay = Dbm_storage.Replay
module Wal = Dbm_storage.Wal
module Pool = Dbm_util.Pool

let check = Alcotest.check

(* Oversubscribed so the parallel path crosses real domain boundaries
   even on a 1-core CI host. *)
let pool = lazy (Pool.create ~jobs:4 ~allow_oversubscribe:true ())

let () = at_exit (fun () -> if Lazy.is_val pool then Pool.shutdown (Lazy.force pool))

let n_keys = 64

(* --- random-history equivalence --------------------------------------- *)

type op =
  | Put of int * string
  | Delete of int
  | Commit
  | Abort
  | Crash
  | Fuzzy of bool  (* force the checkpoint record? [false] leaves it volatile *)
  | Sharp
  | Flush  (* force every dirty data page *)

let op_print = function
  | Put (k, v) -> Printf.sprintf "Put(%d,%S)" k v
  | Delete k -> Printf.sprintf "Del(%d)" k
  | Commit -> "Commit"
  | Abort -> "Abort"
  | Crash -> "Crash"
  | Fuzzy true -> "FuzzyCkpt"
  | Fuzzy false -> "FuzzyCkpt-nosync"
  | Sharp -> "SharpCkpt"
  | Flush -> "Flush"

(* Histories over keys [0, keys), drawing a [Flush] with weight [flush]
   against the other ops' 17 (none by default). *)
let ops_arbitrary ?(keys = n_keys) ?(flush = 0) () =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (6, map2 (fun k v -> Put (k, v)) (int_range 0 (keys - 1)) (string_size (int_range 0 12)));
          (2, map (fun k -> Delete k) (int_range 0 (keys - 1)));
          (3, return Commit);
          (1, return Abort);
          (2, return Crash);
          (2, map (fun b -> Fuzzy b) bool);
          (1, return Sharp);
          (flush, return Flush);
        ])
  in
  QCheck.make
    ~print:(fun ops -> String.concat ";" (List.map op_print ops))
    (QCheck.Gen.list_size (QCheck.Gen.int_range 0 80) op_gen)

(* What the equivalence harness needs beyond Kv.S — every converted
   engine provides exactly this. *)
module type CONVERTED = sig
  include Kv.S

  val flush : t -> unit

  val checkpoint_fuzzy : ?sync:bool -> t -> unit

  val set_recovery_pool : t -> Pool.t option -> unit

  val state_fingerprint : t -> string

  val crash_and_recover_reference : t -> unit
end

module Equiv_harness (E : CONVERTED) = struct
  (* [a] recovers via the parallel checkpoint-seeking path, its twin
     [b] via the serial from-zero reference and its twin [c] via the
     same path as [a] with no pool; [m] is the spec.  Every operation is
     applied to all four, so any fingerprint divergence is recovery's
     fault alone.  [c] pins Replay's promise that disk writes do not
     depend on the job count: after every crash its recovery wrote as
     many pages as [a]'s, and the same state. *)
  let run_ops ops =
    let a = E.create ~n_keys () and b = E.create ~n_keys () and c = E.create ~n_keys () in
    let twins = [ a; b; c ] and m = Kv.Model.create ~n_keys () in
    E.set_recovery_pool a (Some (Lazy.force pool));
    let live = ref None in
    let ensure_live () =
      match !live with
      | Some txns -> txns
      | None ->
        let txns = (List.map E.begin_txn twins, Kv.Model.begin_txn m) in
        live := Some txns;
        txns
    in
    let ok = ref true in
    (* Fingerprints first (reads only), then the visible state — the
       probe transactions are begun and aborted on every twin alike so
       their counters stay in lock-step. *)
    let assert_equal () =
      if E.state_fingerprint a <> E.state_fingerprint b then ok := false;
      let ts = List.map E.begin_txn twins and tm = Kv.Model.begin_txn m in
      for k = 0 to n_keys - 1 do
        let expect = Kv.Model.get tm k in
        List.iter (fun t -> if E.get t k <> expect then ok := false) ts
      done;
      List.iter E.abort ts;
      Kv.Model.abort tm
    in
    let crash () =
      let writes e = List.assoc "disk_writes" (E.stats e) in
      let wa = writes a and wc = writes c in
      E.crash_and_recover a;
      E.crash_and_recover_reference b;
      E.crash_and_recover c;
      Kv.Model.crash_and_recover m;
      if writes a - wa <> writes c - wc then ok := false;
      if E.state_fingerprint a <> E.state_fingerprint c then ok := false;
      assert_equal ()
    in
    let finish f g =
      match !live with
      | Some (ts, tm) ->
        List.iter f ts;
        g tm;
        live := None
      | None -> ()
    in
    List.iter
      (fun op ->
        match op with
        | Put (k, v) ->
          let ts, tm = ensure_live () in
          List.iter (fun t -> E.put t k v) ts;
          Kv.Model.put tm k v
        | Delete k ->
          let ts, tm = ensure_live () in
          List.iter (fun t -> E.delete t k) ts;
          Kv.Model.delete tm k
        | Commit -> finish E.commit Kv.Model.commit
        | Abort -> finish E.abort Kv.Model.abort
        | Crash ->
          live := None;
          crash ()
        | Fuzzy sync ->
          (* No quiescence needed: fuzzy checkpoints run mid-transaction. *)
          List.iter (E.checkpoint_fuzzy ~sync) twins
        | Sharp ->
          (* Mid-transaction too: the truncated log must still undo, or
             complete, the live transaction. *)
          List.iter E.checkpoint twins;
          Kv.Model.checkpoint m
        | Flush -> List.iter E.flush twins)
      ops;
    finish E.commit Kv.Model.commit;
    crash ();
    !ok

  (* No [Flush] here: after a committed put, a loser's put and abort, a
     flush, a fuzzy checkpoint and a crash, the checkpoint-seeking
     recovery keeps the durable page with its restored header LSN while
     the from-zero reference rewrites the loser's before image with the
     older one, so the fingerprints differ with every key equal (a known
     divergence, CHANGES.md). *)
  let property count =
    QCheck.Test.make
      ~name:(E.engine_name ^ ": parallel recovery = serial reference = model")
      ~count ~long_factor:5 (ops_arbitrary ()) run_ops
end


(* --- crash during a fuzzy checkpoint ----------------------------------- *)

(* A crash after the checkpoint record is appended but before the next
   log force must recover to the same state as replay-from-zero: the
   volatile record is simply lost, never half-trusted. *)
let crash_during_checkpoint (module E : CONVERTED) () =
  let seed e =
    let t = E.begin_txn e in
    E.put t 1 "one";
    E.put t 9 "nine";
    E.commit t;
    let t = E.begin_txn e in
    E.put t 2 "two";
    E.commit t;
    (* an in-flight loser holds page state while the checkpoint runs *)
    let t = E.begin_txn e in
    E.put t 1 "loser";
    E.checkpoint_fuzzy ~sync:false e;
    (* appended, NOT forced *)
    E.put t 3 "loser3"
  in
  let a = E.create ~n_keys () and b = E.create ~n_keys () in
  E.set_recovery_pool a (Some (Lazy.force pool));
  seed a;
  seed b;
  E.crash_and_recover a;
  (* the tail — and the checkpoint record with it — is gone *)
  E.crash_and_recover_reference b;
  check Alcotest.string "fingerprint matches from-zero replay" (E.state_fingerprint b)
    (E.state_fingerprint a);
  let t = E.begin_txn a in
  check (Alcotest.option Alcotest.string) "committed value survives" (Some "one") (E.get t 1);
  check (Alcotest.option Alcotest.string) "committed value survives (2)" (Some "two") (E.get t 2);
  check (Alcotest.option Alcotest.string) "loser write invisible" None (E.get t 3);
  E.abort t

(* The durable-record flavor: same history, but the checkpoint record
   IS forced; recovery starts mid-log and must still match. *)
let durable_checkpoint_matches (module E : CONVERTED) () =
  let seed e =
    let t = E.begin_txn e in
    E.put t 1 "one";
    E.commit t;
    E.flush e;
    (* data durable: the checkpoint can actually skip the prefix *)
    E.checkpoint_fuzzy e;
    let t = E.begin_txn e in
    E.put t 2 "two";
    E.commit t;
    let t = E.begin_txn e in
    E.put t 1 "loser"
  in
  let a = E.create ~n_keys () and b = E.create ~n_keys () in
  E.set_recovery_pool a (Some (Lazy.force pool));
  seed a;
  seed b;
  E.crash_and_recover a;
  E.crash_and_recover_reference b;
  check Alcotest.string "mid-log replay = from-zero replay" (E.state_fingerprint b)
    (E.state_fingerprint a);
  let t = E.begin_txn a in
  check (Alcotest.option Alcotest.string) "pre-checkpoint commit" (Some "one") (E.get t 1);
  check (Alcotest.option Alcotest.string) "post-checkpoint commit" (Some "two") (E.get t 2);
  E.abort t

module Log_equiv = Equiv_harness (Engine_log)
module Oplog_equiv = Equiv_harness (Engine_oplog)
module Delta_equiv = Equiv_harness (Engine_log_delta)

(* --- the checkpoint actually moves the replay start -------------------- *)

let test_replay_start_advances () =
  let e = Engine_log.create ~n_keys () in
  let t = Engine_log.begin_txn e in
  Engine_log.put t 1 "one";
  Engine_log.put t 2 "two";
  Engine_log.commit t;
  Engine_log.flush e;
  (* clean data, no live txns: the checkpoint may skip everything *)
  Engine_log.checkpoint_fuzzy e;
  let raws =
    Array.init (Engine_log.log_disks e) (fun d ->
        Array.of_list (List.map Wal.encode (Engine_log.dump_log e ~disk:d)))
  in
  check Alcotest.bool "start LSN advanced past zero" true (Replay.replay_start_raw raws > 0);
  (* and the engine still recovers to the right values through it *)
  let t = Engine_log.begin_txn e in
  Engine_log.put t 3 "three";
  Engine_log.commit t;
  Engine_log.crash_and_recover e;
  let t = Engine_log.begin_txn e in
  check (Alcotest.option Alcotest.string) "pre-checkpoint value" (Some "one") (Engine_log.get t 1);
  check (Alcotest.option Alcotest.string) "post-checkpoint value" (Some "three")
    (Engine_log.get t 3);
  Engine_log.abort t

(* --- chunk_ranges ------------------------------------------------------ *)

let prop_chunk_ranges_cover =
  QCheck.Test.make ~name:"chunk_ranges covers [0,len) contiguously" ~count:500
    QCheck.(pair (int_range 0 200) (int_range 1 40))
    (fun (len, pieces) ->
      let ranges = Replay.chunk_ranges ~len ~pieces in
      if len = 0 then ranges = []
      else begin
        let sizes_ok = List.for_all (fun (lo, hi) -> hi > lo) ranges in
        let contiguous =
          let rec go expect = function
            | [] -> expect = len
            | (lo, hi) :: rest -> lo = expect && go hi rest
          in
          go 0 ranges
        in
        let count_ok = List.length ranges <= min pieces len in
        let balanced =
          let szs = List.map (fun (lo, hi) -> hi - lo) ranges in
          List.fold_left max 0 szs - List.fold_left min max_int szs <= 1
        in
        sizes_ok && contiguous && count_ok && balanced
      end)

(* --- Journal.truncate on exact chunk boundaries ------------------------ *)

(* Truncation that lands exactly on a decode chunk boundary (or on the
   retained window's own edges) must leave iteration AND the parallel
   decode/replay agreeing with a plain list model: an off-by-one in the
   base/start arithmetic would drop or duplicate a record right at the
   seam. *)
let prop_truncate_chunk_boundary =
  let gen = QCheck.Gen.(triple (int_range 1 120) (int_range 1 16) (int_range 0 16)) in
  QCheck.Test.make ~name:"truncate on chunk boundary: iter_live + replay = model" ~count:300
    (QCheck.make
       ~print:(fun (n, pieces, pick) -> Printf.sprintf "n=%d pieces=%d pick=%d" n pieces pick)
       gen)
    (fun (n, pieces, pick) ->
      let j = Journal.create () in
      let record i = Wal.encode (Wal.Commit { lsn = i + 1; txn = i + 1 }) in
      let model = ref [] in
      for i = 0 to n - 1 do
        ignore (Journal.append j (record i));
        model := record i :: !model
      done;
      Journal.sync j;
      let model = List.rev !model in
      (* boundaries of a [pieces]-way decode of the current log, plus
         both edges of the retained window *)
      let boundaries =
        0 :: n :: List.concat_map (fun (lo, hi) -> [ lo; hi ]) (Replay.chunk_ranges ~len:n ~pieces)
        |> List.sort_uniq Int.compare
      in
      let keep_from = List.nth boundaries (pick mod List.length boundaries) in
      Journal.truncate j ~keep_from;
      let kept = List.filteri (fun i _ -> i >= keep_from) model in
      (* a pending (unsynced) tail must ride along untouched *)
      let tail = Wal.encode (Wal.Commit { lsn = n + 1; txn = n + 1 }) in
      ignore (Journal.append j tail);
      let live = ref [] in
      Journal.iter_live (fun r -> live := r :: !live) j;
      let iter_ok = List.rev !live = kept @ [ tail ] in
      let read_ok = Journal.read_all j = kept in
      (* checkpoint replay over the truncated journal: the parallel
         decode must see exactly the kept records, in order *)
      let serial = List.map Wal.decode kept in
      let parallel =
        Replay.decode_from ~pool:(Lazy.force pool) [| Journal.to_array j |] ~lo:[| 0 |]
        |> fun a -> Array.to_list a.(0)
      in
      iter_ok && read_ok && parallel = serial)

(* --- recovery reads the log and never writes it ------------------------ *)

(* A decoded update's images are views into the journal's own frames,
   so a replay that wrote through one would rewrite the durable log in
   place.  Before every crash the durable records are dumped (their
   images are views into those frames) and digested; after
   [crash_and_recover], and again after [crash_and_recover_reference],
   the same records must digest the same.  Both image-logging formats,
   with no pool and with a 2-job one.  The histories flush data pages
   over 8 keys, so a loser's update often reaches its page before the
   crash and recovery takes [Replay.rewind]'s full-image restore. *)
let pool2 = lazy (Pool.create ~jobs:2 ~allow_oversubscribe:true ())

let () = at_exit (fun () -> if Lazy.is_val pool2 then Pool.shutdown (Lazy.force pool2))

let log_digest records = Dbm_util.Digest.of_string (String.concat "" (List.map Wal.encode records))

let log_intact_after_recovery ~log_format ~pool ops =
  let e = Engine_log.create_with ~n_keys ~log_format () in
  Engine_log.set_recovery_pool e pool;
  let live = ref None and ok = ref true in
  let txn () =
    match !live with
    | Some t -> t
    | None ->
      let t = Engine_log.begin_txn e in
      live := Some t;
      t
  in
  let finish f =
    Option.iter f !live;
    live := None
  in
  let crash () =
    live := None;
    let records =
      List.concat_map (fun d -> Engine_log.dump_log e ~disk:d) (List.init (Engine_log.log_disks e) Fun.id)
    in
    let digest = log_digest records in
    Engine_log.crash_and_recover e;
    if log_digest records <> digest then ok := false;
    Engine_log.crash_and_recover_reference e;
    if log_digest records <> digest then ok := false
  in
  List.iter
    (function
      | Put (k, v) -> Engine_log.put (txn ()) k v
      | Delete k -> Engine_log.delete (txn ()) k
      | Commit -> finish Engine_log.commit
      | Abort -> finish Engine_log.abort
      | Crash -> crash ()
      | Fuzzy sync -> Engine_log.checkpoint_fuzzy ~sync e
      | Sharp -> Engine_log.checkpoint e
      | Flush -> Engine_log.flush e)
    ops;
  crash ();
  !ok

let prop_recovery_leaves_log_intact =
  QCheck.Test.make ~name:"recovery never writes through a frame view" ~count:100 ~long_factor:5
    (ops_arbitrary ~keys:8 ~flush:3 ()) (fun ops ->
      List.for_all
        (fun (log_format, pool) -> log_intact_after_recovery ~log_format ~pool ops)
        [
          (Engine_log.Physical, None);
          (Engine_log.Physical, Some (Lazy.force pool2));
          (Engine_log.Delta, None);
          (Engine_log.Delta, Some (Lazy.force pool2));
        ])

(* --- borrowed bases ------------------------------------------------------ *)

module Page = Dbm_storage.Page
module View = Dbm_storage.Wal_codec.View

(* A [read] that lends one buffer per page, as [Vdisk.read_ro] does, and
   keeps each with a copy of what it held when first lent. *)
let lending bases =
  let lent = ref [] in
  let read ~page =
    let b = List.assoc page bases in
    if not (List.mem_assq b !lent) then lent := (b, Bytes.copy b) :: !lent;
    b
  in
  let intact () = !lent <> [] && List.for_all (fun (b, copy) -> Bytes.equal b copy) !lent in
  (read, intact)

(* Written images by page; at most one write per page. *)
let collect () =
  let written = ref [] in
  let write ~page image =
    if List.mem_assoc page !written then Alcotest.failf "page %d written twice" page;
    written := (page, Bytes.copy image) :: !written
  in
  (write, fun page -> List.assoc_opt page !written)

let page_size = 256

(* [prev] with [key] set to [value] and its header at [lsn]. *)
let next_state prev ~lsn ~key ~value =
  let s = Bytes.copy prev in
  ignore (Page.update s ~key ~value);
  Page.set_lsn s lsn;
  s

let delta ~lsn ~txn ~page before after =
  Wal.delta_update ~threshold:page_size ~lsn ~txn ~page ~before ~after ~lo:Page.header_bytes
    ~hi:page_size

let page_image = Alcotest.option Alcotest.bytes

(* Page 3's chain starts with a full image (lsn 1) that the replay start
   (lsn 2) skips, and its durable base holds a loser's delta (lsn 7)
   past the winner (lsn 5): the fold rewinds the base to the chain's
   first retained state and patches forward to the winner.  Page 5 holds
   only a loser's delta that reached its base, so its restore rewinds
   the base too.  Both need a copy of the base; neither base may
   change. *)
let test_sorted_rewind_leaves_bases () =
  let s0 = Page.empty ~page_size in
  let s1 = next_state s0 ~lsn:1 ~key:1 ~value:(Some "a") in
  let s2 = next_state s1 ~lsn:2 ~key:2 ~value:(Some "b") in
  let s4 = next_state s2 ~lsn:4 ~key:1 ~value:(Some "c") in
  let s5 = next_state s4 ~lsn:5 ~key:3 ~value:(Some "d") in
  let s7 = next_state s5 ~lsn:7 ~key:2 ~value:(Some "loser") in
  let e8 = next_state s0 ~lsn:8 ~key:21 ~value:(Some "x") in
  let view b = View.of_string (Bytes.to_string b) in
  let records =
    [|
      [|
        Wal.Update { lsn = 1; txn = 1; page = 3; before = view s0; after = view s1 };
        delta ~lsn:2 ~txn:1 ~page:3 s1 s2;
        Wal.Commit { lsn = 3; txn = 1 };
        delta ~lsn:5 ~txn:2 ~page:3 s4 s5;
      |];
      [|
        delta ~lsn:4 ~txn:2 ~page:3 s2 s4;
        Wal.Commit { lsn = 6; txn = 2 };
        delta ~lsn:7 ~txn:3 ~page:3 s5 s7;
        delta ~lsn:8 ~txn:3 ~page:5 s0 e8;
      |];
    |]
  in
  let read, intact = lending [ (3, Bytes.copy s7); (5, Bytes.copy e8) ] in
  let write, written = collect () in
  Replay.recover_sorted ~read ~records ~start_lsn:2 ~write ();
  check Alcotest.bool "every lent base unchanged" true (intact ());
  check page_image "page 3: the winner's state" (Some s5) (written 3);
  check page_image "page 5: the loser's before state" (Some s0) (written 5)

(* Page 0's base holds the operations up to lsn 2; the committed ones
   past it re-execute on a copy, and the loser's is ignored. *)
let test_logical_reexecution_leaves_base () =
  let op ~lsn ~txn ~key value = Wal.Op { lsn; txn; key; value } in
  let s1 = next_state (Page.empty ~page_size) ~lsn:1 ~key:1 ~value:(Some "a") in
  let base = next_state s1 ~lsn:2 ~key:2 ~value:(Some "b") in
  let records =
    [|
      [|
        op ~lsn:1 ~txn:1 ~key:1 (Some "a");
        Wal.Commit { lsn = 3; txn = 1 };
        op ~lsn:5 ~txn:2 ~key:3 (Some "c");
        Wal.Commit { lsn = 6; txn = 2 };
      |];
      [|
        op ~lsn:2 ~txn:1 ~key:2 (Some "b");
        op ~lsn:4 ~txn:2 ~key:1 None;
        op ~lsn:7 ~txn:3 ~key:0 (Some "loser");
      |];
    |]
  in
  let read, intact = lending [ (0, Bytes.copy base) ] in
  let write, written = collect () in
  Replay.recover_logical ~records ~start_lsn:0 ~page_of:(fun _ -> 0) ~read ~write ();
  check Alcotest.bool "the lent base unchanged" true (intact ());
  let s4 = next_state base ~lsn:4 ~key:1 ~value:None in
  check page_image "page 0: committed operations re-executed"
    (Some (next_state s4 ~lsn:5 ~key:3 ~value:(Some "c")))
    (written 0)

(* --- replay's allocation ------------------------------------------------ *)

(* A fixed history on two log disks, in the given format: 60
   transactions of three puts over 64 keys, every fifth one a loser.
   Nothing forces a data page, so every durable base is a zero page. *)
let fixed_log log_format =
  let e = Engine_log.create_with ~n_keys ~n_log_disks:2 ~log_format () in
  let rng = Random.State.make [| 41 |] in
  for i = 1 to 60 do
    let t = Engine_log.begin_txn e in
    for _ = 1 to 3 do
      Engine_log.put t (Random.State.int rng n_keys) (Printf.sprintf "v%03d" i)
    done;
    if i mod 5 = 0 then Engine_log.abort t else Engine_log.commit t
  done;
  Array.init (Engine_log.log_disks e) (fun d -> Array.of_list (Engine_log.dump_log e ~disk:d))

(* Beyond one image per written page, replay allocates at most 8 words
   per routed record (an update or a delta), with a borrowed [read]. *)
let test_replay_allocation () =
  let physical = fixed_log Engine_log.Physical in
  let size =
    Array.fold_left
      (Array.fold_left (fun n r -> match r with Wal.Update { after; _ } -> after.View.len | _ -> n))
      0 physical
  in
  let zero = Bytes.make size '\000' in
  List.iter
    (fun (name, records) ->
      let routed =
        Array.fold_left
          (Array.fold_left (fun n r -> match r with Wal.Update _ | Wal.Delta _ -> n + 1 | _ -> n))
          0 records
      in
      let pages = ref 0 and image_words = ref 0 in
      let write ~page:_ image =
        incr pages;
        image_words := !image_words + (Bytes.length image / 8) + 2
      in
      let replay () =
        Replay.recover_sorted ~read:(fun ~page:_ -> zero) ~records ~start_lsn:0 ~write ()
      in
      replay ();
      pages := 0;
      image_words := 0;
      let before = Gc.minor_words () in
      replay ();
      let words = Gc.minor_words () -. before in
      let per_record = (words -. float_of_int !image_words) /. float_of_int routed in
      if !pages = 0 || routed < 100 then
        Alcotest.failf "%s: %d pages, %d routed records" name !pages routed;
      if per_record > 8.0 then
        Alcotest.failf "%s: %.1f words per routed record beyond %d page images (%.0f words)" name
          per_record !pages words)
    [ ("physical", physical); ("delta", fixed_log Engine_log.Delta) ]

(* --- in-doubt detection ------------------------------------------------- *)

(* Txn 1's prepare is on disk 0 and its commit on disk 1; txn 2's
   prepare has no decision anywhere. *)
let test_in_doubt_mixed_log () =
  let enc = Array.map (Array.map Wal.encode) in
  let mixed =
    enc
      [|
        [|
          Wal.Op { lsn = 1; txn = 1; key = 0; value = Some "a" };
          Wal.Prepare { lsn = 3; txn = 1; gid = 11 };
          Wal.Commit { lsn = 6; txn = 3 };
        |];
        [|
          Wal.Prepare { lsn = 2; txn = 2; gid = 22 };
          Wal.Commit { lsn = 4; txn = 1 };
          Wal.Abort { lsn = 5; txn = 4 };
        |];
      |]
  in
  let doubt = Alcotest.(list (pair int int)) in
  check doubt "only the undecided prepare" [ (2, 22) ] (Replay.in_doubt mixed);
  let plain =
    enc
      [|
        [| Wal.Commit { lsn = 1; txn = 1 } |];
        [| Wal.Abort { lsn = 2; txn = 2 }; Wal.Commit { lsn = 3; txn = 3 } |];
      |]
  in
  check doubt "no prepare, nothing in doubt" [] (Replay.in_doubt plain)

(* --- run --------------------------------------------------------------- *)

let () =
  Alcotest.run "parallel replay"
    [
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest (Log_equiv.property 60);
          QCheck_alcotest.to_alcotest (Oplog_equiv.property 60);
          QCheck_alcotest.to_alcotest (Delta_equiv.property 60);
        ] );
      ( "fuzzy checkpoints",
        [
          Alcotest.test_case "log: crash during checkpoint" `Quick
            (crash_during_checkpoint (module Engine_log));
          Alcotest.test_case "log: durable checkpoint matches" `Quick
            (durable_checkpoint_matches (module Engine_log));
          Alcotest.test_case "oplog: crash during checkpoint" `Quick
            (crash_during_checkpoint (module Engine_oplog));
          Alcotest.test_case "oplog: durable checkpoint matches" `Quick
            (durable_checkpoint_matches (module Engine_oplog));
          Alcotest.test_case "log: replay start advances" `Quick test_replay_start_advances;
          Alcotest.test_case "delta: crash during checkpoint" `Quick
            (crash_during_checkpoint (module Engine_log_delta));
          Alcotest.test_case "delta: durable checkpoint matches" `Quick
            (durable_checkpoint_matches (module Engine_log_delta));
        ] );
      ( "partitioning",
        [
          QCheck_alcotest.to_alcotest prop_chunk_ranges_cover;
          QCheck_alcotest.to_alcotest prop_truncate_chunk_boundary;
        ] );
      ("frame views", [ QCheck_alcotest.to_alcotest prop_recovery_leaves_log_intact ]);
      ( "borrowed bases",
        [
          Alcotest.test_case "sorted rewind leaves every base intact" `Quick
            test_sorted_rewind_leaves_bases;
          Alcotest.test_case "logical re-execution leaves the base intact" `Quick
            test_logical_reexecution_leaves_base;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "allocation per routed record bounded" `Quick test_replay_allocation;
          Alcotest.test_case "in_doubt: decisions on either disk" `Quick test_in_doubt_mixed_log;
        ] );
    ]
