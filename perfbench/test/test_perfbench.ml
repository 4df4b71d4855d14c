(* Self-check of the benchmark at a tiny size: every workload passes its
   correctness gate, its deterministic counts repeat exactly under one
   seed, and another seed generates other inputs.  A traced run's layer
   accounting holds. *)

module B = Perfbench.Bench

let run ?(trace = false) workload seed =
  B.run ~sizes:B.tiny_sizes ~workload ~seed ~seconds:0.001 ~trace ()

let value (r : B.result) name =
  match List.find_opt (fun (k, _, _) -> String.equal k name) (r.B.e2e @ r.B.layers) with
  | Some (_, v, _) -> v
  | None -> failwith ("no metric " ^ name)

let fail fmt = Printf.ksprintf failwith fmt

let counts = [ "wal.bytes"; "wal.records"; "scheduler.restarts"; "lock_mgr.acquires_per_txn"; "sim_txn_per_s"; "sim_latency_us_p99" ]

(* Cross-shard runs interleave two domains, so restarts, log volume and
   the simulated clock vary with the OS schedule (Shard.run says so);
   which transactions span shards does not. *)
let cross_counts = [ "shard.cross_txns"; "coordinator.decisions" ]

let () =
  List.iter
    (fun (name, w) ->
      let a = run w 1 and b = run w 1 in
      List.iter
        (fun (r : B.result) -> if r.B.failed <> 0 then fail "%s: %d gate failures" name r.B.failed)
        [ a; b ];
      List.iter
        (fun m ->
          if value a m <> value b m then fail "%s: %s differs across runs (%g vs %g)" name m (value a m) (value b m))
        (if w = B.Cross_shard then cross_counts else counts);
      if String.equal (B.digest_inputs w B.tiny_sizes ~seed:1) (B.digest_inputs w B.tiny_sizes ~seed:2)
      then fail "%s: seeds 1 and 2 generate the same inputs" name;
      let t = run ~trace:true w 1 in
      if t.B.failed <> 0 then fail "%s traced: %d gate failures" name t.B.failed;
      if w <> B.Restart_recovery then
        List.iter (fun (k, ok) -> if not ok then fail "%s traced: check %s failed" name k) t.B.checks;
      Printf.printf "%s ok\n" name)
    B.workloads
