(* perfbench: one workload, one seed, one run.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints the configuration, every metric of the run's kind (end-to-end
   with --trace 0, per-layer with --trace 1) by name with its unit, the
   correctness gate, and as the last line one JSON object. *)

let usage () =
  prerr_endline
    ("usage: main.exe --workload "
    ^ String.concat "|" (List.map fst Perfbench.Bench.workloads)
    ^ " --seed N --seconds S --trace 0|1");
  exit 2

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
      (match List.assoc_opt v Perfbench.Bench.workloads with Some w -> workload := Some w | None -> usage ());
      go rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with Some n -> seed := Some n | None -> usage ());
      go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with Some s when s > 0.0 && Float.is_finite s -> seconds := Some s | _ -> usage ());
      go rest
    | "--trace" :: v :: rest ->
      (match v with "0" -> trace := Some false | "1" -> trace := Some true | _ -> usage ());
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some n, Some s, Some t -> (w, n, s, t)
  | _ -> usage ()

(* Every digit as measured; JSON has no NaN or infinity. *)
let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  let workload, seed, seconds, trace = parse Sys.argv in
  let r = Perfbench.Bench.run ~workload ~seed ~seconds ~trace () in
  let open Perfbench.Bench in
  print_endline
    ("config " ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ String.map (fun c -> if c = ' ' then '_' else c) v) r.config));
  let metrics = if trace then r.layers else r.e2e in
  List.iter (fun (k, v, unit) -> Printf.printf "metric %-36s %16.6f %s\n" k v unit) metrics;
  List.iter (fun (k, ok) -> Printf.printf "check %s %s\n" k (if ok then "ok" else "FAIL")) r.checks;
  let correct = r.failed = 0 && List.for_all snd r.checks in
  Printf.printf "gate attempted=%d failed=%d failed_frac=%g correct=%b\n" r.attempted r.failed
    (float_of_int r.failed /. float_of_int (max 1 r.attempted))
    correct;
  let fields =
    List.map
      (fun (k, v, unit) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (json_float v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    (max 1 r.attempted) r.failed (String.concat ", " fields)
