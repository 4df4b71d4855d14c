module Arch = Dbm_machine.Arch
module Config = Dbm_machine.Config
module Drive = Dbm_disk.Drive
module Workload = Dbm_workload.Workload

type strategy = Basic | Optimal

type config = {
  size_fraction : float;
  output_fraction : float;
  strategy : strategy;
  qualify_prob : float;
  setdiff_cpu_ms : float;
}

let default =
  {
    size_fraction = 0.10;
    output_fraction = 0.10;
    strategy = Optimal;
    qualify_prob = 0.3;
    setdiff_cpu_ms = 54.0;
  }

let basic = { default with strategy = Basic }

(* Call-site-independent architecture descriptor; see Logging.descriptor. *)
let descriptor config =
  let d = Dbm_util.Digest.create () in
  let module D = Dbm_util.Digest in
  D.string d "diff-file-config";
  D.float d config.size_fraction;
  D.float d config.output_fraction;
  D.tag d (match config.strategy with Basic -> 0 | Optimal -> 1);
  D.float d config.qualify_prob;
  D.float d config.setdiff_cpu_ms;
  "diff-file:" ^ D.hex d

type txn_out = {
  mutable fill : float;  (* fraction of the current output page produced *)
  mutable outstanding : int;  (* output-page writes still in flight *)
  mutable commit_k : (unit -> unit) option;
}

let make config (ctx : Arch.ctx) =
  if config.size_fraction < 0.0 then invalid_arg "Diff_file: negative size fraction";
  if config.output_fraction <= 0.0 || config.output_fraction > 1.0 then
    invalid_arg "Diff_file: output fraction out of (0,1]";
  let cfg = ctx.Arch.config in
  let diff_pages_read = ref 0 in
  let output_pages_written = ref 0 in
  let setdiff_ops = ref 0 in

  (* Deterministic fractional accumulator: a batch of [n] base pages
     drags in [size_fraction * n] A/D pages on average. *)
  let read_carry = ref 0.0 in
  let extra_read_pages ~n_base =
    read_carry := !read_carry +. (config.size_fraction *. float_of_int n_base);
    let n = int_of_float !read_carry in
    read_carry := !read_carry -. float_of_int n;
    diff_pages_read := !diff_pages_read + n;
    n
  in

  (* Set-union / set-difference CPU: the number of differential pages a
     transaction references scales with its read set.  Under the optimal
     strategy the short-circuit scan saves the set-difference for pages
     with no qualifying tuple.  The qualification probability grows
     sub-linearly with the relative size of A and D; that growth is a
     calibration to Table 11 (see [qualify_prob]'s doc). *)
  let qualify =
    Float.min 1.0 (config.qualify_prob *. ((config.size_fraction /. 0.10) ** 0.8))
  in
  let cpu_extra_ms ~txn ~page:_ ~write:_ =
    let n_diff = config.size_fraction *. float_of_int (Workload.read_set_size txn) in
    match config.strategy with
    | Basic ->
      incr setdiff_ops;
      config.setdiff_cpu_ms *. n_diff
    | Optimal ->
      if Dbm_util.Prng.bool ctx.Arch.rng ~p:qualify then begin
        incr setdiff_ops;
        config.setdiff_cpu_ms *. n_diff
      end
      else 0.0
  in

  let outs : (int, txn_out) Hashtbl.t = Hashtbl.create 16 in
  let out_of txn_id =
    match Hashtbl.find_opt outs txn_id with
    | Some o -> o
    | None ->
      let o = { fill = 0.0; outstanding = 0; commit_k = None } in
      Hashtbl.replace outs txn_id o;
      o
  in
  let one_written o () =
    o.outstanding <- o.outstanding - 1;
    if o.outstanding = 0 then
      match o.commit_k with
      | Some k ->
        o.commit_k <- None;
        k ()
      | None -> ()
  in
  let flush_output o ~disk =
    o.outstanding <- o.outstanding + 1;
    incr output_pages_written;
    let page = ctx.Arch.diff_append_page ~disk in
    Drive.submit ctx.Arch.data_drives.(disk) Drive.Write ~pages:[ page ] (one_written o)
  in

  (* Updates append a fraction of an output page to the A file; the
     frame is released as soon as the tuples are copied out, and a
     physical write happens once a whole output page has accumulated. *)
  let write_back ~txn ~page ~written =
    let o = out_of txn.Workload.id in
    let d, _ = Config.locate cfg ~page in
    o.fill <- o.fill +. config.output_fraction;
    if o.fill >= 1.0 then begin
      o.fill <- o.fill -. 1.0;
      flush_output o ~disk:d
    end;
    written ()
  in

  let on_commit ~txn ~k =
    match Hashtbl.find_opt outs txn.Workload.id with
    | None -> k ()
    | Some o ->
      Hashtbl.remove outs txn.Workload.id;
      (* Fragmentation: the final partial output page is written too. *)
      if o.fill > 0.0 then begin
        o.fill <- 0.0;
        let d = Dbm_util.Prng.int ctx.Arch.rng (Array.length ctx.Arch.data_drives) in
        flush_output o ~disk:d
      end;
      if o.outstanding = 0 then k () else o.commit_k <- Some k
  in

  let extra_stats () =
    [
      ("diff_pages_read", float_of_int !diff_pages_read);
      ("output_pages_written", float_of_int !output_pages_written);
      ("setdiff_ops", float_of_int !setdiff_ops);
    ]
  in

  Arch.make ~extra_read_pages ~cpu_extra_ms ~write_back ~on_commit ~extra_stats
    (Printf.sprintf "diff-file-%s-%.0f%%"
       (match config.strategy with Basic -> "basic" | Optimal -> "optimal")
       (100.0 *. config.size_fraction))
