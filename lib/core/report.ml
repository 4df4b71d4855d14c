type cell = { measured : float; paper : float option }

type 'c row = { row_label : string; cells : 'c list }

type 'c table = {
  id : string;
  title : string;
  columns : string list;
  rows : 'c row list;
  notes : string list;
}

let cell ?paper measured = { measured; paper }

let format_value v =
  if Float.abs v >= 1000.0 then Printf.sprintf "%.0f" v
  else if Float.abs v >= 10.0 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.2f" v

let format_cell c =
  match c.paper with
  | None -> format_value c.measured
  | Some p -> Printf.sprintf "%s [%s]" (format_value c.measured) (format_value p)

let pp ppf t =
  let header = "" :: t.columns in
  let body =
    List.map (fun r -> r.row_label :: List.map format_cell r.cells) t.rows
  in
  let all_rows = header :: body in
  let n_cols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all_rows in
  let widths = Array.make n_cols 0 in
  List.iter
    (List.iteri (fun i s -> if String.length s > widths.(i) then widths.(i) <- String.length s))
    all_rows;
  Format.fprintf ppf "=== %s: %s ===@." t.id t.title;
  Format.fprintf ppf "(measured [paper])@.";
  let print_row cells =
    List.iteri
      (fun i s ->
        let pad = widths.(i) - String.length s in
        if i = 0 then Format.fprintf ppf "%s%s" s (String.make pad ' ')
        else Format.fprintf ppf "  %s%s" (String.make pad ' ') s)
      cells;
    Format.fprintf ppf "@."
  in
  List.iter print_row all_rows;
  List.iter (fun n -> Format.fprintf ppf "note: %s@." n) t.notes

let to_string t = Format.asprintf "%a" pp t

let to_csv t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "row,column,measured,paper\n";
  List.iter
    (fun r ->
      List.iteri
        (fun i c ->
          let col = try List.nth t.columns i with _ -> string_of_int i in
          Buffer.add_string buf
            (Printf.sprintf "%s,%s,%.4f,%s\n" r.row_label col c.measured
               (match c.paper with None -> "" | Some p -> Printf.sprintf "%.4f" p)))
        r.cells)
    t.rows;
  Buffer.contents buf

let mean_abs_log_ratio t =
  let total = ref 0.0 and n = ref 0 in
  List.iter
    (fun r ->
      List.iter
        (fun c ->
          match c.paper with
          | Some p when p > 0.0 && c.measured > 0.0 ->
            total := !total +. Float.abs (log (c.measured /. p));
            incr n
          | _ -> ())
        r.cells)
    t.rows;
  if !n = 0 then 0.0 else !total /. float_of_int !n
