type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* The fewest significant digits (15 to 17) that read back as [f]. *)
let rec float_repr ?(digits = 15) f =
  let s = Printf.sprintf "%.*g" digits f in
  if digits >= 17 || float_of_string s = f then s else float_repr ~digits:(digits + 1) f

let is_scalar = function List _ | Obj _ -> false | _ -> true

let to_string v =
  let buf = Buffer.create 4096 in
  let rec write indent = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (if Float.is_finite f then float_repr f else "null")
    | String s -> escape buf s
    | List l -> members indent '[' ']' (List.map (fun v -> (None, v)) l)
    | Obj kvs -> members indent '{' '}' (List.map (fun (k, v) -> (Some k, v)) kvs)
  and members indent opening closing ms =
    let flat = List.for_all (fun (_, v) -> is_scalar v) ms in
    let inner = indent ^ "  " in
    Buffer.add_char buf opening;
    List.iteri
      (fun i (key, v) ->
        if i > 0 then Buffer.add_char buf ',';
        if flat then (if i > 0 then Buffer.add_char buf ' ')
        else begin
          Buffer.add_char buf '\n';
          Buffer.add_string buf inner
        end;
        Option.iter
          (fun k ->
            escape buf k;
            Buffer.add_string buf ": ")
          key;
        write inner v)
      ms;
    if not flat then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf indent
    end;
    Buffer.add_char buf closing
  in
  write "" v;
  Buffer.contents buf
