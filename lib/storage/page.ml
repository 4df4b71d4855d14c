exception Page_full

let header_bytes = 8

(* Record area layout: count:4 | (key:8, len:4, bytes)* *)

let empty ~page_size =
  if page_size < header_bytes + 4 then invalid_arg "Page.empty: page too small";
  Bytes.make page_size '\000'

let get_lsn page = Int64.to_int (Bytes.get_int64_le page 0)

let set_lsn page lsn = Bytes.set_int64_le page 0 (Int64.of_int lsn)

let records page =
  let len = Bytes.length page in
  let count = Int32.to_int (Bytes.get_int32_le page header_bytes) in
  if count < 0 then invalid_arg "Page.records: negative record count";
  let rec go i pos acc =
    if i = count then List.rev acc
    else begin
      if pos + 12 > len then invalid_arg "Page.records: truncated record header";
      let key = Int64.to_int (Bytes.get_int64_le page pos) in
      let vlen = Int32.to_int (Bytes.get_int32_le page (pos + 8)) in
      if vlen < 0 || pos + 12 + vlen > len then invalid_arg "Page.records: truncated value";
      let value = Bytes.sub_string page (pos + 12) vlen in
      go (i + 1) (pos + 12 + vlen) ((key, value) :: acc)
    end
  in
  go 0 (header_bytes + 4) []

let encoded_size kvs =
  List.fold_left (fun acc (_, v) -> acc + 12 + String.length v) 4 kvs

let set_records page kvs =
  (* Key-sorted, last value wins for duplicates. *)
  let tbl = Hashtbl.create (List.length kvs) in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) kvs;
  let kvs =
    List.sort (fun (a, _) (b, _) -> Int.compare a b)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  let len = Bytes.length page in
  if header_bytes + encoded_size kvs > len then raise Page_full;
  (* Clear the record area so stale bytes never masquerade as data. *)
  Bytes.fill page header_bytes (len - header_bytes) '\000';
  Bytes.set_int32_le page header_bytes (Int32.of_int (List.length kvs));
  let pos = ref (header_bytes + 4) in
  List.iter
    (fun (k, v) ->
      Bytes.set_int64_le page !pos (Int64.of_int k);
      Bytes.set_int32_le page (!pos + 8) (Int32.of_int (String.length v));
      Bytes.blit_string v 0 page (!pos + 12) (String.length v);
      pos := !pos + 12 + String.length v)
    kvs

(* Offset of [key]'s record header, scanning the record area directly
   without materializing the record list.  Records are key-sorted, so the
   scan stops early at the first larger key.  Returns [None] when absent. *)
let find_record page ~key =
  let len = Bytes.length page in
  let count = Int32.to_int (Bytes.get_int32_le page header_bytes) in
  if count < 0 then invalid_arg "Page.lookup: negative record count";
  let rec go i pos =
    if i = count then None
    else begin
      if pos + 12 > len then invalid_arg "Page.lookup: truncated record header";
      let k = Int64.to_int (Bytes.get_int64_le page pos) in
      let vlen = Int32.to_int (Bytes.get_int32_le page (pos + 8)) in
      if vlen < 0 || pos + 12 + vlen > len then invalid_arg "Page.lookup: truncated value";
      if k = key then Some (pos, vlen)
      else if k > key then None
      else go (i + 1) (pos + 12 + vlen)
    end
  in
  go 0 (header_bytes + 4)

let update page ~key ~value =
  match value, find_record page ~key with
  | Some v, Some (pos, vlen) when String.length v = vlen ->
    (* Equal-length overwrite: splice the value in place instead of the
       decode/Hashtbl/sort/re-encode round trip. *)
    Bytes.blit_string v 0 page (pos + 12) vlen;
    (pos + 12, pos + 12 + vlen)
  | _ ->
    let kvs = records page in
    let without = List.filter (fun (k, _) -> k <> key) kvs in
    let kvs' = match value with None -> without | Some v -> (key, v) :: without in
    set_records page kvs';
    (header_bytes, Bytes.length page)

let lookup page ~key =
  match find_record page ~key with
  | None -> None
  | Some (pos, vlen) -> Some (Bytes.sub_string page (pos + 12) vlen)

let free_bytes page = Bytes.length page - header_bytes - encoded_size (records page)
