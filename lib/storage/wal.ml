exception Corrupt = Wal_codec.Corrupt

module View = Wal_codec.View

type record =
  | Update of { lsn : int; txn : int; page : int; before : View.t; after : View.t }
  | Delta of {
      lsn : int;
      txn : int;
      page : int;
      off : int;
      prev_lsn : int;
      before_slice : string;
      after_slice : string;
    }
  | Op of { lsn : int; txn : int; key : int; value : string option }
  | Commit of { lsn : int; txn : int }
  | Abort of { lsn : int; txn : int }
  | Prepare of { lsn : int; txn : int; gid : int }
  | Fuzzy_checkpoint of { lsn : int; start_lsn : int }

let lsn = function
  | Update { lsn; _ } | Delta { lsn; _ } | Op { lsn; _ } | Commit { lsn; _ }
  | Abort { lsn; _ } | Prepare { lsn; _ } | Fuzzy_checkpoint { lsn; _ } ->
    lsn

(* Images compare by content: two views of the same bytes may sit in
   different frames. *)
let equal a b =
  match (a, b) with
  | Update a, Update b ->
    a.lsn = b.lsn && a.txn = b.txn && a.page = b.page && View.equal a.before b.before
    && View.equal a.after b.after
  | _ -> a = b

let txn_of = function
  | Update { txn; _ } | Delta { txn; _ } | Op { txn; _ } | Commit { txn; _ } | Abort { txn; _ }
  | Prepare { txn; _ } ->
    Some txn
  | Fuzzy_checkpoint _ -> None

(* --- delta computation / application ------------------------------- *)

(* The page's 8-byte LSN header (Page.header_bytes) changes on every
   update, so a whole-page diff would always start at byte 0 and span to
   the changed record — position-dependent and near-useless for keys
   late in the page.  Delta records therefore slice the {e body} only
   (off >= 8): the header is reproduced from the record itself — [lsn]
   going forward, [prev_lsn] going backward. *)
let header_bytes = 8

let delta_update ~threshold ~lsn ~txn ~page ~before ~after ~lo ~hi =
  let n = Bytes.length before in
  if Bytes.length after <> n then invalid_arg "Wal.delta_update: length mismatch";
  let update () = Update { lsn; txn; page; before = View.borrow before; after = View.borrow after } in
  if n < header_bytes + 1 then update ()
  else begin
    if lo < header_bytes || lo > hi || hi > n then
      invalid_arg "Wal.delta_update: range outside the page body";
    if Int64.to_int (Bytes.get_int64_le after 0) <> lsn then
      invalid_arg "Wal.delta_update: after image header is not at the record LSN";
    let prev_lsn = Int64.to_int (Bytes.get_int64_le before 0) in
    (* Common-prefix/suffix diff over [lo, hi) alone, 8 bytes at a time
       and then byte by byte; the images agree outside it.  A word
       holding the first differing byte differs, so the suffix scan
       stops before it reaches [p]. *)
    let p = ref lo in
    while !p + 8 <= hi && Bytes.get_int64_ne before !p = Bytes.get_int64_ne after !p do
      p := !p + 8
    done;
    while !p < hi && Bytes.unsafe_get before !p = Bytes.unsafe_get after !p do incr p done;
    let off, len =
      if !p = hi then (header_bytes, 0)
      else begin
        (* [q]: one past the last differing byte. *)
        let q = ref hi in
        while
          !q - 8 >= !p && Bytes.get_int64_ne before (!q - 8) = Bytes.get_int64_ne after (!q - 8)
        do
          q := !q - 8
        done;
        while Bytes.unsafe_get before (!q - 1) = Bytes.unsafe_get after (!q - 1) do decr q done;
        (!p, !q - !p)
      end
    in
    if 2 * len <= threshold then
      Delta
        {
          lsn;
          txn;
          page;
          off;
          prev_lsn;
          before_slice = Bytes.sub_string before off len;
          after_slice = Bytes.sub_string after off len;
        }
    else update ()
  end

let apply_slice image ~off slice =
  let len = String.length slice in
  if off < 0 || off + len > Bytes.length image then raise (Corrupt "delta slice out of range");
  Bytes.blit_string slice 0 image off len

(* --- binary encoding ------------------------------------------------ *)

(* The framing (Wal_codec): a lowercase tag byte, then the fixed 8-byte
   LSN — and, for the transaction-bearing shapes, the fixed 8-byte txn
   id — so the unchecked peeks below keep their O(1) offsets;
   everything after the fixed header is varint-framed; word-at-a-time
   FNV checksum trailer. *)

let encode_with enc r =
  let open Wal_codec.Enc in
  (match r with
  | Update { lsn; txn; page; before; after } ->
    reset enc ~tag:'u';
    int64 enc lsn;
    int64 enc txn;
    varint enc page;
    substring enc before.View.src ~pos:before.pos ~len:before.len;
    substring enc after.View.src ~pos:after.pos ~len:after.len
  | Delta { lsn; txn; page; off; prev_lsn; before_slice; after_slice } ->
    if String.length before_slice <> String.length after_slice then
      invalid_arg "Wal.encode: delta slice length mismatch";
    reset enc ~tag:'d';
    int64 enc lsn;
    int64 enc txn;
    varint enc page;
    varint enc off;
    varint enc prev_lsn;
    varint enc (String.length before_slice);
    (* One shared length prefix; the two slices are the same size by
       construction (they cover the same byte range). *)
    substring enc before_slice ~pos:0 ~len:(String.length before_slice);
    substring enc after_slice ~pos:0 ~len:(String.length after_slice)
  | Op { lsn; txn; key; value } ->
    reset enc ~tag:'o';
    int64 enc lsn;
    int64 enc txn;
    varint enc key;
    (match value with
    | None -> byte enc 0
    | Some v ->
      byte enc 1;
      string enc v)
  | Commit { lsn; txn } ->
    reset enc ~tag:'c';
    int64 enc lsn;
    int64 enc txn
  | Abort { lsn; txn } ->
    reset enc ~tag:'a';
    int64 enc lsn;
    int64 enc txn
  | Prepare { lsn; txn; gid } ->
    reset enc ~tag:'p';
    int64 enc lsn;
    int64 enc txn;
    varint enc gid
  | Fuzzy_checkpoint { lsn; start_lsn } ->
    reset enc ~tag:'f';
    int64 enc lsn;
    varint enc start_lsn);
  finish enc

let encode r = encode_with (Wal_codec.Enc.create ()) r

(* --- unchecked peeks ------------------------------------------------ *)

(* Every record shape places its LSN at bytes 1-8 (after the tag) and —
   for the transaction-bearing shapes — its txn id at bytes 9-16, so
   both read with two loads and no checksum pass.  Safe only on records
   the engine itself appended (the in-memory journals hold exactly what
   [encode] produced); [decode] remains the checked path. *)

let peek_lsn s =
  if String.length s < 17 then raise (Corrupt "record too short");
  Int64.to_int (String.get_int64_le s 1)

let peek_txn s =
  if String.length s < 17 then raise (Corrupt "record too short");
  match s.[0] with
  | 'u' | 'd' | 'o' | 'c' | 'a' | 'p' ->
    if String.length s < 25 then raise (Corrupt "record too short");
    Some (Int64.to_int (String.get_int64_le s 9))
  | _ -> None

let peek_is_fuzzy_checkpoint s = String.length s > 0 && s.[0] = 'f'

(* --- checked decode ------------------------------------------------- *)

let decode s =
  let open Wal_codec.Dec in
  let c = start s in
  let r =
    match Wal_codec.Dec.tag s with
    | 'u' ->
      let lsn = int64 c in
      let txn = int64 c in
      let page = varint c in
      let before = view c in
      let after = view c in
      Update { lsn; txn; page; before; after }
    | 'd' ->
      let lsn = int64 c in
      let txn = int64 c in
      let page = varint c in
      let off = varint c in
      let prev_lsn = varint c in
      let len = varint c in
      let before_slice = string c in
      let after_slice = string c in
      if off < header_bytes then raise (Corrupt "delta slice overlaps the page header");
      if String.length before_slice <> len || String.length after_slice <> len then
        raise (Corrupt "delta slice length mismatch");
      Delta { lsn; txn; page; off; prev_lsn; before_slice; after_slice }
    | 'o' ->
      let lsn = int64 c in
      let txn = int64 c in
      let key = varint c in
      let value =
        match byte c with
        | 0 -> None
        | 1 -> Some (string c)
        | _ -> raise (Corrupt "bad op flag")
      in
      Op { lsn; txn; key; value }
    | 'c' ->
      let lsn = int64 c in
      let txn = int64 c in
      Commit { lsn; txn }
    | 'a' ->
      let lsn = int64 c in
      let txn = int64 c in
      Abort { lsn; txn }
    | 'p' ->
      let lsn = int64 c in
      let txn = int64 c in
      let gid = varint c in
      Prepare { lsn; txn; gid }
    | 'f' ->
      let lsn = int64 c in
      let start_lsn = varint c in
      Fuzzy_checkpoint { lsn; start_lsn }
    | tag -> raise (Corrupt (Printf.sprintf "unknown tag %C" tag))
  in
  if not (finished c) then raise (Corrupt "trailing bytes");
  r

(* Restart recovery runs this on every retained record: only the rare
   prepares pay for a checked decode, decisions are a tag test and a peek. *)
let peek_vote s =
  if String.length s = 0 then `Other
  else
    match s.[0] with
    | 'p' -> ( match decode s with Prepare { txn; gid; _ } -> `Prepared (txn, gid) | _ -> `Other)
    | 'c' | 'a' -> ( match peek_txn s with Some txn -> `Decided txn | None -> `Other)
    | _ -> `Other

let pp ppf = function
  | Update { lsn; txn; page; _ } -> Format.fprintf ppf "Update(lsn=%d txn=%d page=%d)" lsn txn page
  | Delta { lsn; txn; page; off; prev_lsn; before_slice; _ } ->
    Format.fprintf ppf "Delta(lsn=%d prev=%d txn=%d page=%d [%d,%d))" lsn prev_lsn txn page off
      (off + String.length before_slice)
  | Op { lsn; txn; key; value } ->
    Format.fprintf ppf "Op(lsn=%d txn=%d %s)" lsn txn
      (match value with Some v -> Printf.sprintf "put %d=%S" key v | None -> Printf.sprintf "del %d" key)
  | Commit { lsn; txn } -> Format.fprintf ppf "Commit(lsn=%d txn=%d)" lsn txn
  | Abort { lsn; txn } -> Format.fprintf ppf "Abort(lsn=%d txn=%d)" lsn txn
  | Prepare { lsn; txn; gid } -> Format.fprintf ppf "Prepare(lsn=%d txn=%d gid=%d)" lsn txn gid
  | Fuzzy_checkpoint { lsn; start_lsn } ->
    Format.fprintf ppf "FuzzyCkpt(lsn=%d start=%d)" lsn start_lsn
