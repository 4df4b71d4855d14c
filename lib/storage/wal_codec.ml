(* Shared zero-copy log-record framing.  See wal_codec.mli. *)

exception Corrupt of string

(* --- views ---------------------------------------------------------- *)

module View = struct
  type t = { src : string; pos : int; len : int }

  let of_string src = { src; pos = 0; len = String.length src }

  let borrow b = of_string (Bytes.unsafe_to_string b)

  let blit v dst = Bytes.blit_string v.src v.pos dst 0 v.len

  let to_bytes v =
    let b = Bytes.create v.len in
    blit v b;
    b

  let equal a b =
    a.len = b.len
    &&
    let rec same i = i = a.len || (a.src.[a.pos + i] = b.src.[b.pos + i] && same (i + 1)) in
    same 0
end

(* --- encoder -------------------------------------------------------- *)

module Enc = struct
  type t = { mutable buf : Bytes.t; mutable pos : int }

  let create ?(size = 256) () = { buf = Bytes.create (max 16 size); pos = 0 }

  let ensure t n =
    let need = t.pos + n in
    if need > Bytes.length t.buf then begin
      let cap = ref (Bytes.length t.buf * 2) in
      while !cap < need do cap := !cap * 2 done;
      let bigger = Bytes.create !cap in
      Bytes.blit t.buf 0 bigger 0 t.pos;
      t.buf <- bigger
    end

  let reset t ~tag =
    t.pos <- 0;
    ensure t 1;
    Bytes.unsafe_set t.buf 0 tag;
    t.pos <- 1

  let int64 t v =
    ensure t 8;
    Bytes.set_int64_le t.buf t.pos (Int64.of_int v);
    t.pos <- t.pos + 8

  let varint t v =
    if v < 0 then invalid_arg "Wal_codec.Enc.varint: negative";
    ensure t 10;
    let v = ref v in
    while !v >= 0x80 do
      Bytes.unsafe_set t.buf t.pos (Char.unsafe_chr (0x80 lor (!v land 0x7f)));
      t.pos <- t.pos + 1;
      v := !v lsr 7
    done;
    Bytes.unsafe_set t.buf t.pos (Char.unsafe_chr !v);
    t.pos <- t.pos + 1

  let byte t v =
    ensure t 1;
    Bytes.unsafe_set t.buf t.pos (Char.unsafe_chr (v land 0xff));
    t.pos <- t.pos + 1

  let substring t s ~pos ~len =
    if pos < 0 || len < 0 || pos + len > String.length s then
      invalid_arg "Wal_codec.Enc.substring: bad range";
    varint t len;
    ensure t len;
    Bytes.blit_string s pos t.buf t.pos len;
    t.pos <- t.pos + len

  let string t s = substring t s ~pos:0 ~len:(String.length s)

  let size t = t.pos

  let finish t =
    let body = t.pos in
    ensure t 8;
    (* The scratch is a Bytes.t; checksum over it without a copy. *)
    let ck =
      Dbm_util.Digest.fnv64_words
        (Bytes.unsafe_to_string t.buf) ~pos:0 ~len:body
    in
    Bytes.set_int64_le t.buf body ck;
    Bytes.sub_string t.buf 0 (body + 8)
end

(* --- decoder -------------------------------------------------------- *)

module Dec = struct
  type t = { s : string; mutable pos : int; limit : int }

  let tag s =
    if String.length s = 0 then raise (Corrupt "empty record");
    String.unsafe_get s 0

  let start s =
    let len = String.length s in
    if len < 9 then raise (Corrupt "record too short");
    if not (Dbm_util.Digest.fnv64_words_match s ~pos:0 ~len:(len - 8)) then
      raise (Corrupt "checksum mismatch");
    { s; pos = 1; limit = len - 8 }

  let int64 t =
    if t.pos + 8 > t.limit then raise (Corrupt "truncated integer");
    let v = Int64.to_int (String.get_int64_le t.s t.pos) in
    t.pos <- t.pos + 8;
    v

  let varint t =
    let v = ref 0 and shift = ref 0 and continue = ref true in
    while !continue do
      if t.pos >= t.limit then raise (Corrupt "truncated varint");
      if !shift > 62 then raise (Corrupt "varint overflow");
      let b = Char.code (String.unsafe_get t.s t.pos) in
      t.pos <- t.pos + 1;
      v := !v lor ((b land 0x7f) lsl !shift);
      shift := !shift + 7;
      if b < 0x80 then continue := false
    done;
    (* The ninth group reaches the sign bit, which [Enc.varint] never
       sets. *)
    if !v < 0 then raise (Corrupt "varint overflow");
    !v

  let byte t =
    if t.pos >= t.limit then raise (Corrupt "truncated byte");
    let v = Char.code (String.unsafe_get t.s t.pos) in
    t.pos <- t.pos + 1;
    v

  (* [len] is non-negative but may be near [max_int]: compare it with
     the bytes left, never [t.pos + len] with the limit. *)
  let payload_len t =
    let len = varint t in
    if len > t.limit - t.pos then raise (Corrupt "truncated payload");
    len

  let string t =
    let len = payload_len t in
    let v = String.sub t.s t.pos len in
    t.pos <- t.pos + len;
    v

  let view t =
    let len = payload_len t in
    let v = { View.src = t.s; pos = t.pos; len } in
    t.pos <- t.pos + len;
    v

  let finished t = t.pos = t.limit
end

(* --- small records -------------------------------------------------- *)

(* Top-level recursion: no closure per record, unlike [List.iter]. *)
let rec varints enc = function
  | [] -> ()
  | f :: rest ->
    Enc.varint enc f;
    varints enc rest

let encode_fields enc ~tag fields =
  Enc.reset enc ~tag;
  varints enc fields;
  Enc.finish enc

let decode_fields s =
  let d = Dec.start s in
  let rec fields acc = if Dec.finished d then List.rev acc else fields (Dec.varint d :: acc) in
  (Dec.tag s, fields [])
