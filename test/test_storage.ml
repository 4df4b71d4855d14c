(* Tests for the storage substrate: virtual disk, journal, pages, WAL
   records, lock manager. *)

module Vdisk = Dbm_storage.Vdisk
module Journal = Dbm_storage.Journal
module Page = Dbm_storage.Page
module Wal = Dbm_storage.Wal
module Lock = Dbm_storage.Lock_mgr

let check = Alcotest.check

let bytes_testable = Alcotest.testable (fun ppf b -> Format.fprintf ppf "%S" (Bytes.to_string b))
    Bytes.equal

(* --- Vdisk ------------------------------------------------------------- *)

let page_of_string size s =
  let b = Bytes.make size '\000' in
  Bytes.blit_string s 0 b 0 (String.length s);
  b

let test_vdisk_read_write () =
  let d = Vdisk.create ~pages:4 ~page_size:16 () in
  let b = page_of_string 16 "hello" in
  Vdisk.write d 2 b;
  check bytes_testable "read back cached" b (Vdisk.read d 2);
  check Alcotest.int "one unsynced" 1 (Vdisk.unsynced_pages d)

let test_vdisk_crash_drops_unsynced () =
  let d = Vdisk.create ~pages:4 ~page_size:16 () in
  Vdisk.write d 0 (page_of_string 16 "lost");
  Vdisk.crash d;
  check bytes_testable "back to zeros" (Bytes.make 16 '\000') (Vdisk.read d 0)

let test_vdisk_sync_persists () =
  let d = Vdisk.create ~pages:4 ~page_size:16 () in
  let b = page_of_string 16 "kept" in
  Vdisk.write d 1 b;
  Vdisk.sync d;
  Vdisk.crash d;
  check bytes_testable "survives crash" b (Vdisk.read d 1);
  check Alcotest.int "cache empty" 0 (Vdisk.unsynced_pages d)

let test_vdisk_write_isolated () =
  let d = Vdisk.create ~pages:2 ~page_size:8 () in
  let b = page_of_string 8 "x" in
  Vdisk.write d 0 b;
  Bytes.set b 0 'y';
  check bytes_testable "defensive copy" (page_of_string 8 "x") (Vdisk.read d 0)

let test_vdisk_bounds () =
  let d = Vdisk.create ~pages:2 ~page_size:8 () in
  (match Vdisk.read d 2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range read accepted");
  match Vdisk.write d 0 (Bytes.create 7) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "short buffer accepted"

(* --- Journal ------------------------------------------------------------ *)

let test_journal_order () =
  let j = Journal.create () in
  ignore (Journal.append j "a");
  ignore (Journal.append j "b");
  Journal.sync j;
  check (Alcotest.list Alcotest.string) "append order" [ "a"; "b" ] (Journal.read_all j)

let test_journal_crash () =
  let j = Journal.create () in
  ignore (Journal.append j "durable");
  Journal.sync j;
  ignore (Journal.append j "volatile");
  Journal.crash j;
  check (Alcotest.list Alcotest.string) "tail dropped" [ "durable" ] (Journal.read_all j);
  check Alcotest.int "synced count" 1 (Journal.synced j)

let test_journal_seq_numbers () =
  let j = Journal.create () in
  check Alcotest.int "first" 0 (Journal.append j "a");
  check Alcotest.int "second" 1 (Journal.append j "b");
  Journal.sync j;
  check Alcotest.int "third" 2 (Journal.append j "c")

let test_journal_truncate () =
  let j = Journal.create () in
  List.iter (fun s -> ignore (Journal.append j s)) [ "a"; "b"; "c"; "d" ];
  Journal.sync j;
  Journal.truncate j ~keep_from:2;
  check (Alcotest.list Alcotest.string) "kept suffix" [ "c"; "d" ] (Journal.read_all j);
  (* sequence numbers keep counting from where they were *)
  check Alcotest.int "next seq" 4 (Journal.append j "e");
  Journal.sync j;
  check (Alcotest.list Alcotest.string) "append after truncate" [ "c"; "d"; "e" ]
    (Journal.read_all j)

let test_journal_truncate_bounds () =
  let j = Journal.create () in
  ignore (Journal.append j "a");
  match Journal.truncate j ~keep_from:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "truncating unsynced records accepted"

(* --- Page ---------------------------------------------------------------- *)

let test_page_roundtrip () =
  let p = Page.empty ~page_size:256 in
  Page.set_records p [ (3, "three"); (1, "one"); (2, "two") ];
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "sorted roundtrip"
    [ (1, "one"); (2, "two"); (3, "three") ]
    (Page.records p)

let test_page_lsn () =
  let p = Page.empty ~page_size:64 in
  check Alcotest.int "initial lsn" 0 (Page.get_lsn p);
  Page.set_lsn p 42;
  check Alcotest.int "lsn set" 42 (Page.get_lsn p);
  Page.set_records p [ (1, "v") ];
  check Alcotest.int "records keep lsn" 42 (Page.get_lsn p)

let test_page_update_lookup () =
  let p = Page.empty ~page_size:256 in
  Page.update p ~key:5 ~value:(Some "five");
  check (Alcotest.option Alcotest.string) "lookup" (Some "five") (Page.lookup p ~key:5);
  Page.update p ~key:5 ~value:(Some "FIVE");
  check (Alcotest.option Alcotest.string) "overwrite" (Some "FIVE") (Page.lookup p ~key:5);
  Page.update p ~key:5 ~value:None;
  check (Alcotest.option Alcotest.string) "delete" None (Page.lookup p ~key:5)

let test_page_full () =
  let p = Page.empty ~page_size:64 in
  match Page.set_records p [ (1, String.make 100 'x') ] with
  | exception Page.Page_full -> ()
  | _ -> Alcotest.fail "overfull page accepted"

let test_page_duplicate_keys_last_wins () =
  let p = Page.empty ~page_size:128 in
  Page.set_records p [ (1, "old"); (1, "new") ];
  check (Alcotest.option Alcotest.string) "last wins" (Some "new") (Page.lookup p ~key:1);
  check Alcotest.int "single record" 1 (List.length (Page.records p))

let test_page_update_in_place () =
  (* the equal-length overwrite fast path must agree with a full re-encode *)
  let p = Page.empty ~page_size:256 in
  Page.set_records p [ (1, "one"); (2, "two"); (3, "three") ];
  Page.set_lsn p 9;
  let free_before = Page.free_bytes p in
  Page.update p ~key:2 ~value:(Some "TWO");
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "splice in place"
    [ (1, "one"); (2, "TWO"); (3, "three") ]
    (Page.records p);
  check Alcotest.int "free space unchanged" free_before (Page.free_bytes p);
  check Alcotest.int "lsn untouched" 9 (Page.get_lsn p)

let test_page_lookup_allocation_bounded () =
  (* lookup scans the record area directly: allocation per call must not
     scale with the number of records on the page *)
  let p = Page.empty ~page_size:4096 in
  Page.set_records p (List.init 128 (fun i -> (i, Printf.sprintf "value-%03d" i)));
  (* warm up so the check measures the steady state *)
  ignore (Sys.opaque_identity (Page.lookup p ~key:100));
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Page.lookup p ~key:100))
  done;
  let words_per_call = (Gc.minor_words () -. before) /. 1000.0 in
  (* the result option + a 9-byte string is ~8 words; decoding the full
     128-record list would be thousands *)
  if words_per_call > 64.0 then
    Alcotest.failf "lookup allocates %.1f words/call (record list materialized?)" words_per_call

let prop_page_lookup_matches_records =
  QCheck.Test.make ~name:"lookup agrees with the decoded record list" ~count:300
    QCheck.(
      pair
        (small_list (pair (int_range 0 50) (string_of_size (Gen.int_range 0 10))))
        (int_range 0 60))
    (fun (kvs, probe) ->
      let p = Page.empty ~page_size:2048 in
      Page.set_records p kvs;
      Page.lookup p ~key:probe = List.assoc_opt probe (Page.records p))

let prop_page_update_equal_length =
  QCheck.Test.make ~name:"equal-length update behaves like set_records" ~count:300
    QCheck.(
      pair (small_list (pair (int_range 0 20) (string_of_size (Gen.return 4)))) (int_range 0 20))
    (fun (kvs, key) ->
      let fast = Page.empty ~page_size:2048 and slow = Page.empty ~page_size:2048 in
      Page.set_records fast kvs;
      (* canonical form: unique keys, last duplicate won *)
      let canonical = Page.records fast in
      QCheck.assume (List.mem_assoc key canonical);
      Page.update fast ~key ~value:(Some "NEWV");
      Page.set_records slow ((key, "NEWV") :: List.remove_assoc key canonical);
      Page.records fast = Page.records slow)

let prop_page_roundtrip =
  QCheck.Test.make ~name:"page records roundtrip" ~count:300
    QCheck.(small_list (pair (int_range 0 50) (string_of_size (Gen.int_range 0 10))))
    (fun kvs ->
      let p = Page.empty ~page_size:2048 in
      Page.set_records p kvs;
      let expected =
        let tbl = Hashtbl.create 16 in
        List.iter (fun (k, v) -> Hashtbl.replace tbl k v) kvs;
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
      in
      Page.records p = expected)

(* --- Wal ------------------------------------------------------------------ *)

let sample_records =
  [
    Wal.Update { lsn = 7; txn = 3; page = 9; before = Bytes.of_string "abc"; after = Bytes.of_string "xyz" };
    Wal.Commit { lsn = 8; txn = 3 };
    Wal.Abort { lsn = 9; txn = 4 };
    Wal.Checkpoint { lsn = 10; active = [ 5; 6 ] };
    Wal.Checkpoint { lsn = 11; active = [] };
    Wal.Delta
      { lsn = 12; txn = 5; page = 2; off = 17; prev_lsn = 4; before_slice = "old"; after_slice = "new" };
    Wal.Delta { lsn = 13; txn = 5; page = 0; off = 8; prev_lsn = 0; before_slice = ""; after_slice = "" };
    Wal.Op { lsn = 14; txn = 6; key = 31; value = Some "payload" };
    Wal.Op { lsn = 15; txn = 6; key = 0; value = None };
    Wal.Fuzzy_checkpoint { lsn = 16; start_lsn = 3; active = [ 1; 2 ]; dirty = [ (0, 3); (7, 9) ] };
    Wal.Fuzzy_checkpoint { lsn = 17; start_lsn = 17; active = []; dirty = [] };
  ]

let test_wal_roundtrip () =
  List.iter
    (fun r ->
      let r' = Wal.decode (Wal.encode r) in
      if r <> r' then Alcotest.failf "roundtrip failed for %s" (Format.asprintf "%a" Wal.pp r))
    sample_records

let test_wal_checksum_detects_corruption () =
  let s = Wal.encode (Wal.Commit { lsn = 1; txn = 2 }) in
  let b = Bytes.of_string s in
  Bytes.set b 3 (Char.chr (Char.code (Bytes.get b 3) lxor 0xFF));
  match Wal.decode (Bytes.to_string b) with
  | exception Wal.Corrupt _ -> ()
  | _ -> Alcotest.fail "corruption not detected"

let test_wal_truncated () =
  let s = Wal.encode (Wal.Commit { lsn = 1; txn = 2 }) in
  match Wal.decode (String.sub s 0 5) with
  | exception Wal.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncated record accepted"

(* Tags are lowercase: a frame with an uppercase tag decodes as
   [Corrupt] even under a valid checksum, never as a record or another
   exception. *)
let test_wal_uppercase_tags_corrupt () =
  let module Enc = Dbm_storage.Wal_codec.Enc in
  let enc = Enc.create () in
  List.iter
    (fun tag ->
      Enc.reset enc ~tag;
      Enc.int64 enc 8;
      Enc.int64 enc 3;
      match Wal.decode (Enc.finish enc) with
      | exception Wal.Corrupt _ -> ()
      | exception e -> Alcotest.failf "tag %C raised %s" tag (Printexc.to_string e)
      | _ -> Alcotest.failf "tag %C decoded to a record" tag)
    [ 'U'; 'C'; 'A'; 'K'; 'F' ]

(* A length varint under a valid checksum may decode to a value with the
   sign bit set (eight 0xff then 0x7f) or to one near [max_int] (0x3f
   last), where [pos + len] overflows.  Both are [Corrupt], through the
   payload accessors and through a whole-record decode. *)
let test_wal_bad_lengths_corrupt () =
  let module Codec = Dbm_storage.Wal_codec in
  let enc = Codec.Enc.create () in
  let frame ~tag ~prefix last =
    Codec.Enc.reset enc ~tag;
    prefix ();
    for _ = 1 to 8 do
      Codec.Enc.byte enc 0xff
    done;
    Codec.Enc.byte enc last;
    Codec.Enc.finish enc
  in
  let expect_corrupt what f =
    match f () with
    | exception Codec.Corrupt _ -> ()
    | exception e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e)
    | _ -> Alcotest.failf "%s decoded" what
  in
  List.iter
    (fun last ->
      let bare = frame ~tag:'x' ~prefix:ignore last in
      expect_corrupt (Printf.sprintf "Dec.string, last byte %#x" last) (fun () ->
          Codec.Dec.string (Codec.Dec.start bare));
      expect_corrupt (Printf.sprintf "Dec.bytes, last byte %#x" last) (fun () ->
          Codec.Dec.bytes (Codec.Dec.start bare));
      (* an update's before image and an operation's value *)
      let update =
        frame ~tag:'u' last ~prefix:(fun () ->
            Codec.Enc.int64 enc 8;
            Codec.Enc.int64 enc 3;
            Codec.Enc.varint enc 1)
      in
      let op =
        frame ~tag:'o' last ~prefix:(fun () ->
            Codec.Enc.int64 enc 8;
            Codec.Enc.int64 enc 3;
            Codec.Enc.varint enc 1;
            Codec.Enc.byte enc 1)
      in
      List.iter
        (fun (name, s) ->
          expect_corrupt (Printf.sprintf "Wal.decode %s, last byte %#x" name last) (fun () ->
              Wal.decode s))
        [ ("update", update); ("op", op) ])
    [ 0x7f; 0x3f ]

let test_wal_peeks_agree_with_decode () =
  List.iter
    (fun r ->
      let s = Wal.encode r in
      check Alcotest.int "peek_lsn" (Wal.lsn r) (Wal.peek_lsn s);
      check (Alcotest.option Alcotest.int) "peek_txn" (Wal.txn_of r) (Wal.peek_txn s);
      check Alcotest.bool "peek fuzzy"
        (match r with Wal.Fuzzy_checkpoint _ -> true | _ -> false)
        (Wal.peek_is_fuzzy_checkpoint s))
    sample_records

let test_wal_encode_allocation_bounded () =
  (* the scratch-buffer encoder's one allocation per record is the
     returned string: ~(record size / 8) words.  The old Buffer path
     (8-byte boxes per int, body-then-checksum concat) was several
     times that. *)
  let page = 1024 in
  let r =
    Wal.Update
      { lsn = 123456; txn = 789; page = 42; before = Bytes.make page 'b'; after = Bytes.make page 'a' }
  in
  let enc = Dbm_storage.Wal_codec.Enc.create ~size:(2 * page + 64) () in
  ignore (Sys.opaque_identity (Wal.encode_with enc r));
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Wal.encode_with enc r))
  done;
  let words_per_call = (Gc.minor_words () -. before) /. 1000.0 in
  (* the two 1024-byte images encode to ~2080 bytes = ~261 words *)
  if words_per_call > 320.0 then
    Alcotest.failf "encode_with allocates %.0f words/call (want ~261: result string only)"
      words_per_call

let test_wal_decode_allocation_bounded () =
  (* decode extracts each image with exactly one copy; the old cursor
     path copied every payload twice *)
  let page = 1024 in
  let s =
    Wal.encode
      (Wal.Update
         { lsn = 123456; txn = 789; page = 42; before = Bytes.make page 'b'; after = Bytes.make page 'a' })
  in
  ignore (Sys.opaque_identity (Wal.decode s));
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Wal.decode s))
  done;
  let words_per_call = (Gc.minor_words () -. before) /. 1000.0 in
  (* two 1024-byte images = ~258 words + the record block; double-copy
     would be ~520+ *)
  if words_per_call > 340.0 then
    Alcotest.failf "decode allocates %.0f words/call (payloads copied twice?)" words_per_call

let test_wal_accessors () =
  check Alcotest.int "lsn" 8 (Wal.lsn (Wal.Commit { lsn = 8; txn = 3 }));
  check (Alcotest.option Alcotest.int) "txn" (Some 3) (Wal.txn_of (Wal.Commit { lsn = 8; txn = 3 }));
  check (Alcotest.option Alcotest.int) "checkpoint has no txn" None
    (Wal.txn_of (Wal.Checkpoint { lsn = 1; active = [] }))

(* Generator over every record shape the codec frames. *)
let wal_record_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun lsn txn -> Wal.Commit { lsn; txn }) (int_range 0 1000) (int_range 0 1000);
        map2 (fun lsn txn -> Wal.Abort { lsn; txn }) (int_range 0 1000) (int_range 0 1000);
        map
          (fun (lsn, txn, page, b, a) ->
            Wal.Update
              { lsn; txn; page; before = Bytes.of_string b; after = Bytes.of_string a })
          (tup5 (int_range 0 1000) (int_range 0 1000) (int_range 0 1000)
             (string_size (int_range 0 40))
             (string_size (int_range 0 40)));
        (int_range 0 30 >>= fun n ->
         map
           (fun (lsn, txn, page, off, prev_lsn, (b, a)) ->
             Wal.Delta { lsn; txn; page; off; prev_lsn; before_slice = b; after_slice = a })
           (tup6 (int_range 0 1000) (int_range 0 1000) (int_range 0 1000)
              (* slices never overlap the 8-byte page header *)
              (int_range 8 2000) (int_range 0 1000)
              (tup2 (string_size (return n)) (string_size (return n)))));
        map
          (fun (lsn, txn, key, value) -> Wal.Op { lsn; txn; key; value })
          (tup4 (int_range 0 1000) (int_range 0 1000) (int_range 0 1000)
             (option (string_size (int_range 0 40))));
        map2
          (fun lsn active -> Wal.Checkpoint { lsn; active })
          (int_range 0 1000)
          (small_list (int_range 0 100));
        map
          (fun (lsn, start_lsn, active, dirty) ->
            Wal.Fuzzy_checkpoint { lsn; start_lsn; active; dirty })
          (tup4 (int_range 0 1000) (int_range 0 1000)
             (small_list (int_range 0 100))
             (small_list (pair (int_range 0 100) (int_range 0 1000))));
      ])

let wal_arbitrary =
  QCheck.make ~print:(fun r -> Format.asprintf "%a" Wal.pp r) wal_record_gen

let prop_wal_roundtrip =
  (* roundtrip through a reused scratch encoder — the hot append path:
     the buffer must not leak one record's bytes into the next *)
  let enc = Dbm_storage.Wal_codec.Enc.create () in
  QCheck.Test.make ~name:"wal encode/decode roundtrip (all shapes, shared scratch)" ~count:500
    wal_arbitrary (fun r -> Wal.decode (Wal.encode_with enc r) = r)

let prop_wal_injective =
  QCheck.Test.make ~name:"wal encoding is injective" ~count:500
    (QCheck.pair wal_arbitrary wal_arbitrary) (fun (r1, r2) ->
      r1 = r2 || Wal.encode r1 <> Wal.encode r2)

let prop_wal_truncation_corrupt =
  QCheck.Test.make ~name:"any truncation decodes as Corrupt" ~count:500
    (QCheck.pair wal_arbitrary (QCheck.int_range 0 10_000))
    (fun (r, cut) ->
      let s = Wal.encode r in
      let cut = cut mod String.length s in
      match Wal.decode (String.sub s 0 cut) with
      | exception Wal.Corrupt _ -> true
      | _ -> false)

let prop_wal_bitflip_corrupt =
  (* the checksum step [h <- (h xor word) * prime] is injective in [h]
     for fixed input, so a single flipped bit always changes the
     trailer: every one-bit corruption must be detected *)
  QCheck.Test.make ~name:"any single bit-flip decodes as Corrupt" ~count:500
    (QCheck.pair wal_arbitrary (QCheck.pair (QCheck.int_range 0 10_000) (QCheck.int_range 0 7)))
    (fun (r, (pos, bit)) ->
      let s = Wal.encode r in
      let b = Bytes.of_string s in
      let pos = pos mod Bytes.length b in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
      match Wal.decode (Bytes.to_string b) with
      | exception Wal.Corrupt _ -> true
      | _ -> false)

let prop_wal_delta_apply =
  (* delta_update on random page pairs: applying the after slice (plus
     the record's lsn in the header) to the before image must reproduce
     the after image exactly, and the before slice plus [prev_lsn] must
     invert it — whatever side of the threshold the diff lands on.
     Images are page-shaped: an 8-byte LSN header, then a random body;
     the after header holds the record's LSN (the engine stamps it
     before logging — delta_update's contract). *)
  let lsn = 77 in
  let gen =
    QCheck.Gen.(
      int_range 1 64 >>= fun n ->
      tup3 (int_range 0 1000) (string_size (return n)) (string_size (return n)))
  in
  let page_of ~hdr body =
    let img = Bytes.create (8 + String.length body) in
    Bytes.set_int64_le img 0 (Int64.of_int hdr);
    Bytes.blit_string body 0 img 8 (String.length body);
    img
  in
  QCheck.Test.make ~name:"delta encode/apply = full-image restore" ~count:500
    (QCheck.make ~print:(fun (p, b, a) -> Printf.sprintf "hdr=%d %S -> %S" p b a) gen)
    (fun (prev, b, a) ->
      let before = page_of ~hdr:prev b and after = page_of ~hdr:lsn a in
      match Wal.delta_update ~threshold:32 ~lsn ~txn:1 ~page:0 ~before ~after with
      | Wal.Delta { off; prev_lsn; before_slice; after_slice; _ } ->
        let fwd = Bytes.copy before in
        Wal.apply_slice fwd ~off after_slice;
        Bytes.set_int64_le fwd 0 (Int64.of_int lsn);
        let bwd = Bytes.copy after in
        Wal.apply_slice bwd ~off before_slice;
        Bytes.set_int64_le bwd 0 (Int64.of_int prev_lsn);
        prev_lsn = prev && Bytes.equal fwd after && Bytes.equal bwd before
      | Wal.Update { before = b'; after = a'; _ } ->
        (* fallback path: full images, verbatim *)
        Bytes.equal b' before && Bytes.equal a' after
      | _ -> false)

(* --- Buffer_pool ------------------------------------------------------------ *)

module Pool = Dbm_storage.Buffer_pool

let make_pool ?can_evict ?before_evict ~frames () =
  let d = Vdisk.create ~pages:16 ~page_size:64 () in
  (* give the disk distinguishable contents *)
  for p = 0 to 15 do
    let b = Bytes.make 64 '\000' in
    Bytes.set b 16 (Char.chr (Char.code 'a' + p));
    Vdisk.write d p b
  done;
  Vdisk.sync d;
  (d, Pool.create d ~frames ?can_evict ?before_evict ())

let test_pool_hit_miss () =
  let _, pool = make_pool ~frames:2 () in
  let b = Pool.get pool 3 in
  check Alcotest.char "fetched from disk" 'd' (Bytes.get b 16);
  Pool.unpin pool 3;
  ignore (Pool.get pool 3);
  Pool.unpin pool 3;
  check Alcotest.int "one miss" 1 (Pool.misses pool);
  check Alcotest.int "one hit" 1 (Pool.hits pool)

let test_pool_eviction_lru () =
  let _, pool = make_pool ~frames:2 () in
  ignore (Pool.get pool 0);
  Pool.unpin pool 0;
  ignore (Pool.get pool 1);
  Pool.unpin pool 1;
  ignore (Pool.get pool 0);  (* touch 0: 1 becomes LRU *)
  Pool.unpin pool 0;
  ignore (Pool.get pool 2);
  Pool.unpin pool 2;
  check Alcotest.bool "page 1 evicted" false (Pool.resident pool 1);
  check Alcotest.bool "page 0 kept" true (Pool.resident pool 0);
  check Alcotest.int "one eviction" 1 (Pool.evictions pool)

let test_pool_pinned_not_evicted () =
  let _, pool = make_pool ~frames:1 () in
  ignore (Pool.get pool 0);  (* pinned *)
  match Pool.get pool 1 with
  | exception Pool.No_free_frame -> ()
  | _ -> Alcotest.fail "evicted a pinned frame"

let test_pool_dirty_writeback () =
  let d, pool = make_pool ~frames:1 () in
  let b = Pool.get pool 0 in
  Bytes.set b 16 'Z';
  Pool.mark_dirty pool 0;
  Pool.unpin pool 0;
  (* force eviction: the dirty frame must reach the disk *)
  ignore (Pool.get pool 1);
  Pool.unpin pool 1;
  check Alcotest.char "dirty page written back" 'Z' (Bytes.get (Vdisk.read d 0) 16)

let test_pool_wal_gate () =
  let allowed = ref false in
  let forced = ref 0 in
  let _, pool =
    make_pool ~frames:1
      ~can_evict:(fun ~page:_ ~lsn:_ -> !allowed)
      ~before_evict:(fun ~page:_ ~lsn:_ -> incr forced)
      ()
  in
  let b = Pool.get pool 0 in
  Bytes.set b 16 'Z';
  Pool.mark_dirty pool 0;
  Pool.unpin pool 0;
  (* gate closed: the only candidate is unevictable *)
  (match Pool.get pool 1 with
  | exception Pool.No_free_frame -> ()
  | _ -> Alcotest.fail "evicted past a closed WAL gate");
  check Alcotest.bool "before_evict ran (a chance to force the log)" true (!forced > 0);
  allowed := true;
  ignore (Pool.get pool 1);
  Pool.unpin pool 1;
  check Alcotest.bool "evicted once the gate opened" true (Pool.resident pool 1)

let test_pool_flush_all () =
  let d, pool = make_pool ~frames:4 () in
  List.iter
    (fun p ->
      let b = Pool.get pool p in
      Bytes.set b 16 'X';
      Pool.mark_dirty pool p;
      Pool.unpin pool p)
    [ 0; 1; 2 ];
  Pool.flush_all pool;
  Vdisk.crash d;
  List.iter
    (fun p -> check Alcotest.char "durable after flush_all" 'X' (Bytes.get (Vdisk.read d p) 16))
    [ 0; 1; 2 ];
  check Alcotest.bool "frames clean" false (Pool.is_dirty pool 0)

let test_pool_nested_pins () =
  let _, pool = make_pool ~frames:2 () in
  ignore (Pool.get pool 0);
  ignore (Pool.get pool 0);
  Pool.unpin pool 0;
  check Alcotest.int "still pinned" 1 (Pool.pinned pool);
  Pool.unpin pool 0;
  check Alcotest.int "fully unpinned" 0 (Pool.pinned pool);
  match Pool.unpin pool 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "over-unpin accepted"

(* --- Lock_mgr --------------------------------------------------------------- *)

let test_lock_grant_and_conflict () =
  let t = Lock.create () in
  check Alcotest.bool "S granted" true (Lock.acquire t ~txn:1 ~page:1 ~mode:Lock.S = Lock.Granted);
  check Alcotest.bool "S shared" true (Lock.acquire t ~txn:2 ~page:1 ~mode:Lock.S = Lock.Granted);
  check Alcotest.bool "X blocks" true (Lock.acquire t ~txn:3 ~page:1 ~mode:Lock.X = Lock.Would_block);
  check Alcotest.bool "t3 recorded waiting" true (Lock.waiting t ~txn:3)

let test_lock_release_then_grant () =
  let t = Lock.create () in
  ignore (Lock.acquire t ~txn:1 ~page:1 ~mode:Lock.X);
  check Alcotest.bool "blocked" true (Lock.acquire t ~txn:2 ~page:1 ~mode:Lock.X = Lock.Would_block);
  Lock.release_all t ~txn:1;
  check Alcotest.bool "granted after release" true
    (Lock.acquire t ~txn:2 ~page:1 ~mode:Lock.X = Lock.Granted)

let test_lock_upgrade () =
  let t = Lock.create () in
  ignore (Lock.acquire t ~txn:1 ~page:1 ~mode:Lock.S);
  check Alcotest.bool "sole holder upgrades" true
    (Lock.acquire t ~txn:1 ~page:1 ~mode:Lock.X = Lock.Granted);
  check Alcotest.bool "holds X" true (Lock.holds t ~txn:1 ~page:1 = Some Lock.X)

let test_lock_upgrade_blocked_by_other_reader () =
  let t = Lock.create () in
  ignore (Lock.acquire t ~txn:1 ~page:1 ~mode:Lock.S);
  ignore (Lock.acquire t ~txn:2 ~page:1 ~mode:Lock.S);
  check Alcotest.bool "upgrade must wait" true
    (Lock.acquire t ~txn:1 ~page:1 ~mode:Lock.X = Lock.Would_block)

let test_lock_deadlock_detected () =
  let t = Lock.create () in
  ignore (Lock.acquire t ~txn:1 ~page:1 ~mode:Lock.X);
  ignore (Lock.acquire t ~txn:2 ~page:2 ~mode:Lock.X);
  check Alcotest.bool "t1 waits for p2" true
    (Lock.acquire t ~txn:1 ~page:2 ~mode:Lock.X = Lock.Would_block);
  match Lock.acquire t ~txn:2 ~page:1 ~mode:Lock.X with
  | Lock.Deadlock cycle ->
    check Alcotest.bool "cycle mentions both" true (List.mem 1 cycle && List.mem 2 cycle)
  | _ -> Alcotest.fail "deadlock not detected"

let test_lock_three_way_deadlock () =
  let t = Lock.create () in
  ignore (Lock.acquire t ~txn:1 ~page:1 ~mode:Lock.X);
  ignore (Lock.acquire t ~txn:2 ~page:2 ~mode:Lock.X);
  ignore (Lock.acquire t ~txn:3 ~page:3 ~mode:Lock.X);
  ignore (Lock.acquire t ~txn:1 ~page:2 ~mode:Lock.X);
  ignore (Lock.acquire t ~txn:2 ~page:3 ~mode:Lock.X);
  match Lock.acquire t ~txn:3 ~page:1 ~mode:Lock.X with
  | Lock.Deadlock cycle -> check Alcotest.bool "3-cycle" true (List.length cycle >= 3)
  | _ -> Alcotest.fail "3-way deadlock not detected"

let test_lock_fifo_fairness () =
  let t = Lock.create () in
  ignore (Lock.acquire t ~txn:1 ~page:1 ~mode:Lock.S);
  (* writer queues behind the reader *)
  check Alcotest.bool "writer waits" true
    (Lock.acquire t ~txn:2 ~page:1 ~mode:Lock.X = Lock.Would_block);
  (* a later reader may not overtake the queued writer *)
  check Alcotest.bool "reader cannot overtake writer" true
    (Lock.acquire t ~txn:3 ~page:1 ~mode:Lock.S = Lock.Would_block)

let test_lock_withdraw () =
  let t = Lock.create () in
  ignore (Lock.acquire t ~txn:1 ~page:1 ~mode:Lock.X);
  ignore (Lock.acquire t ~txn:2 ~page:1 ~mode:Lock.X);
  Lock.withdraw t ~txn:2 ~page:1;
  check Alcotest.bool "no longer waiting" false (Lock.waiting t ~txn:2)

let test_lock_locked_pages () =
  let t = Lock.create () in
  ignore (Lock.acquire t ~txn:1 ~page:1 ~mode:Lock.X);
  ignore (Lock.acquire t ~txn:1 ~page:2 ~mode:Lock.S);
  check Alcotest.int "two pages" 2 (Lock.locked_pages t);
  Lock.release_all t ~txn:1;
  check Alcotest.int "none" 0 (Lock.locked_pages t)

(* --- Storage_bench ------------------------------------------------------- *)

(* Every argument is checked before the first section runs: a bad one
   raises without a single clock read. *)
let test_storage_bench_rejects_early () =
  let module SB = Dbm_storage.Storage_bench in
  let reads = ref 0 in
  let now () =
    incr reads;
    0.0
  in
  let rejects name run =
    reads := 0;
    (match run () with
    | (_ : SB.t) -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ());
    check Alcotest.int (name ^ ": clock reads") 0 !reads
  in
  rejects "scale 0" (fun () -> SB.run ~scale:0 ~now ());
  rejects "jobs [0]" (fun () -> SB.run ~jobs:[ 0 ] ~now ());
  rejects "unknown log format" (fun () -> SB.run ~log_formats:[ "bogus" ] ~now ());
  rejects "read fraction 1.5" (fun () -> SB.run ~read_fracs:[ 1.5 ] ~now ());
  rejects "no read fractions" (fun () -> SB.run ~read_fracs:[] ~now ());
  rejects "shard count 0" (fun () -> SB.run ~shard_counts:[ 0 ] ~now ());
  rejects "cross fraction -0.1" (fun () -> SB.run ~cross_fracs:[ -0.1 ] ~now ())

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_page_roundtrip; prop_page_lookup_matches_records; prop_page_update_equal_length;
      prop_wal_roundtrip; prop_wal_injective; prop_wal_truncation_corrupt;
      prop_wal_bitflip_corrupt; prop_wal_delta_apply;
    ]

let () =
  Alcotest.run "dbm_storage substrate"
    [
      ( "vdisk",
        [
          Alcotest.test_case "read/write" `Quick test_vdisk_read_write;
          Alcotest.test_case "crash drops unsynced" `Quick test_vdisk_crash_drops_unsynced;
          Alcotest.test_case "sync persists" `Quick test_vdisk_sync_persists;
          Alcotest.test_case "defensive copies" `Quick test_vdisk_write_isolated;
          Alcotest.test_case "bounds" `Quick test_vdisk_bounds;
        ] );
      ( "journal",
        [
          Alcotest.test_case "order" `Quick test_journal_order;
          Alcotest.test_case "crash" `Quick test_journal_crash;
          Alcotest.test_case "sequence numbers" `Quick test_journal_seq_numbers;
          Alcotest.test_case "truncate" `Quick test_journal_truncate;
          Alcotest.test_case "truncate bounds" `Quick test_journal_truncate_bounds;
        ] );
      ( "page",
        [
          Alcotest.test_case "roundtrip" `Quick test_page_roundtrip;
          Alcotest.test_case "lsn" `Quick test_page_lsn;
          Alcotest.test_case "update/lookup" `Quick test_page_update_lookup;
          Alcotest.test_case "in-place update" `Quick test_page_update_in_place;
          Alcotest.test_case "lookup allocation bounded" `Quick
            test_page_lookup_allocation_bounded;
          Alcotest.test_case "page full" `Quick test_page_full;
          Alcotest.test_case "duplicate keys" `Quick test_page_duplicate_keys_last_wins;
        ] );
      ( "wal",
        [
          Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "uppercase tags are Corrupt" `Quick test_wal_uppercase_tags_corrupt;
          Alcotest.test_case "overflowing lengths are Corrupt" `Quick test_wal_bad_lengths_corrupt;
          Alcotest.test_case "peeks agree with decode" `Quick test_wal_peeks_agree_with_decode;
          Alcotest.test_case "checksum" `Quick test_wal_checksum_detects_corruption;
          Alcotest.test_case "truncated" `Quick test_wal_truncated;
          Alcotest.test_case "accessors" `Quick test_wal_accessors;
          Alcotest.test_case "encode allocation bounded" `Quick
            test_wal_encode_allocation_bounded;
          Alcotest.test_case "decode allocation bounded" `Quick
            test_wal_decode_allocation_bounded;
        ] );
      ( "buffer_pool",
        [
          Alcotest.test_case "hit/miss" `Quick test_pool_hit_miss;
          Alcotest.test_case "lru eviction" `Quick test_pool_eviction_lru;
          Alcotest.test_case "pinned not evicted" `Quick test_pool_pinned_not_evicted;
          Alcotest.test_case "dirty write-back" `Quick test_pool_dirty_writeback;
          Alcotest.test_case "WAL gate" `Quick test_pool_wal_gate;
          Alcotest.test_case "flush_all" `Quick test_pool_flush_all;
          Alcotest.test_case "nested pins" `Quick test_pool_nested_pins;
        ] );
      ( "lock_mgr",
        [
          Alcotest.test_case "grant and conflict" `Quick test_lock_grant_and_conflict;
          Alcotest.test_case "release then grant" `Quick test_lock_release_then_grant;
          Alcotest.test_case "upgrade" `Quick test_lock_upgrade;
          Alcotest.test_case "upgrade blocked" `Quick test_lock_upgrade_blocked_by_other_reader;
          Alcotest.test_case "deadlock" `Quick test_lock_deadlock_detected;
          Alcotest.test_case "3-way deadlock" `Quick test_lock_three_way_deadlock;
          Alcotest.test_case "fifo fairness" `Quick test_lock_fifo_fairness;
          Alcotest.test_case "withdraw" `Quick test_lock_withdraw;
          Alcotest.test_case "locked pages" `Quick test_lock_locked_pages;
        ] );
      ( "bench_args",
        [
          Alcotest.test_case "bad arguments rejected early" `Quick
            test_storage_bench_rejects_early;
        ] );
      ("properties", qsuite);
    ]
