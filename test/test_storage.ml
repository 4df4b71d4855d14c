(* Tests for the storage substrate: virtual disk, journal, pages, WAL
   records and every journal's decoder, the engines' key space and
   snapshot registry, lock manager. *)

module Vdisk = Dbm_storage.Vdisk
module Journal = Dbm_storage.Journal
module Page = Dbm_storage.Page
module Wal = Dbm_storage.Wal
module Wal_codec = Dbm_storage.Wal_codec
module View = Wal_codec.View
module Lock = Dbm_storage.Lock_mgr
module Key_space = Dbm_storage.Key_space
module Snapshots = Dbm_storage.Snapshots

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

(* Random operation sequences against a two-map model: the durable
   pages, and the cached writes since the last sync.  [Write_view (p, q)]
   writes page [p] with a [read_ro] view of page [q] (its own when
   [p = q]).  The buffers [write] takes and [read] returns are scribbled
   on afterwards, which the disk must not see. *)
type vop =
  | Write of int * char
  | Write_view of int * int
  | Read of int
  | Read_ro of int
  | Sync
  | Crash

let prop_vdisk_model =
  let gen =
    QCheck.Gen.(
      int_range 1 4 >>= fun pages ->
      let page = int_range 0 (pages - 1) in
      triple (return pages) (int_range 1 24)
        (list_size (int_range 0 60)
           (frequency
              [
                (4, map2 (fun p c -> Write (p, c)) page printable);
                (2, map2 (fun p q -> Write_view (p, q)) page page);
                (2, map (fun p -> Read p) page);
                (2, map (fun p -> Read_ro p) page);
                (1, return Sync);
                (1, return Crash);
              ])))
  in
  let print (pages, size, ops) =
    Printf.sprintf "%d pages of %d: %s" pages size
      (String.concat ";"
         (List.map
            (function
              | Write (p, c) -> Printf.sprintf "W%d=%c" p c
              | Write_view (p, q) -> Printf.sprintf "W%d<-%d" p q
              | Read p -> Printf.sprintf "R%d" p
              | Read_ro p -> Printf.sprintf "V%d" p
              | Sync -> "S"
              | Crash -> "X")
            ops))
  in
  QCheck.Test.make ~name:"matches a durable/cached model" ~count:300 ~long_factor:20
    (QCheck.make ~print gen) (fun (pages, size, ops) ->
      let d = Vdisk.create ~pages ~page_size:size () in
      let durable = Array.make pages (String.make size '\000') in
      let cached = Hashtbl.create 4 in
      let model p = Option.value (Hashtbl.find_opt cached p) ~default:durable.(p) in
      (* Fill a page image with [c], keeping a marker of the page it was
         written to so equal fills of different pages differ. *)
      let image p c = String.init size (fun i -> if i = 0 then Char.chr (48 + p) else c) in
      let step = function
        | Write (p, c) ->
          let b = Bytes.of_string (image p c) in
          Vdisk.write d p b;
          Hashtbl.replace cached p (image p c);
          Bytes.fill b 0 size '#'
        | Write_view (p, q) ->
          Vdisk.write d p (Vdisk.read_ro d q);
          Hashtbl.replace cached p (model q)
        | Read p ->
          let b = Vdisk.read d p in
          if Bytes.to_string b <> model p then QCheck.Test.fail_reportf "read %d" p;
          Bytes.fill b 0 size '#'
        | Read_ro p ->
          if Bytes.to_string (Vdisk.read_ro d p) <> model p then
            QCheck.Test.fail_reportf "read_ro %d" p
        | Sync ->
          Vdisk.sync d;
          Hashtbl.iter (fun p img -> durable.(p) <- img) cached;
          Hashtbl.reset cached
        | Crash ->
          Vdisk.crash d;
          Hashtbl.reset cached
      in
      List.iter
        (fun op ->
          step op;
          for p = 0 to pages - 1 do
            if Bytes.to_string (Vdisk.read_ro d p) <> model p then
              QCheck.Test.fail_reportf "page %d differs from the model" p
          done;
          if Vdisk.unsynced_pages d <> Hashtbl.length cached then
            QCheck.Test.fail_reportf "%d unsynced pages, model has %d" (Vdisk.unsynced_pages d)
              (Hashtbl.length cached))
        ops;
      true)

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
  let range = Alcotest.(pair int int) in
  (* An insert or a delete re-encodes the record area; an equal-length
     overwrite rewrites the value's bytes only (the first record's
     value starts past the header, the count and its own 12 bytes). *)
  check range "insert rewrites the record area" (8, 256) (Page.update p ~key:5 ~value:(Some "five"));
  check (Alcotest.option Alcotest.string) "lookup" (Some "five") (Page.lookup p ~key:5);
  check range "overwrite rewrites the value" (24, 28) (Page.update p ~key:5 ~value:(Some "FIVE"));
  check (Alcotest.option Alcotest.string) "overwrite" (Some "FIVE") (Page.lookup p ~key:5);
  check range "delete rewrites the record area" (8, 256) (Page.update p ~key:5 ~value:None);
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
  ignore (Page.update p ~key:2 ~value:(Some "TWO"));
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
      ignore (Page.update fast ~key ~value:(Some "NEWV"));
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
    Wal.Update
      { lsn = 7; txn = 3; page = 9; before = View.of_string "abc"; after = View.of_string "xyz" };
    Wal.Commit { lsn = 8; txn = 3 };
    Wal.Abort { lsn = 9; txn = 4 };
    Wal.Delta
      { lsn = 12; txn = 5; page = 2; off = 17; prev_lsn = 4; before_slice = "old"; after_slice = "new" };
    Wal.Delta { lsn = 13; txn = 5; page = 0; off = 8; prev_lsn = 0; before_slice = ""; after_slice = "" };
    Wal.Op { lsn = 14; txn = 6; key = 31; value = Some "payload" };
    Wal.Op { lsn = 15; txn = 6; key = 0; value = None };
    Wal.Fuzzy_checkpoint { lsn = 16; start_lsn = 3 };
    Wal.Fuzzy_checkpoint { lsn = 17; start_lsn = 17 };
    Wal.Prepare { lsn = 18; txn = 7; gid = 42 };
  ]

let test_wal_roundtrip () =
  List.iter
    (fun r ->
      let r' = Wal.decode (Wal.encode r) in
      if not (Wal.equal r r') then Alcotest.failf "roundtrip failed for %s" (Format.asprintf "%a" Wal.pp r))
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
   exception.  So do the retired sharp-checkpoint tag ['k'], in its
   old layout (an LSN and an empty active list), and a checkpoint frame
   in its old layout (a start LSN, then empty active and dirty lists). *)
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
    [ 'U'; 'C'; 'A'; 'K'; 'F' ];
  List.iter
    (fun (tag, fields) ->
      Enc.reset enc ~tag;
      Enc.int64 enc 10;
      List.iter (Enc.varint enc) fields;
      match Wal.decode (Enc.finish enc) with
      | exception Wal.Corrupt _ -> ()
      | _ -> Alcotest.failf "an old-layout %C frame decoded" tag)
    [ ('k', [ 0 ]); ('f', [ 3; 0; 0 ]) ]

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
      expect_corrupt (Printf.sprintf "Dec.view, last byte %#x" last) (fun () ->
          Codec.Dec.view (Codec.Dec.start bare));
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
        (Wal.peek_is_fuzzy_checkpoint s);
      let vote =
        match r with
        | Wal.Prepare { txn; gid; _ } -> `Prepared (txn, gid)
        | Wal.Commit { txn; _ } | Wal.Abort { txn; _ } -> `Decided txn
        | _ -> `Other
      in
      check Alcotest.bool "peek_vote" true (Wal.peek_vote s = vote))
    sample_records

let test_wal_encode_allocation_bounded () =
  (* the scratch-buffer encoder's one allocation per record is the
     returned string: ~(record size / 8) words.  The old Buffer path
     (8-byte boxes per int, body-then-checksum concat) was several
     times that. *)
  let page = 1024 in
  let r =
    Wal.Update
      {
        lsn = 123456;
        txn = 789;
        page = 42;
        before = View.borrow (Bytes.make page 'b');
        after = View.borrow (Bytes.make page 'a');
      }
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
  (* decode returns each image as a view into the frame: no image is
     copied *)
  let page = 1024 in
  let s =
    Wal.encode
      (Wal.Update
         {
           lsn = 123456;
           txn = 789;
           page = 42;
           before = View.of_string (String.make page 'b');
           after = View.of_string (String.make page 'a');
         })
  in
  ignore (Sys.opaque_identity (Wal.decode s));
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Wal.decode s))
  done;
  let words_per_call = (Gc.minor_words () -. before) /. 1000.0 in
  (* the record (6 words), its two views (4 each) and the cursor (4):
     18 words, the checksum compared unboxed.  A boxed checksum would
     add 3, a copied 1024-byte image alone 129 *)
  if words_per_call > 20.0 then
    Alcotest.failf "decode allocates %.0f words/call (an image copied?)" words_per_call

(* Every single-bit flip of one full physical update frame decodes as
   Corrupt: the frame checksum's one-flip guarantee, checked
   exhaustively on the record shape restart recovery decodes most. *)
let test_wal_every_bitflip_corrupt () =
  let image k = View.of_string (String.init 1024 (fun i -> Char.chr ((i * k) land 0xff))) in
  let s =
    Wal.encode (Wal.Update { lsn = 123456; txn = 789; page = 42; before = image 7; after = image 13 })
  in
  check Alcotest.int "frame bytes" 2078 (String.length s);
  let b = Bytes.of_string s in
  let flip pos bit = Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit))) in
  for pos = 0 to Bytes.length b - 1 do
    for bit = 0 to 7 do
      flip pos bit;
      (match Wal.decode (Bytes.to_string b) with
      | exception Wal.Corrupt _ -> ()
      | _ -> Alcotest.failf "bit %d of byte %d flipped, yet the frame decoded" bit pos);
      flip pos bit
    done
  done

let test_wal_accessors () =
  check Alcotest.int "lsn" 8 (Wal.lsn (Wal.Commit { lsn = 8; txn = 3 }));
  check (Alcotest.option Alcotest.int) "txn" (Some 3) (Wal.txn_of (Wal.Commit { lsn = 8; txn = 3 }));
  check (Alcotest.option Alcotest.int) "checkpoint has no txn" None
    (Wal.txn_of (Wal.Fuzzy_checkpoint { lsn = 1; start_lsn = 1 }))

(* Generator over every record shape the codec frames. *)
let wal_record_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun lsn txn -> Wal.Commit { lsn; txn }) (int_range 0 1000) (int_range 0 1000);
        map2 (fun lsn txn -> Wal.Abort { lsn; txn }) (int_range 0 1000) (int_range 0 1000);
        map3
          (fun lsn txn gid -> Wal.Prepare { lsn; txn; gid })
          (int_range 0 1000) (int_range 0 1000) (int_range 0 1000);
        map
          (fun (lsn, txn, page, b, a) ->
            Wal.Update { lsn; txn; page; before = View.of_string b; after = View.of_string a })
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
          (fun lsn start_lsn -> Wal.Fuzzy_checkpoint { lsn; start_lsn })
          (int_range 0 1000) (int_range 0 1000);
      ])

let wal_arbitrary =
  QCheck.make ~print:(fun r -> Format.asprintf "%a" Wal.pp r) wal_record_gen

let prop_wal_roundtrip =
  (* roundtrip through a reused scratch encoder — the hot append path:
     the buffer must not leak one record's bytes into the next *)
  let enc = Dbm_storage.Wal_codec.Enc.create () in
  QCheck.Test.make ~name:"wal encode/decode roundtrip (all shapes, shared scratch)" ~count:500
    wal_arbitrary (fun r -> Wal.equal (Wal.decode (Wal.encode_with enc r)) r)

let prop_wal_injective =
  QCheck.Test.make ~name:"wal encoding is injective" ~count:500
    (QCheck.pair wal_arbitrary wal_arbitrary) (fun (r1, r2) ->
      Wal.equal r1 r2 || Wal.encode r1 <> Wal.encode r2)

(* Every journal's one decoder, with a generator of its valid frames.
   The non-WAL frames are built here from their documented layouts, so
   a decoder that stops accepting its journal's bytes fails too. *)
let journals =
  let open QCheck.Gen in
  let field = int_range 0 100_000 in
  let small shapes =
    oneofl shapes >>= fun (tag, arity) ->
    map (Wal_codec.encode_fields (Wal_codec.Enc.create ()) ~tag) (list_repeat arity field)
  in
  let diff_record (stamp, txn, key, value) =
    let enc = Wal_codec.Enc.create () in
    Wal_codec.Enc.reset enc ~tag:(if value = None then 'D' else 'A');
    List.iter (Wal_codec.Enc.varint enc) [ stamp; txn; key ];
    Option.iter (Wal_codec.Enc.string enc) value;
    Wal_codec.Enc.finish enc
  in
  let decoder f s = ignore (f s) in
  let module S = Dbm_storage in
  [
    ("wal", decoder Wal.decode, map Wal.encode wal_record_gen);
    ( "diff A/D",
      decoder S.Engine_diff.decode_record,
      map diff_record (quad field field field (option (string_size (int_range 0 40)))) );
    ( "diff commits",
      decoder S.Engine_diff.decode_commits_record,
      small [ ('C', 1) ] );
    ( "overwrite meta",
      decoder S.Engine_overwrite.decode_meta,
      small [ ('I', 3); ('C', 1); ('R', 1) ] );
    ("versel commits", decoder S.Engine_versel.decode_commit, small [ ('C', 1) ]);
    ("coordinator", decoder S.Coordinator_log.decode, small [ ('C', 1); ('A', 1) ]);
  ]

(* One valid frame of every journal, in [journals] order. *)
let journal_frames =
  QCheck.make
    ~print:(fun frames ->
      String.concat "\n"
        (List.map2 (fun (name, _, _) f -> name ^ ": " ^ String.escaped f) journals frames))
    (QCheck.Gen.flatten_l (List.map (fun (_, _, gen) -> gen) journals))

(* [damage] each journal's frame; its decoder must accept the intact
   frame and answer the damaged one with Corrupt. *)
let all_damage_corrupt frames damage =
  List.for_all2
    (fun (_, decode, _) s ->
      decode s;
      match decode (damage s) with exception Wal_codec.Corrupt _ -> true | () -> false)
    journals frames

let prop_wal_truncation_corrupt =
  QCheck.Test.make ~name:"any truncation decodes as Corrupt" ~count:500
    (QCheck.pair journal_frames (QCheck.int_range 0 10_000))
    (fun (frames, cut) ->
      all_damage_corrupt frames (fun s -> String.sub s 0 (cut mod String.length s)))

let prop_wal_bitflip_corrupt =
  (* a flipped bit changes one word of one of the checksum's four
     lanes (or the partial word after them).  Each lane's step
     [h <- (h xor word) * prime] is injective in the word and in [h],
     so that lane ends different; the fold of the lanes by the same
     odd-prime step is injective in each lane, so the trailer changes
     too: every one-bit corruption must be detected *)
  QCheck.Test.make ~name:"any single bit-flip decodes as Corrupt" ~count:500
    (QCheck.pair journal_frames (QCheck.pair (QCheck.int_range 0 10_000) (QCheck.int_range 0 7)))
    (fun (frames, (pos, bit)) ->
      all_damage_corrupt frames (fun s ->
          let b = Bytes.of_string s in
          let pos = pos mod Bytes.length b in
          Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
          Bytes.to_string b))

let prop_decoders_total =
  (* The decoder rule: every journal's decoder answers any byte string
     with a record or Corrupt, never another exception.  Random strings
     almost never pass the checksum, so half the inputs re-checksum a
     random tag and body: those reach the field parsers and the
     wrong-shape fallbacks. *)
  let reframe tag body =
    let s = String.make 1 tag ^ body in
    let trailer = Bytes.create 8 in
    Bytes.set_int64_le trailer 0 (Dbm_util.Digest.fnv64_words s ~pos:0 ~len:(String.length s));
    s ^ Bytes.to_string trailer
  in
  let gen =
    QCheck.Gen.(
      let tag = oneof [ oneofl (List.of_seq (String.to_seq "udocapkfADCMIR")); char ] in
      let body = string_size ~gen:(oneof [ char_range '\000' '\127'; char ]) (int_range 0 40) in
      oneof [ string_size (int_range 0 60); map2 reframe tag body ])
  in
  QCheck.Test.make ~name:"every decoder: a record or Corrupt" ~count:1000
    (QCheck.make ~print:String.escaped gen)
    (fun s ->
      List.for_all
        (fun (name, decode, _) ->
          match decode s with
          | () | (exception Wal_codec.Corrupt _) -> true
          | exception e ->
            QCheck.Test.fail_reportf "%s decoder raised %s" name (Printexc.to_string e))
        journals)

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
      match
        Wal.delta_update ~threshold:32 ~lsn ~txn:1 ~page:0 ~before ~after ~lo:8
          ~hi:(Bytes.length before)
      with
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
        View.equal b' (View.borrow before) && View.equal a' (View.borrow after)
      | _ -> false)

let prop_wal_delta_exact =
  (* delta_update compares the bodies a word at a time: the range it
     returns must still be exactly the first to the last differing body
     byte.  Pages of 9-300 bytes (most not a multiple of 8) get runs of
     changed bytes starting at the first body byte, the last byte, next
     to a word boundary or anywhere; no run leaves the bodies equal. *)
  let lsn = 9 and prev = 4 in
  let gen =
    QCheck.Gen.(
      int_range 9 300 >>= fun n ->
      let start =
        frequency
          [
            (1, return 8);
            (1, return (n - 1));
            ( 2,
              map2
                (fun w d -> max 8 (min (n - 1) ((8 * w) + d)))
                (int_range 1 (n / 8)) (int_range (-1) 1) );
            (2, int_range 8 (n - 1));
          ]
      in
      triple (return n) (string_size (return (n - 8)))
        (list_size (int_range 0 3) (triple start (int_range 1 20) (int_range 1 255))))
  in
  let print (n, body, runs) =
    Printf.sprintf "n=%d body=%S runs=[%s]" n body
      (String.concat ";" (List.map (fun (s, l, x) -> Printf.sprintf "%d+%d^%d" s l x) runs))
  in
  QCheck.Test.make ~name:"delta range is exactly the change" ~count:500 ~long_factor:20
    (QCheck.make ~print gen) (fun (n, body, runs) ->
      let before = Bytes.create n in
      Bytes.set_int64_le before 0 (Int64.of_int prev);
      Bytes.blit_string body 0 before 8 (n - 8);
      let after = Bytes.copy before in
      Bytes.set_int64_le after 0 (Int64.of_int lsn);
      List.iter
        (fun (s, l, x) ->
          for i = s to min (n - 1) (s + l - 1) do
            Bytes.set after i (Char.chr (Char.code (Bytes.get after i) lxor x))
          done)
        runs;
      let same i = Bytes.get before i = Bytes.get after i in
      match Wal.delta_update ~threshold:(2 * n) ~lsn ~txn:1 ~page:0 ~before ~after ~lo:8 ~hi:n with
      | Wal.Delta { off; prev_lsn; before_slice; after_slice; _ } ->
        let len = String.length after_slice in
        let outside_same = ref true in
        for i = 8 to n - 1 do
          if (i < off || i >= off + len) && not (same i) then outside_same := false
        done;
        let ends =
          if Bytes.sub before 8 (n - 8) = Bytes.sub after 8 (n - 8) then off = 8 && len = 0
          else len > 0 && (not (same off)) && not (same (off + len - 1))
        in
        let rebuilt = Bytes.copy before in
        Wal.apply_slice rebuilt ~off after_slice;
        Bytes.set_int64_le rebuilt 0 (Int64.of_int lsn);
        !outside_same && ends && prev_lsn = prev
        && before_slice = Bytes.sub_string before off len
        && Bytes.equal rebuilt after
      | _ -> false)

let prop_page_update_range =
  (* Page.update reports the byte range it rewrote: every byte it
     changed must lie inside it, so Wal.delta_update scanning only that
     range must return the record the whole-body scan returns, as a
     Delta or, past the threshold, as a full Update.  Updates insert,
     delete, resize, or overwrite with an equal length (a zero mask
     leaves the value as it was).  Each page has room for any update:
     its size is the records' encoding plus 24 to 88 spare bytes. *)
  let value = QCheck.Gen.(string_size ~gen:printable (int_range 0 12)) in
  let gen =
    QCheck.Gen.(
      quad
        (list_size (int_range 0 8) (pair (int_range 0 15) value))
        (int_range 24 88)
        (pair (int_range 0 15)
           (oneof
              [
                return `Delete;
                map (fun v -> `Put v) value;
                map (fun x -> `Flip x) (int_range 0 255);
              ]))
        (oneofl [ 0; 24; 4096 ]))
  in
  let print (kvs, spare, (key, op), threshold) =
    Printf.sprintf "records=[%s] spare=%d key=%d %s threshold=%d"
      (String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%d=%S" k v) kvs))
      spare key
      (match op with
      | `Delete -> "delete"
      | `Put v -> Printf.sprintf "put %S" v
      | `Flip x -> Printf.sprintf "flip ^%d" x)
      threshold
  in
  QCheck.Test.make ~name:"Page.update range bounds the delta diff" ~count:500 ~long_factor:20
    (QCheck.make ~print gen) (fun (kvs, spare, (key, op), threshold) ->
      let n =
        Page.header_bytes + 4 + List.fold_left (fun acc (_, v) -> acc + 12 + String.length v) 0 kvs
        + spare
      in
      let before = Page.empty ~page_size:n in
      Page.set_records before kvs;
      Page.set_lsn before 3;
      let value =
        match op with
        | `Delete -> None
        | `Put v -> Some v
        | `Flip x ->
          let old = Option.value (Page.lookup before ~key) ~default:"" in
          Some (String.map (fun c -> Char.chr (Char.code c lxor x)) old)
      in
      let after = Bytes.copy before in
      let lo, hi = Page.update after ~key ~value in
      Page.set_lsn after 4;
      let covered = ref (Page.header_bytes <= lo && lo <= hi && hi <= n) in
      for i = Page.header_bytes to n - 1 do
        if (i < lo || i >= hi) && Bytes.get before i <> Bytes.get after i then covered := false
      done;
      let diff ~lo ~hi = Wal.delta_update ~threshold ~lsn:4 ~txn:1 ~page:0 ~before ~after ~lo ~hi in
      !covered && Wal.equal (diff ~lo ~hi) (diff ~lo:Page.header_bytes ~hi:n))

(* --- Key_space and Snapshots: the engines' shared skeleton ------------- *)

let test_key_space () =
  let ks = Key_space.create ~engine:"E" ~n_keys:10 ~keys_per_page:4 () in
  check Alcotest.int "pages round up" 3 ks.Key_space.pages;
  check Alcotest.int "page of the last key" 2 (Key_space.page_of ks 9);
  Key_space.check ks 0;
  Key_space.check ks 9;
  List.iter
    (fun k ->
      Alcotest.check_raises "key outside the space"
        (Invalid_argument (Printf.sprintf "key %d out of range" k))
        (fun () -> Key_space.check ks k))
    [ -1; 10 ];
  Alcotest.check_raises "no keys" (Invalid_argument "E.create: need at least one key") (fun () ->
      ignore (Key_space.create ~engine:"E" ~n_keys:0 ()));
  Alcotest.check_raises "no keys per page" (Invalid_argument "E.create: bad keys_per_page")
    (fun () -> ignore (Key_space.create ~engine:"E" ~keys_per_page:0 ()))

let test_snapshot_registry () =
  let r = Snapshots.create () in
  check Alcotest.int "no pin, no watermark" max_int (Snapshots.watermark r);
  check Alcotest.int "first commit seq" 1 (Snapshots.commit r);
  ignore (Snapshots.commit r);
  let old = Snapshots.pin r "store" in
  ignore (Snapshots.commit r);
  let young = Snapshots.pin r "store" in
  check Alcotest.(pair int int) "horizons" (2, 3) (Snapshots.horizon old, Snapshots.horizon young);
  check Alcotest.int "watermark is the oldest horizon" 2 (Snapshots.watermark r);
  let reclaims = ref [] in
  let reclaim _ = reclaims := Snapshots.watermark r :: !reclaims in
  Snapshots.release old ~reclaim;
  Snapshots.release old ~reclaim;
  check Alcotest.(list int) "one reclaim, after the watermark moved" [ 3 ] !reclaims;
  check Alcotest.int "one live" 1 (Snapshots.live r);
  Alcotest.check_raises "released handle" Dbm_storage.Kv.Txn_finished (fun () ->
      ignore (Snapshots.owner old));
  check Alcotest.string "live handle reads its store" "store" (Snapshots.owner young);
  Snapshots.crash r;
  check Alcotest.int "crash drops every pin" 0 (Snapshots.live r);
  Alcotest.check_raises "pre-crash handle" Dbm_storage.Kv.Txn_finished (fun () ->
      ignore (Snapshots.owner young));
  check Alcotest.int "sequence restarts" 1 (Snapshots.commit r);
  let after = Snapshots.pin r "store" in
  Snapshots.release young ~reclaim;
  check Alcotest.int "pre-crash release reclaims nothing" 1 (List.length !reclaims);
  check Alcotest.int "and leaves the new pin" 1 (Snapshots.live r);
  check Alcotest.int "new pin sees the new commit" 1 (Snapshots.horizon after)

(* --- Lock_mgr --------------------------------------------------------------- *)

let test_lock_grant_and_conflict () =
  let t = Lock.create ~pages:4 in
  check Alcotest.bool "S granted" true (Lock.acquire t ~txn:1 ~page:1 ~mode:Lock.S = Lock.Granted);
  check Alcotest.bool "S shared" true (Lock.acquire t ~txn:2 ~page:1 ~mode:Lock.S = Lock.Granted);
  check Alcotest.bool "X blocks" true (Lock.acquire t ~txn:3 ~page:1 ~mode:Lock.X = Lock.Would_block);
  check Alcotest.bool "t3 recorded waiting" true (Lock.waiting t ~txn:3)

let test_lock_release_then_grant () =
  let t = Lock.create ~pages:4 in
  ignore (Lock.acquire t ~txn:1 ~page:1 ~mode:Lock.X);
  check Alcotest.bool "blocked" true (Lock.acquire t ~txn:2 ~page:1 ~mode:Lock.X = Lock.Would_block);
  Lock.release_all t ~txn:1;
  check Alcotest.bool "granted after release" true
    (Lock.acquire t ~txn:2 ~page:1 ~mode:Lock.X = Lock.Granted)

let test_lock_upgrade () =
  let t = Lock.create ~pages:4 in
  ignore (Lock.acquire t ~txn:1 ~page:1 ~mode:Lock.S);
  check Alcotest.bool "sole holder upgrades" true
    (Lock.acquire t ~txn:1 ~page:1 ~mode:Lock.X = Lock.Granted);
  check Alcotest.bool "holds X" true (Lock.holds t ~txn:1 ~page:1 = Some Lock.X)

let test_lock_upgrade_blocked_by_other_reader () =
  let t = Lock.create ~pages:4 in
  ignore (Lock.acquire t ~txn:1 ~page:1 ~mode:Lock.S);
  ignore (Lock.acquire t ~txn:2 ~page:1 ~mode:Lock.S);
  check Alcotest.bool "upgrade must wait" true
    (Lock.acquire t ~txn:1 ~page:1 ~mode:Lock.X = Lock.Would_block)

let test_lock_deadlock_detected () =
  let t = Lock.create ~pages:4 in
  ignore (Lock.acquire t ~txn:1 ~page:1 ~mode:Lock.X);
  ignore (Lock.acquire t ~txn:2 ~page:2 ~mode:Lock.X);
  check Alcotest.bool "t1 waits for p2" true
    (Lock.acquire t ~txn:1 ~page:2 ~mode:Lock.X = Lock.Would_block);
  match Lock.acquire t ~txn:2 ~page:1 ~mode:Lock.X with
  | Lock.Deadlock cycle ->
    check Alcotest.bool "cycle mentions both" true (List.mem 1 cycle && List.mem 2 cycle)
  | _ -> Alcotest.fail "deadlock not detected"

let test_lock_three_way_deadlock () =
  let t = Lock.create ~pages:4 in
  ignore (Lock.acquire t ~txn:1 ~page:1 ~mode:Lock.X);
  ignore (Lock.acquire t ~txn:2 ~page:2 ~mode:Lock.X);
  ignore (Lock.acquire t ~txn:3 ~page:3 ~mode:Lock.X);
  ignore (Lock.acquire t ~txn:1 ~page:2 ~mode:Lock.X);
  ignore (Lock.acquire t ~txn:2 ~page:3 ~mode:Lock.X);
  match Lock.acquire t ~txn:3 ~page:1 ~mode:Lock.X with
  | Lock.Deadlock cycle -> check Alcotest.bool "3-cycle" true (List.length cycle >= 3)
  | _ -> Alcotest.fail "3-way deadlock not detected"

let test_lock_fifo_fairness () =
  let t = Lock.create ~pages:4 in
  ignore (Lock.acquire t ~txn:1 ~page:1 ~mode:Lock.S);
  (* writer queues behind the reader *)
  check Alcotest.bool "writer waits" true
    (Lock.acquire t ~txn:2 ~page:1 ~mode:Lock.X = Lock.Would_block);
  (* a later reader may not overtake the queued writer *)
  check Alcotest.bool "reader cannot overtake writer" true
    (Lock.acquire t ~txn:3 ~page:1 ~mode:Lock.S = Lock.Would_block)

let test_lock_locked_pages () =
  let t = Lock.create ~pages:4 in
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
  rejects "scale -1" (fun () -> SB.run ~scale:(-1) ~now ())

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_page_roundtrip; prop_page_lookup_matches_records; prop_page_update_equal_length;
      prop_wal_roundtrip; prop_wal_injective; prop_wal_truncation_corrupt;
      prop_wal_bitflip_corrupt; prop_wal_delta_apply; prop_decoders_total;
      prop_wal_delta_exact; prop_page_update_range;
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
          QCheck_alcotest.to_alcotest prop_vdisk_model;
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
          Alcotest.test_case "every bit-flip of an update is Corrupt" `Quick
            test_wal_every_bitflip_corrupt;
          Alcotest.test_case "truncated" `Quick test_wal_truncated;
          Alcotest.test_case "accessors" `Quick test_wal_accessors;
          Alcotest.test_case "encode allocation bounded" `Quick
            test_wal_encode_allocation_bounded;
          Alcotest.test_case "decode allocation bounded" `Quick
            test_wal_decode_allocation_bounded;
        ] );
      ( "engine_core",
        [
          Alcotest.test_case "key space" `Quick test_key_space;
          Alcotest.test_case "snapshot registry" `Quick test_snapshot_registry;
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
          Alcotest.test_case "locked pages" `Quick test_lock_locked_pages;
        ] );
      ( "bench_args",
        [
          Alcotest.test_case "bad arguments rejected early" `Quick
            test_storage_bench_rejects_early;
        ] );
      ("properties", qsuite);
    ]
