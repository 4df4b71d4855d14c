type store = {
  keys : Key_space.t;
  page_size : int;
  table_pages : int;  (* pages per table area *)
  data_base : int;  (* first data block *)
  n_blocks : int;  (* data blocks *)
  disk : Vdisk.t;
  mutable table : int array;  (* committed logical -> physical block *)
  mutable current_area : int;  (* 0 or 1 *)
  mutable generation : int;
  free : bool array;  (* indexed by data-block ordinal *)
  mutable free_count : int;
  mutable epoch : int;
  mutable flips : int;
}

type t = store

type txn = {
  st : store;
  born : int;
  delta : (int, int) Hashtbl.t;  (* logical page -> fresh block *)
  mutable finished : bool;
}

let engine_name = "shadow"

let entries_per_page page_size = page_size / 8

(* --- on-disk structures ------------------------------------------- *)

let master_block = 0

let encode_master t =
  let b = Bytes.make t.page_size '\000' in
  Bytes.set_int64_le b 0 (Int64.of_int t.current_area);
  Bytes.set_int64_le b 8 (Int64.of_int t.generation);
  b

let table_area_base t area = 1 + (area * t.table_pages)

let write_table_area t area table =
  let epp = entries_per_page t.page_size in
  for tp = 0 to t.table_pages - 1 do
    let b = Bytes.make t.page_size '\000' in
    for i = 0 to epp - 1 do
      let logical = (tp * epp) + i in
      if logical < t.keys.pages then
        Bytes.set_int64_le b (8 * i) (Int64.of_int table.(logical))
    done;
    Vdisk.write t.disk (table_area_base t area + tp) b
  done

let read_table_area t area =
  let epp = entries_per_page t.page_size in
  (* One borrowed page read per table page, not one full-page copy per
     logical entry. *)
  let cur_tp = ref (-1) in
  let cur = ref Bytes.empty in
  Array.init t.keys.pages (fun logical ->
      let tp = logical / epp and i = logical mod epp in
      if tp <> !cur_tp then begin
        cur := Vdisk.read_ro t.disk (table_area_base t area + tp);
        cur_tp := tp
      end;
      Int64.to_int (Bytes.get_int64_le !cur (8 * i)))

(* --- construction -------------------------------------------------- *)

let create_with ?n_keys ?(spare_factor = 2) () =
  let keys = Key_space.create ~engine:"Engine_shadow" ?n_keys () in
  if spare_factor < 1 then invalid_arg "Engine_shadow.create: bad spare_factor";
  let page_size = 1024 in
  let n_logical = keys.pages in
  let table_pages = (n_logical * 8 / page_size) + 1 in
  let data_base = 1 + (2 * table_pages) in
  let n_blocks = n_logical * (1 + spare_factor) in
  let disk = Vdisk.create ~pages:(data_base + n_blocks) ~page_size () in
  let t =
    {
      keys;
      page_size;
      table_pages;
      data_base;
      n_blocks;
      disk;
      table = Array.init n_logical (fun i -> i);  (* block ordinals *)
      current_area = 0;
      generation = 0;
      free = Array.make n_blocks true;
      free_count = n_blocks;
      epoch = 0;
      flips = 0;
    }
  in
  (* Initial identity mapping: logical page i -> data block i. *)
  for i = 0 to n_logical - 1 do
    t.free.(i) <- false
  done;
  t.free_count <- n_blocks - n_logical;
  write_table_area t 0 t.table;
  Vdisk.write t.disk master_block (encode_master t);
  Vdisk.sync t.disk;
  t

let create ?n_keys () = create_with ?n_keys ()

let max_keys t = t.keys.Key_space.n_keys

let keys_per_page t = t.keys.Key_space.keys_per_page

let block_addr t ordinal = t.data_base + ordinal

let alloc_block t =
  let rec find i =
    if i >= t.n_blocks then failwith "Engine_shadow: out of data blocks"
    else if t.free.(i) then i
    else find (i + 1)
  in
  let b = find 0 in
  t.free.(b) <- false;
  t.free_count <- t.free_count - 1;
  b

let free_block t b =
  if not t.free.(b) then begin
    t.free.(b) <- true;
    t.free_count <- t.free_count + 1
  end

(* --- transactions -------------------------------------------------- *)

let begin_txn t = { st = t; born = t.epoch; delta = Hashtbl.create 4; finished = false }

let check txn = if txn.finished || txn.born <> txn.st.epoch then raise Kv.Txn_finished

let current_ordinal txn p =
  match Hashtbl.find_opt txn.delta p with Some b -> b | None -> txn.st.table.(p)

let current_image txn p = Vdisk.read txn.st.disk (block_addr txn.st (current_ordinal txn p))

let get txn k =
  check txn;
  Key_space.check txn.st.keys k;
  (* Borrowed view: Page.lookup only reads the block. *)
  let p = Key_space.page_of txn.st.keys k in
  Page.lookup (Vdisk.read_ro txn.st.disk (block_addr txn.st (current_ordinal txn p))) ~key:k

let update_key txn k value =
  check txn;
  let t = txn.st in
  Key_space.check t.keys k;
  let p = Key_space.page_of t.keys k in
  let image = current_image txn p in
  ignore (Page.update image ~key:k ~value);
  let target =
    match Hashtbl.find_opt txn.delta p with
    | Some b -> b  (* the txn's own fresh block: overwrite in place *)
    | None ->
      let b = alloc_block t in
      Hashtbl.replace txn.delta p b;
      b
  in
  Vdisk.write t.disk (block_addr t target) image

let put txn k v = update_key txn k (Some v)

let delete txn k = update_key txn k None

let finish txn = txn.finished <- true

let commit txn =
  check txn;
  let t = txn.st in
  if Hashtbl.length txn.delta = 0 then finish txn
  else begin
    let new_table = Array.copy t.table in
    let freed = ref [] in
    Hashtbl.iter
      (fun p b ->
        freed := t.table.(p) :: !freed;
        new_table.(p) <- b)
      txn.delta;
    let inactive = 1 - t.current_area in
    write_table_area t inactive new_table;
    (* Persist the fresh data blocks and the new table... *)
    Vdisk.sync t.disk;
    (* ...then atomically flip the master pointer to the new table. *)
    t.current_area <- inactive;
    t.generation <- t.generation + 1;
    Vdisk.write t.disk master_block (encode_master t);
    Vdisk.sync t.disk;
    t.table <- new_table;
    List.iter (free_block t) !freed;
    t.flips <- t.flips + 1;
    finish txn
  end

let abort txn =
  check txn;
  Hashtbl.iter (fun _ b -> free_block txn.st b) txn.delta;
  finish txn

(* --- crash recovery ------------------------------------------------ *)

let recover t =
  let master = Vdisk.read t.disk master_block in
  t.current_area <- Int64.to_int (Bytes.get_int64_le master 0);
  t.generation <- Int64.to_int (Bytes.get_int64_le master 8);
  t.table <- read_table_area t t.current_area;
  (* Every data block not referenced by the current table is free:
     uncommitted shadow copies vanish without any undo. *)
  Array.fill t.free 0 t.n_blocks true;
  Array.iter (fun b -> t.free.(b) <- false) t.table;
  t.free_count <- Array.fold_left (fun acc f -> if f then acc + 1 else acc) 0 t.free

let crash_and_recover t =
  Vdisk.crash t.disk;
  t.epoch <- t.epoch + 1;
  recover t

let checkpoint _ = ()

let table_flips t = t.flips

let free_blocks t = t.free_count

let current_block t ~page =
  if page < 0 || page >= t.keys.pages then invalid_arg "Engine_shadow.current_block";
  t.table.(page)

let stats t =
  [
    ("disk_reads", Vdisk.reads t.disk);
    ("disk_writes", Vdisk.writes t.disk);
  ]
