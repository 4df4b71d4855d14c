(* Shared core of the two overwriting variants.  Disk layout: home
   blocks [0, n_logical), scratch ring [n_logical, n_logical+slots).
   The meta journal records intentions and transaction outcomes as
   Wal_codec small records (tag, varint fields, checksum trailer):
     'I' txn page slot  - page is shadowed/staged in scratch slot
     'C' txn            - transaction committed
     'R' txn            - transaction resolved: its scratch slots are
                          dead and may be reused (installed, restored,
                          or discarded)
   A slot is reusable only once its transaction's R record is durable;
   otherwise a later recovery could replay an intention against a slot
   that has been recycled. *)

type variant = No_undo_v | No_redo_v

type store = {
  variant : variant;
  keys : Key_space.t;
  scratch_slots : int;
  disk : Vdisk.t;
  meta : Journal.t;
  enc : Wal_codec.Enc.t;
  busy : bool array;  (* scratch slot -> in use *)
  staged : (int, (int * int) list) Hashtbl.t;  (* txn -> (page, slot), newest first *)
  mutable next_txn : int;
  mutable epoch : int;
}

type txn_h = { st : store; id : int; born : int; mutable finished : bool }

let page_size = 1024

let append_meta t ~tag fields =
  ignore (Journal.append t.meta (Wal_codec.encode_fields t.enc ~tag fields))

let decode_meta r =
  match Wal_codec.decode_fields r with
  | 'I', [ txn; page; slot ] -> `Intent (txn, page, slot)
  | 'C', [ txn ] -> `Commit txn
  | 'R', [ txn ] -> `Resolved txn
  | _ -> raise (Wal_codec.Corrupt "Engine_overwrite: bad meta record")

let make_store variant ?n_keys ?(scratch_slots = 64) () =
  let keys = Key_space.create ~engine:"Engine_overwrite" ?n_keys () in
  if scratch_slots <= 0 then invalid_arg "Engine_overwrite.create: bad scratch_slots";
  {
    variant;
    keys;
    scratch_slots;
    disk = Vdisk.create ~pages:(keys.pages + scratch_slots) ~page_size ();
    meta = Journal.create ();
    enc = Wal_codec.Enc.create ~size:32 ();
    busy = Array.make scratch_slots false;
    staged = Hashtbl.create 8;
    next_txn = 1;
    epoch = 0;
  }

let scratch_addr t slot = t.keys.pages + slot

let alloc_slot t =
  let rec find i = if i >= t.scratch_slots then raise Kv.Scratch_full
    else if not t.busy.(i) then i
    else find (i + 1)
  in
  let s = find 0 in
  t.busy.(s) <- true;
  s

let staged_pairs t txn_id = Option.value (Hashtbl.find_opt t.staged txn_id) ~default:[]

(* Copy staged scratch images to their home pages: the install of a
   committed transaction, or the restore of an uncommitted one's
   shadows.  Vdisk.write copies its input, so the borrowed read is
   safe. *)
let copy_home t =
  List.iter (fun (p, slot) -> Vdisk.write t.disk p (Vdisk.read_ro t.disk (scratch_addr t slot)))

let resolve t txn_id =
  append_meta t ~tag:'R' [ txn_id ];
  Journal.sync t.meta;
  List.iter (fun (_, slot) -> t.busy.(slot) <- false) (staged_pairs t txn_id);
  Hashtbl.remove t.staged txn_id

let begin_txn t =
  let id = t.next_txn in
  t.next_txn <- id + 1;
  Hashtbl.replace t.staged id [];
  { st = t; id; born = t.epoch; finished = false }

let check h = if h.finished || h.born <> h.st.epoch then raise Kv.Txn_finished

let finish h = h.finished <- true

let staged_slot t txn_id p = List.assoc_opt p (staged_pairs t txn_id)

(* The commit point: every updated page durable, then the commit
   record. *)
let log_commit t txn_id =
  Vdisk.sync t.disk;
  append_meta t ~tag:'C' [ txn_id ];
  Journal.sync t.meta

let stage t txn_id p slot = Hashtbl.replace t.staged txn_id ((p, slot) :: staged_pairs t txn_id)

(* ---- recovery, shared -------------------------------------------- *)

let recover t =
  let committed = Hashtbl.create 8 and resolved = Hashtbl.create 8 in
  let intents = Hashtbl.create 8 and max_id = ref 0 in
  Journal.iter_all
    (fun r ->
      let record = decode_meta r in
      (match record with
      | `Commit id | `Resolved id | `Intent (id, _, _) -> max_id := max !max_id id);
      match record with
      | `Commit id -> Hashtbl.replace committed id ()
      | `Resolved id -> Hashtbl.replace resolved id ()
      | `Intent (id, page, slot) ->
        let prior = Option.value (Hashtbl.find_opt intents id) ~default:[] in
        Hashtbl.replace intents id ((page, slot) :: prior))
    t.meta;
  Array.fill t.busy 0 t.scratch_slots false;
  Hashtbl.reset t.staged;
  Hashtbl.iter
    (fun id l ->
      if not (Hashtbl.mem resolved id) then begin
        (match t.variant, Hashtbl.mem committed id with
        | No_undo_v, true ->
          (* Committed but not installed: re-install (idempotent). *)
          copy_home t l
        | No_undo_v, false ->
          (* Homes were never touched: nothing to do. *)
          ()
        | No_redo_v, true ->
          (* All updates were on disk before the commit record. *)
          ()
        | No_redo_v, false ->
          (* Restore the shadows of the uncommitted transaction. *)
          copy_home t l);
        Vdisk.sync t.disk;
        append_meta t ~tag:'R' [ id ];
        Journal.sync t.meta
      end)
    intents;
  t.next_txn <- !max_id + 1

(* ---- the two variants --------------------------------------------- *)

(* The members both variants share. *)
module Common = struct
  type t = store
  type txn = txn_h

  let max_keys t = t.keys.Key_space.n_keys
  let keys_per_page t = t.keys.Key_space.keys_per_page
  let begin_txn = begin_txn

  let crash_and_recover t =
    Vdisk.crash t.disk;
    Journal.crash t.meta;
    t.epoch <- t.epoch + 1;
    recover t

  let checkpoint _ = ()
  let scratch_in_use t = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 t.busy

  let stats t =
    [
      ("disk_reads", Vdisk.reads t.disk);
      ("disk_writes", Vdisk.writes t.disk);
    ]
end

module No_undo = struct
  include Common

  let engine_name = "overwrite-no-undo"

  let create_with = make_store No_undo_v
  let create ?n_keys () = create_with ?n_keys ()

  (* Reads see the transaction's own staged copy first; committed state
     is always installed in the home location while the system is up. *)
  let get h k =
    check h;
    let t = h.st in
    Key_space.check t.keys k;
    let p = Key_space.page_of t.keys k in
    let image =
      match staged_slot t h.id p with
      | Some slot -> Vdisk.read_ro t.disk (scratch_addr t slot)
      | None -> Vdisk.read_ro t.disk p
    in
    Page.lookup image ~key:k

  let update_key h k value =
    check h;
    let t = h.st in
    Key_space.check t.keys k;
    let p = Key_space.page_of t.keys k in
    let slot, image =
      match staged_slot t h.id p with
      | Some slot -> (slot, Vdisk.read t.disk (scratch_addr t slot))
      | None ->
        let slot = alloc_slot t in
        stage t h.id p slot;
        append_meta t ~tag:'I' [ h.id; p; slot ];
        (slot, Vdisk.read t.disk p)
    in
    ignore (Page.update image ~key:k ~value);
    Vdisk.write t.disk (scratch_addr t slot) image

  let put h k v = update_key h k (Some v)
  let delete h k = update_key h k None

  let commit h =
    check h;
    let t = h.st in
    (* 1-2. All updated pages durable in the scratch space, then the
       commit record: the transaction is now committed. *)
    log_commit t h.id;
    (* 3. Install: overwrite the shadows with the current copies.  The
       paper releases the page locks only after this pass. *)
    copy_home t (staged_pairs t h.id);
    Vdisk.sync t.disk;
    resolve t h.id;
    finish h

  let abort h =
    check h;
    (* The homes were never touched; just retire the scratch slots. *)
    resolve h.st h.id;
    finish h

  (* Test hook: durably committed, install pass not yet run. *)
  let commit_without_install h =
    check h;
    log_commit h.st h.id;
    finish h

end

module No_redo = struct
  include Common

  let engine_name = "overwrite-no-redo"

  let create_with = make_store No_redo_v
  let create ?n_keys () = create_with ?n_keys ()

  (* Updates are in place, so the home block is always current. *)
  let get h k =
    check h;
    Key_space.check h.st.keys k;
    Page.lookup (Vdisk.read_ro h.st.disk (Key_space.page_of h.st.keys k)) ~key:k

  let update_key h k value =
    check h;
    let t = h.st in
    Key_space.check t.keys k;
    let p = Key_space.page_of t.keys k in
    (match staged_slot t h.id p with
    | Some _ -> ()  (* the shadow is already safe *)
    | None ->
      (* Force the original to the scratch space, with a durable
         intention, BEFORE the home location may be overwritten. *)
      let slot = alloc_slot t in
      stage t h.id p slot;
      Vdisk.write t.disk (scratch_addr t slot) (Vdisk.read_ro t.disk p);
      Vdisk.sync t.disk;
      append_meta t ~tag:'I' [ h.id; p; slot ];
      Journal.sync t.meta);
    let image = Vdisk.read t.disk p in
    ignore (Page.update image ~key:k ~value);
    Vdisk.write t.disk p image

  let put h k v = update_key h k (Some v)
  let delete h k = update_key h k None

  let commit h =
    check h;
    let t = h.st in
    (* A transaction is committed only after all its updates are on
       disk; then the commit record makes that durable fact explicit. *)
    log_commit t h.id;
    resolve t h.id;
    finish h

  let abort h =
    check h;
    let t = h.st in
    (* Undo in place: restore every shadow from the scratch space. *)
    copy_home t (staged_pairs t h.id);
    Vdisk.sync t.disk;
    resolve t h.id;
    finish h

end
