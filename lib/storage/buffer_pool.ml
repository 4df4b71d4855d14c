type frame = {
  page : int;
  data : bytes;
  mutable pins : int;
  mutable dirty : bool;
  mutable last_use : int;  (* logical clock for LRU *)
  mutable prev : frame option;  (* toward the MRU head *)
  mutable next : frame option;  (* toward the LRU tail *)
}

(* Frames live on an intrusive doubly-linked list, most recently used at
   [head].  Because every access touches its frame to the head and the
   logical clock is strictly increasing, walking from [tail] toward the
   head visits frames in ascending [last_use] order — the same candidate
   order the original fold-and-sort eviction produced, without building a
   list per miss. *)
type t = {
  disk : Vdisk.t;
  capacity : int;
  table : (int, frame) Hashtbl.t;
  can_evict : page:int -> lsn:int -> bool;
  before_evict : page:int -> lsn:int -> unit;
  mutable head : frame option;
  mutable tail : frame option;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable pinned_count : int;
  mutable dirty_count : int;
}

exception No_free_frame

let create disk ~frames ?(can_evict = fun ~page:_ ~lsn:_ -> true)
    ?(before_evict = fun ~page:_ ~lsn:_ -> ()) () =
  if frames <= 0 then invalid_arg "Buffer_pool.create: need at least one frame";
  {
    disk;
    capacity = frames;
    table = Hashtbl.create frames;
    can_evict;
    before_evict;
    head = None;
    tail = None;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    pinned_count = 0;
    dirty_count = 0;
  }

let frames t = t.capacity

let pinned t = t.pinned_count

let dirty_frames t = t.dirty_count

let unlink t f =
  (match f.prev with Some p -> p.next <- f.next | None -> t.head <- f.next);
  (match f.next with Some n -> n.prev <- f.prev | None -> t.tail <- f.prev);
  f.prev <- None;
  f.next <- None

let push_front t f =
  f.prev <- None;
  f.next <- t.head;
  (match t.head with Some h -> h.prev <- Some f | None -> t.tail <- Some f);
  t.head <- Some f

let touch t f =
  t.clock <- t.clock + 1;
  f.last_use <- t.clock;
  match t.head with
  | Some h when h == f -> ()
  | _ ->
    unlink t f;
    push_front t f

let set_dirty t f d =
  if f.dirty <> d then begin
    f.dirty <- d;
    t.dirty_count <- t.dirty_count + (if d then 1 else -1)
  end

let write_back t f =
  let lsn = Page.get_lsn f.data in
  t.before_evict ~page:f.page ~lsn;
  if not (t.can_evict ~page:f.page ~lsn) then false
  else begin
    Vdisk.write t.disk f.page f.data;
    set_dirty t f false;
    true
  end

(* Evict the least-recently-used unpinned (and evictable) frame: walk from
   the LRU tail, skipping pinned frames and dirty frames the WAL gate
   refuses to let go. *)
let evict_one t =
  let rec try_evict = function
    | None -> raise No_free_frame
    | Some f ->
      if f.pins > 0 then try_evict f.prev
      else if f.dirty && not (write_back t f) then try_evict f.prev
      else begin
        unlink t f;
        Hashtbl.remove t.table f.page;
        t.evictions <- t.evictions + 1
      end
  in
  try_evict t.tail

let get t page =
  match Hashtbl.find_opt t.table page with
  | Some f ->
    t.hits <- t.hits + 1;
    if f.pins = 0 then t.pinned_count <- t.pinned_count + 1;
    f.pins <- f.pins + 1;
    touch t f;
    f.data
  | None ->
    t.misses <- t.misses + 1;
    if Hashtbl.length t.table >= t.capacity then evict_one t;
    let f =
      {
        page;
        data = Vdisk.read t.disk page;
        pins = 1;
        dirty = false;
        last_use = 0;
        prev = None;
        next = None;
      }
    in
    t.pinned_count <- t.pinned_count + 1;
    push_front t f;
    touch t f;
    Hashtbl.replace t.table page f;
    f.data

let find_exn t page ~what =
  match Hashtbl.find_opt t.table page with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Buffer_pool.%s: page %d not resident" what page)

let unpin t page =
  let f = find_exn t page ~what:"unpin" in
  if f.pins <= 0 then invalid_arg (Printf.sprintf "Buffer_pool.unpin: page %d not pinned" page);
  f.pins <- f.pins - 1;
  if f.pins = 0 then t.pinned_count <- t.pinned_count - 1

let mark_dirty t page =
  let f = find_exn t page ~what:"mark_dirty" in
  set_dirty t f true

let is_dirty t page =
  match Hashtbl.find_opt t.table page with Some f -> f.dirty | None -> false

let resident t page = Hashtbl.mem t.table page

let flush_page t page =
  let f = find_exn t page ~what:"flush_page" in
  if f.dirty && not (write_back t f) then
    failwith (Printf.sprintf "Buffer_pool.flush_page: WAL gate refuses page %d" page)

let flush_all t =
  Hashtbl.iter
    (fun _ f ->
      if f.dirty && not (write_back t f) then
        failwith
          (Printf.sprintf "Buffer_pool.flush_all: WAL gate refuses page %d" f.page))
    t.table;
  Vdisk.sync t.disk

let hits t = t.hits

let misses t = t.misses

let evictions t = t.evictions
