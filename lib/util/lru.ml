(* Classic hashtable + doubly-linked list; the list head is the most
   recently used entry, the tail is the eviction candidate. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable dirty : bool;
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
}

type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;
  mutable tail : ('k, 'v) node option;
}

type ('k, 'v) evicted = { key : 'k; value : 'v; dirty : bool }

let create ~capacity () =
  if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
  { capacity; table = Hashtbl.create capacity; head = None; tail = None }

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with
  | Some h -> h.prev <- Some node
  | None -> t.tail <- Some node);
  t.head <- Some node

let mem t k = Hashtbl.mem t.table k

let find t k =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some node ->
    unlink t node;
    push_front t node;
    Some node.value

let evict_tail t =
  match t.tail with
  | None -> None
  | Some node ->
    unlink t node;
    Hashtbl.remove t.table node.key;
    Some { key = node.key; value = node.value; dirty = node.dirty }

let add t k v =
  match Hashtbl.find_opt t.table k with
  | Some node ->
    node.value <- v;
    unlink t node;
    push_front t node;
    None
  | None ->
    let victim = if Hashtbl.length t.table >= t.capacity then evict_tail t else None in
    let node = { key = k; value = v; dirty = false; prev = None; next = None } in
    Hashtbl.replace t.table k node;
    push_front t node;
    victim

let set_dirty t k d =
  match Hashtbl.find_opt t.table k with
  | Some node -> node.dirty <- d
  | None -> ()
