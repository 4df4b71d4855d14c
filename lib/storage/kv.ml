exception Txn_finished

exception Scratch_full

module type S = sig
  type t
  type txn

  val engine_name : string
  val create : ?n_keys:int -> unit -> t
  val max_keys : t -> int
  val keys_per_page : t -> int
  val begin_txn : t -> txn
  val get : txn -> int -> string option
  val put : txn -> int -> string -> unit
  val delete : txn -> int -> unit
  val commit : txn -> unit
  val abort : txn -> unit
  val crash_and_recover : t -> unit
  val checkpoint : t -> unit
  val stats : t -> (string * int) list
end

module type SNAPSHOT = sig
  include S

  type snapshot

  val snapshot : t -> snapshot
  val snapshot_get : snapshot -> int -> string option
  val snapshot_release : snapshot -> unit
  val live_snapshots : t -> int
end

module Model : S = struct
  type t = {
    keys : Key_space.t;
    committed : (int, string) Hashtbl.t;
    mutable epoch : int;
  }

  type txn = {
    store : t;
    born : int;
    writes : (int, string option) Hashtbl.t;
    mutable finished : bool;
  }

  let engine_name = "model"

  let create ?n_keys () =
    {
      keys = Key_space.create ~engine:"Model" ?n_keys ~keys_per_page:1 ();
      committed = Hashtbl.create 64;
      epoch = 0;
    }

  let max_keys t = t.keys.Key_space.n_keys

  let keys_per_page _ = 1

  let begin_txn t = { store = t; born = t.epoch; writes = Hashtbl.create 8; finished = false }

  let check txn =
    if txn.finished || txn.born <> txn.store.epoch then raise Txn_finished

  let get txn k =
    check txn;
    Key_space.check txn.store.keys k;
    match Hashtbl.find_opt txn.writes k with
    | Some v -> v
    | None -> Hashtbl.find_opt txn.store.committed k

  let put txn k v =
    check txn;
    Key_space.check txn.store.keys k;
    Hashtbl.replace txn.writes k (Some v)

  let delete txn k =
    check txn;
    Key_space.check txn.store.keys k;
    Hashtbl.replace txn.writes k None

  let finish txn = txn.finished <- true

  let commit txn =
    check txn;
    Hashtbl.iter
      (fun k v ->
        match v with
        | Some v -> Hashtbl.replace txn.store.committed k v
        | None -> Hashtbl.remove txn.store.committed k)
      txn.writes;
    finish txn

  let abort txn =
    check txn;
    finish txn

  let crash_and_recover t = t.epoch <- t.epoch + 1

  let checkpoint _ = ()

  let stats _ = []
end
