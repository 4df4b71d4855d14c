(** The key space of a store: keys [0 .. n_keys-1], stored
    [keys_per_page] to a page.  Every {!Kv.S} implementation validates
    its key count, numbers its pages and checks keys through this one
    module, so a bad argument fails the same way in each. *)

type t = private { n_keys : int; keys_per_page : int; pages : int }

val create : engine:string -> ?n_keys:int -> ?keys_per_page:int -> unit -> t
(** [n_keys] defaults to 256, [keys_per_page] to 4; [pages] is
    [ceil (n_keys / keys_per_page)].
    @raise Invalid_argument naming [engine] if either is [<= 0]. *)

val check : t -> int -> unit
(** @raise Invalid_argument ["key k out of range"] unless
    [0 <= k < n_keys]. *)

val page_of : t -> int -> int
(** The page holding a key. *)
