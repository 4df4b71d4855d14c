(** Fixed-size data pages holding key-value records.

    Layout: an 8-byte page LSN (stamped by the logging engine, zero
    elsewhere) followed by a record area encoding a key-sorted
    association list.  Encoding and decoding are exact inverses, which
    the property tests check. *)

exception Page_full

val header_bytes : int
(** Bytes reserved for the page LSN. *)

val empty : page_size:int -> bytes
(** Zeroed page: LSN 0, no records. *)

val get_lsn : bytes -> int

val set_lsn : bytes -> int -> unit

val records : bytes -> (int * string) list
(** Decode the record area (key-sorted).
    @raise Invalid_argument on a corrupt page. *)

val set_records : bytes -> (int * string) list -> unit
(** Encode the records into the page, replacing its record area.
    Records are stored key-sorted; duplicate keys keep the last value.
    @raise Page_full when they do not fit. *)

val update : bytes -> key:int -> value:string option -> int * int
(** Set or delete ([None]) one key in place, and return the byte range
    [(lo, hi)] it rewrote: every byte outside [lo, hi) is unchanged.
    An equal-length overwrite rewrites only the value's bytes; any
    other update re-encodes the whole record area,
    [(header_bytes, length page)].
    @raise Page_full when the result does not fit. *)

val lookup : bytes -> key:int -> string option

val free_bytes : bytes -> int
(** Space remaining in the record area. *)
