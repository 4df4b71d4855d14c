(** A JSON value and its printer — enough to write the benchmark
    records, nothing to read them. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** a non-finite float prints as [null] *)
  | String of string
  | List of t list
  | Obj of (string * t) list  (** keys print in list order *)

val to_string : t -> string
(** Valid JSON.  An object or list whose members are all scalars prints
    on one line; any other breaks after every member and indents two
    spaces per level.  Floats print in the shortest form that reads back
    as the same float.  Strings escape the double quote and the
    backslash with a backslash, and every control character as a
    [u00XX] escape; other bytes pass through unchanged. *)
