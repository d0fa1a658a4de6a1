(** A minimal JSON tree, printer and parser — enough for telemetry export
    and the report round-trip tests without pulling in an external JSON
    dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val equal : t -> t -> bool
(** Structural equality (field order is significant in [Obj]). *)

val to_string : t -> string
(** Compact rendering. Non-finite floats render as [null]. *)

val pp : Format.formatter -> t -> unit

val of_string : string -> (t, string) result
(** Inverse of {!to_string} on the subset it emits; also accepts
    whitespace, [\u] escapes, and float notation generally. *)

val member : string -> t -> t option
(** [member k (Obj kvs)] is the value bound to [k], if any. *)

val to_int : t -> int option
val to_float : t -> float option
val to_bool : t -> bool option
(** [Int]s coerce to float. *)

val to_string_opt : t -> string option
val to_list : t -> t list option

(** {1 Checked reading}

    One reader for every report document. Each check stops at the first
    error and returns it as a one-line message. *)

val ( let* ) :
  ('a, string) result -> ('a -> ('b, string) result) -> ('b, string) result

val err : ('a, unit, string, ('b, string) result) format4 -> 'a
(** [err fmt ...] is [Error] of the formatted message. *)

val field : string -> (t -> 'a option) -> t -> ('a, string) result
(** [field name conv o] is [conv] of the value bound to [name] in [o];
    the error is [missing or ill-typed field "name"]. Pass [Option.some]
    to take the value as it is. *)

val expect_schema : string -> t -> (unit, string) result
(** The document's ["schema"] tag is the given one. *)

val each :
  string -> (t -> (unit, string) result) -> t -> (t list, string) result
(** [each name check o] reads the list bound to [name] in [o] and checks
    its elements in order. The first error is prefixed with the
    element's place, as in [name[2]: ...]. Returns the list. *)

val find : string -> string -> t list -> (t, string) result
(** [find key name xs] is the first element of [xs] whose string field
    [key] is [name]. *)

val to_file : string -> t -> unit
(** Write the compact rendering and a newline to a file. *)

val round_trip :
  ?out:string -> (t -> (unit, string) result) -> t -> (string, string) result
(** [round_trip ?out check js] renders [js] (to the file [out] and reads
    it back, when given), parses the text, requires the parse to equal
    [js] and to pass [check], and returns the text. *)
