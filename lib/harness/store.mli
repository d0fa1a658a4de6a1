(** Packed stores and the canonical constructors.

    See {!Store_intf} for the module type. This module adds the
    existential wrapper [t] (so heterogeneous stores are ordinary
    values), the functor that serves every set implementation in the
    repository through {!S}, and small helpers over {!Store_intf.op} /
    {!Store_intf.outcome}. *)

type outcome = Store_intf.outcome =
  | Found
  | Absent
  | Inserted
  | Duplicate
  | Removed
  | Missing
  | Keys of int list
  | Overload

type reply = Store_intf.reply = {
  outcome : outcome;
  earliest : int;
  stamp : int;
}

type op = Store_intf.op =
  | Get of int
  | Insert of int
  | Remove of int
  | Scan of { low : int; count : int }

module type S = Store_intf.S

val op_key : op -> int
(** The routing key of an operation (a scan routes by its low bound). *)

val positive : outcome -> bool
(** Did the operation take effect / find something? [Found], [Inserted],
    [Removed] and non-empty [Keys] are positive. *)

val outcome_name : outcome -> string

(** {1 Packed stores} *)

type t = Packed : (module S with type t = 'a) * 'a -> t

val pack : (module S with type t = 'a) -> 'a -> t

(** Forwarders — [Store.get st ~thread k] etc. unpack and dispatch. *)

val name : t -> string
val stamped : t -> bool
val get : t -> thread:int -> int -> reply
val insert : t -> thread:int -> int -> reply
val remove : t -> thread:int -> int -> reply
val scan : t -> thread:int -> low:int -> count:int -> reply

val batch : ?fuse:bool -> t -> thread:int -> op array -> reply array
(** [fuse] defaults to [false]; see {!Store_intf.S.batch}. *)

val exec : t -> thread:int -> op -> reply
(** Dispatch a single {!op} to the matching point operation. *)

val stats : t -> Telemetry.Report.t
val finalize_thread : t -> thread:int -> unit
val drain : t -> unit
val size : t -> int
val contents : t -> int list
val check : t -> (unit, string) result
val pool_live : t -> int option
val max_backlog : t -> int option
val leaked : t -> int option

(** {1 Structures}

    Each structure behind {!S}, all built by one functor over
    {!Structs.Set_intf.S}. The HOH structures have the stamped
    transactional semantics: replies carry each operation's stamps, and
    [stamped] is [true]. Build a packed store with
    [pack (module Store.Hoh_list) l]. *)

module Hoh_list : S with type t = Structs.Hoh_list.t
module Hoh_dlist : S with type t = Structs.Hoh_dlist.t
module Hoh_bst_int : S with type t = Structs.Hoh_bst_int.t
module Hoh_bst_ext : S with type t = Structs.Hoh_bst_ext.t
module Hoh_skiplist : S with type t = Structs.Hoh_skiplist.t

(** The lock-free baselines: zero stamps, [stamped] is [false]. *)

module Harris_list : S with type t = Lockfree.Harris_list.t
module Nm_tree : S with type t = Lockfree.Nm_tree.t
