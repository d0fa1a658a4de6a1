(** Transactional reference counts, used by the paper's REF list variant.

    Each node's counter is a tvar of its own (the paper keeps counts "in
    separate cache lines" — here, separate tvars — so that counter traffic
    does not conflict with node-field traffic). The REF mode keeps them in
    a table indexed by pool id, outside the nodes, so only structures
    that run REF pay for them. A node is freed by whichever transaction
    drops the count to zero after the node was unlinked. *)

type t

val make : int -> t
(** [make n] creates a counter initialized to [n]. *)

val incr : Tm.txn -> t -> unit

val decr : Tm.txn -> t -> int
(** Decrement and return the new count.
    @raise Invalid_argument if the count would go negative. *)

val get : Tm.txn -> t -> int
val peek : t -> int
