(** Tree nodes shared by the internal and external unbalanced BSTs.

    As with {!Lnode}, all mutable content is transactional, the pool id is
    the node's simulated address, and freed nodes are poisoned with
    version-bumping writes. [side] records whether the node is currently
    the left child of its parent — the paper's internal tree stores this
    instead of parent pointers, so a removal can splice a node knowing only
    (parent, node). *)

type t = {
  id : int;
  pstate : int Atomic.t;
  gen : int Atomic.t;  (** allocation generation (ABA detection) *)
  key : int Tm.tvar;  (** mutable: internal-tree removal swaps values *)
  left : t option Tm.tvar;
  right : t option Tm.tvar;
  side : bool Tm.tvar;  (** [true] = left child of its parent *)
  deleted : bool Tm.tvar;
}

val poisoned_key : int
val make_pool :
  ?strategy:Mempool.strategy -> ?magazines:bool -> unit -> t Mempool.t
val sentinel : key:int -> t
val hash : t -> int
val equal : t -> t -> bool

val alloc : t Mempool.t -> thread:int -> t
(** Allocate and reset ([deleted = false], children severed). *)
