(** Tree nodes shared by the internal and external unbalanced BSTs.

    As with {!Lnode}, all mutable content but the pool's state word is
    transactional, the pool id is the node's simulated address, and freed
    nodes are poisoned with version-bumping writes. The paper's internal
    tree keeps a side flag per node so that a removal can splice a node
    knowing only (parent, node). These nodes carry none: under BST order a
    node is its parent's left child exactly when its key is below the
    parent's, and the descent that finds the pair reads that key in the
    same transaction, so it hands the side to the removal. *)

type t = {
  mutable state : int;
      (** the pool's state word, field 0; owned by {!Mempool}, which
          reaches it only as an [Atomic.t] view (see {!Mempool.create}) *)
  id : int;
  key : int Tm.tvar;  (** mutable: internal-tree removal swaps values *)
  left : t option Tm.tvar;
  right : t option Tm.tvar;
  deleted : bool Tm.tvar;
}

val poisoned_key : int
val make_pool : ?strategy:Mempool.strategy -> unit -> t Mempool.t
val sentinel : key:int -> t
val hash : t -> int
val equal : t -> t -> bool

val alloc : t Mempool.t -> thread:int -> t
(** Allocate and reset ([deleted = false], children severed). *)
