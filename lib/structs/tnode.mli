(** Tree nodes shared by the internal and external unbalanced BSTs.

    As with {!Lnode}, all mutable content but the pool's state word is
    transactional, the pool id is the node's simulated address, and freed
    nodes are poisoned with version-bumping writes. The paper's internal
    tree keeps a side flag per node so that a removal can splice a node
    knowing only (parent, node). These nodes carry none: under BST order a
    node is its parent's left child exactly when its key is below the
    parent's, and the descent that finds the pair reads that key in the
    same transaction, so it hands the side to the removal.

    A missing child is {!nil}, not an option, so a link write allocates
    nothing. A node is logically deleted when its [right] link points
    back at itself: removal marks it so ({!mark_deleted}) and so does the
    pool's poison. [right] is the link descents read least — never at a
    leaf — so the mark adds few conflicts with concurrent readers. *)

type t = {
  mutable state : int;
      (** the pool's state word, field 0; owned by {!Mempool}, which
          reaches it only as an [Atomic.t] view (see {!Mempool.create}) *)
  id : int;
  key : int Tm.tvar;  (** mutable: internal-tree removal swaps values *)
  left : t Tm.tvar;  (** {!nil} when absent *)
  right : t Tm.tvar;  (** {!nil} when absent; the node itself once deleted *)
}

val poisoned_key : int

val nil : t
(** The missing child: one static node, shared by every tree, whose links
    point back at itself. It is never allocated from or freed to a pool
    ({!Mempool.free} of it raises {!Mempool.Double_free}), and no code
    reads through it: test a link with [==] against [nil] first. *)

val make_pool : ?strategy:Mempool.strategy -> unit -> t Mempool.t

val deleted : Tm.txn -> t -> bool
(** Whether [right] points at the node itself; the test {!Mode.create}
    takes. *)

val mark_deleted : Tm.txn -> t -> unit
(** Point [right] at the node itself; the mark {!Mode.create} takes. *)

val peek_deleted : t -> bool
(** {!deleted} outside any transaction, for structure checks. *)

val sentinel : key:int -> t
val hash : t -> int
val equal : t -> t -> bool

val alloc : t Mempool.t -> thread:int -> t
(** Allocate and reset the children to {!nil}, which clears the deletion
    mark. *)
