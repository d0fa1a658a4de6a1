(** Tree nodes shared by the internal and external unbalanced BSTs.

    As with {!Lnode}, the links are tvars, the pool id is the node's
    simulated address, and freed nodes are poisoned with version-bumping
    writes to their links. The key is a plain field, as in the paper's
    HTM trees: only a node no other thread can reach has its key set
    ({!set_key} on a fresh spare, before the commit that publishes it),
    so a live node's key never changes. The internal tree's two-child
    removal therefore replaces the node with a fresh copy carrying the
    successor's key rather than overwriting the key in place. Code reads
    a key only through {!route} and {!key}, each of which follows the key
    load with a transactional read of one of the node's links: a
    transaction that loaded the key of a node freed and handed out again
    since its snapshot fails that read's version check.

    The paper's internal tree keeps a side flag per node so that a
    removal can splice a node knowing only (parent, node). These nodes
    carry none: under BST order a node is its parent's left child exactly
    when its key is below the parent's, and neither key changes while the
    edge stands, so the side the descent took is the side the removal
    writes.

    A missing child is {!nil}, not an option, so a link write allocates
    nothing. A node is logically deleted when its [right] link points
    back at itself: removal marks it so ({!mark_deleted}) and so does the
    pool's poison. [right] is the link descents read least — never at a
    leaf — so the mark adds few conflicts with concurrent readers. *)

type t = private {
  mutable state : int;
      (** the pool's state word, field 0; owned by {!Mempool}, which
          reaches it only as an [Atomic.t] view (see {!Mempool.create}) *)
  id : int;
  mutable key : int;
      (** plain; written only by {!set_key}; a transaction reads it only
          through {!route} and {!key}, a quiescent check directly *)
  left : t Tm.tvar;  (** {!nil} when absent *)
  right : t Tm.tvar;  (** {!nil} when absent; the node itself once deleted *)
}

val nil : t
(** The missing child: one static node, shared by every tree, whose links
    point back at itself. It is never allocated from or freed to a pool
    ({!Mempool.free} of it raises {!Mempool.Double_free}), and no code
    reads through it: test a link with [==] against [nil] first. *)

val make_pool : ?strategy:Mempool.strategy -> unit -> t Mempool.t

(** One step of a search for a key. *)
type step =
  | Left of t  (** the key sought is below the node's: [left]'s target *)
  | Right of t  (** the key sought is above the node's: [right]'s target *)
  | Hit of t  (** the key sought is the node's: [right]'s target *)

val route : Tm.txn -> t -> int -> step
(** [route txn n k] compares [k] with [n]'s key and then reads, through
    the TM, the link the comparison picks ([right] on a hit, where an
    external tree's router sends the search). That read validates the key
    load before it: if [n] was freed and handed out again since the
    transaction's snapshot, it aborts. One logged read per node visited.
    @raise Tm.Abort as {!Tm.read} does. *)

val key : Tm.txn -> t -> int
(** [n]'s key, validated the same way by a read of [left] (already logged
    at a leaf, whose [left] is {!nil}). *)

val set_key : t Mempool.fresh -> int -> unit
(** Set the key of a node no other thread can reach: a spare fresh from
    {!alloc}, before the commit that links it as [(n :> t)]. A node read
    from a link is a plain [t], so a call on it does not type-check; the
    type does not see a [fresh] binding kept past the link, so shadow it
    with the coerced node there (see {!Mempool.fresh}). *)

val deleted : Tm.txn -> t -> bool
(** Whether [right] points at the node itself; the test {!Mode.create}
    takes. *)

val mark_deleted : Tm.txn -> t -> unit
(** Point [right] at the node itself; the mark {!Mode.create} takes. *)

val peek_deleted : t -> bool
(** {!deleted} outside any transaction, for structure checks. *)

val sentinel : key:int -> t
val equal : t -> t -> bool

val alloc : t Mempool.t -> thread:int -> t Mempool.fresh
(** Allocate and reset the children to {!nil}, which clears the deletion
    mark. The key is the last incarnation's until {!set_key}. *)
