(** Doubly linked list nodes, used by {!Hoh_dlist} only: a {!Lnode} plus
    a [prev] link.

    As with {!Lnode}, the links are tvars and the key is a plain field set
    only on an unreachable spare ({!set_key}), the pool id is the node's
    simulated address, a missing link is {!nil}, and freed nodes are
    poisoned with version-bumping writes to their links. A transaction
    reads a key only in the list's walk, which follows the load with a
    read of [next] (see {!Lnode.key}). A node is logically deleted when its
    [prev] link points back at itself. No traversal reads [prev]: the
    list reads it only to unlink, so the mark does not conflict with
    concurrent readers. Poison writes the mark too ([next] reset to
    {!nil}, [prev] marked). *)

type t = private {
  mutable state : int;
      (** the pool's state word, field 0; owned by {!Mempool}, which
          reaches it only as an [Atomic.t] view (see {!Lnode.t}) *)
  id : int;
  mutable key : int;  (** plain; see {!Lnode.t} *)
  next : t Tm.tvar;  (** {!nil} at the tail *)
  prev : t Tm.tvar;
      (** {!nil} on the head sentinel; the node itself once deleted
          (TMHP/EBR/REF removal, and poison in every mode) *)
}

val nil : t
(** The end of every doubly linked list: one static node whose links
    point back at itself, never allocated from or freed to a pool (see
    {!Lnode.nil}). *)

val make_pool : ?strategy:Mempool.strategy -> unit -> t Mempool.t

val set_key : t Mempool.fresh -> int -> unit
(** As {!Lnode.set_key}: only on a fresh spare, before the commit that
    links it. *)

val deleted : Tm.txn -> t -> bool
(** Whether [prev] points at the node itself; the test {!Mode.create}
    takes. *)

val mark_deleted : Tm.txn -> t -> unit
(** Point [prev] at the node itself; the mark {!Mode.create} takes. *)

val peek_deleted : t -> bool
(** {!deleted} outside any transaction, for structure checks. *)

val sentinel : unit -> t
val equal : t -> t -> bool

val alloc : t Mempool.t -> thread:int -> t Mempool.fresh
(** Allocate and reset both links to {!nil}, which clears the deletion
    mark. The key is the last incarnation's until {!set_key}. *)
