(** Singly linked list nodes: the paper's Listing 5 [{key, next}] node,
    used by {!Hoh_list} (the list and, over buckets, the hash set) and
    {!List_walk}. The doubly linked list has its own node, {!Dnode}.

    The link is a tvar; the key is a plain field, as in the paper's HTM
    code. A node's [id] is its simulated address: it is assigned once by
    the pool and survives free/reuse, so {!Mode.create}'s
    revocable-reservation hash treats it exactly like the paper treats
    pointer values. A
    missing link is {!nil}, not an option, so a link write allocates
    nothing. A node is logically deleted when its [next] link points back
    at itself: TMHP/EBR/REF removal writes that mark in the transaction
    that unlinks the node, so no consistent snapshot reaches a marked node
    through the list. Freed nodes are poisoned ([next] marked) with a
    version-bumping write, so any doomed transaction still looking at a
    freed node fails validation rather than observing stale state, and a
    deletion check on it answers "deleted". REF keeps its counts outside
    the node ({!Mode.create}).

    Only a node no other thread can reach has its key set ({!set_key} on a
    fresh spare, before the commit that publishes it), so a live node's key
    never changes. A transaction reads a key only through {!key} or
    {!List_walk.walk}, which follow the key load with a transactional read
    of [next]: a transaction that loaded the key of a node freed and handed
    out again since its snapshot fails that read's version check. *)

type t = private {
  mutable state : int;
      (** the pool's state word, field 0; owned by {!Mempool}, which
          reaches it only as an [Atomic.t] view. Odd = live, even = free;
          {!Mempool.generation} derives the allocation count from it. *)
  id : int;
  mutable key : int;
      (** plain; written only by {!set_key}; a transaction reads it only
          through {!key} or {!List_walk.walk}, a quiescent check directly *)
  next : t Tm.tvar;
      (** {!nil} at the tail; the node itself once deleted (TMHP/EBR/REF
          removal, and poison in every mode) *)
}

val nil : t
(** The end of every list: one static node whose link points back at
    itself. It is never allocated from or freed to a pool
    ({!Mempool.free} of it raises {!Mempool.Double_free}), and no code
    reads through it: test a link with [==] against [nil] first. *)

val make_pool : ?strategy:Mempool.strategy -> unit -> t Mempool.t
(** A pool of list nodes with poisoning wired up. *)

val key : Tm.txn -> t -> int
(** [n]'s key, validated by a read of [next] after the load: if [n] was
    freed and handed out again since the transaction's snapshot, it aborts.
    @raise Tm.Abort as {!Tm.read} does. *)

val set_key : t Mempool.fresh -> int -> unit
(** Set the key of a node no other thread can reach: a spare fresh from
    {!alloc}, before the commit that links it as [(n :> t)]. A node read
    from a link is a plain [t], so a call on it does not type-check; the
    type does not see a [fresh] binding kept past the link, so shadow it
    with the coerced node there (see {!Mempool.fresh}). *)

val deleted : Tm.txn -> t -> bool
(** Whether [next] points at the node itself; the test {!Mode.create}
    takes. *)

val mark_deleted : Tm.txn -> t -> unit
(** Point [next] at the node itself; the mark {!Mode.create} takes. Write
    it after reading [next] for the unlink. *)

val peek_deleted : t -> bool
(** {!deleted} outside any transaction, for structure checks and the
    quiescent walkers, which stop at a self-link. *)

val sentinel : unit -> t
(** A head sentinel outside any pool ([id = -1]). *)

val equal : t -> t -> bool
(** Physical equality — two nodes are the same reference iff they are the
    same pool slot. *)

val alloc : t Mempool.t -> thread:int -> t Mempool.fresh
(** Pool allocation plus a reset of [next] to {!nil} (which clears the
    deletion mark) with a non-transactional version-bumping write. The key
    is the last incarnation's until the caller's {!set_key}; the caller
    links the node transactionally. *)
