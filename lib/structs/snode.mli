(** Skiplist nodes: a fixed-capacity tower of transactional forward
    pointers. [level] is the number of levels the node occupies (immutable
    while the node is linked). A missing successor is {!nil}. A node is
    logically deleted when its top link, [next.(max_level - 1)], points
    back at itself. Every removal writes that mark — in all modes, not
    just TMHP — because the skiplist validates stale predecessor hints
    against it (see {!Hoh_skiplist}). Only a full-height tower links its
    top level, so traversals almost never read the mark. *)

type t = {
  mutable state : int;
      (** the pool's state word, field 0; owned by {!Mempool}, which
          reaches it only as an [Atomic.t] view (see {!Lnode.t}) *)
  id : int;
  key : int Tm.tvar;
  next : t Tm.tvar array;
      (** length {!max_level}; {!nil} past the end; the top one is the
          node itself once deleted *)
  level : int Tm.tvar;  (** levels in use, 1..{!max_level} *)
}

val max_level : int
(** Tower capacity (16): comfortable for millions of keys. *)

val poisoned_key : int

val nil : t
(** The end of every level: one static node whose links point back at
    itself, never allocated from or freed to a pool (see {!Lnode.nil}). *)

val make_pool : ?strategy:Mempool.strategy -> unit -> t Mempool.t

val deleted : Tm.txn -> t -> bool
(** Whether the top link points at the node itself; the test
    {!Mode.create} takes. *)

val mark_deleted : Tm.txn -> t -> unit
(** Point the top link at the node itself; the mark {!Mode.create}
    takes. Write it after reading the top link for a splice. *)

val peek_deleted : t -> bool
(** {!deleted} outside any transaction, for structure checks. *)

val sentinel : unit -> t
val hash : t -> int
val equal : t -> t -> bool

val alloc : t Mempool.t -> thread:int -> t
(** Allocate and reset the tower to {!nil}, which clears the deletion
    mark. *)
