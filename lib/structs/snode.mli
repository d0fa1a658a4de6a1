(** Skiplist nodes: a fixed-capacity tower of transactional forward
    pointers. [level] is the number of levels the node occupies (immutable
    while the node is linked); [deleted] is written by every removal — in
    all modes, not just TMHP — because the skiplist validates stale
    predecessor hints against it (see {!Hoh_skiplist}). *)

type t = {
  mutable state : int;
      (** the pool's state word, field 0; owned by {!Mempool}, which
          reaches it only as an [Atomic.t] view (see {!Lnode.t}) *)
  id : int;
  key : int Tm.tvar;
  next : t option Tm.tvar array;  (** length {!max_level} *)
  level : int Tm.tvar;  (** levels in use, 1..{!max_level} *)
  deleted : bool Tm.tvar;
}

val max_level : int
(** Tower capacity (16): comfortable for millions of keys. *)

val poisoned_key : int
val make_pool : ?strategy:Mempool.strategy -> unit -> t Mempool.t
val sentinel : unit -> t
val hash : t -> int
val equal : t -> t -> bool
val alloc : t Mempool.t -> thread:int -> t
