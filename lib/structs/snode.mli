(** Skiplist nodes: a fixed-capacity tower of transactional forward
    pointers. [level] is the number of levels the node occupies. The key
    and the level are plain fields, set only on an unreachable spare
    ({!set_key}, {!set_level}) before the commit that links it, so neither
    changes while the node is linked. A transaction reads them only
    through {!next_below}, {!spans}, {!key} and {!level}, which follow the
    load with a read of one of the node's links (see {!Lnode}). A missing
    successor is {!nil}. A node is logically deleted when its top link,
    [next.(max_level - 1)], points back at itself. Every removal writes
    that mark — in all modes, not just TMHP — because the skiplist
    validates stale predecessor hints against it (see {!Hoh_skiplist}),
    and so does {!alloc}, until the insert that links the spare clears
    it. Only a full-height tower links its top level, so the top link is
    the cheapest one to read for validation: almost nothing but the
    node's own removal writes it. *)

type t = private {
  mutable state : int;
      (** the pool's state word, field 0; owned by {!Mempool}, which
          reaches it only as an [Atomic.t] view (see {!Lnode.t}) *)
  id : int;
  mutable key : int;  (** plain; see {!Lnode.t} *)
  next : t Tm.tvar array;
      (** length {!max_level}; {!nil} past the end; the top one is the
          node itself once deleted *)
  mutable level : int;
      (** levels in use, 1..{!max_level}; plain, as [key] *)
}

val max_level : int
(** Tower capacity (16): comfortable for millions of keys. *)

val nil : t
(** The end of every level: one static node whose links point back at
    itself, never allocated from or freed to a pool (see {!Lnode.nil}). *)

val make_pool : ?strategy:Mempool.strategy -> unit -> t Mempool.t

val above : t
(** {!next_below}'s answer for a node that is not below the key: a static
    node with no tower, which no link holds. Test it with [==]. *)

val next_below : Tm.txn -> t -> int -> int -> t
(** [next_below txn n k l]: [n]'s level-[l] successor when [n] is not
    {!nil} and its key is below [k], else {!above}. The key load is
    validated by the read of that successor link when the key is below
    (the link a walk at level [l] follows next, so the walk carries the
    value and reads the link once), and of [n]'s top link when it is
    not. @raise Tm.Abort as {!Tm.read} does. *)

val spans : Tm.txn -> t -> int -> int -> bool
(** [spans txn n k l]: whether [n]'s key is below [k] and its tower
    reaches above level [l], for a node reached through no link this
    transaction read (a hint carried from an earlier window). Call it
    after {!deleted} said [false]: it reads the top link again after the
    loads, so a recycling commit between the two reads aborts the
    transaction rather than pair an old key with new links. *)

val key : Tm.txn -> t -> int
(** [n]'s key, validated by a read of its top link. *)

val level : Tm.txn -> t -> int
(** [n]'s level, validated by a read of its top link. *)

val set_key : t Mempool.fresh -> int -> unit
(** As {!Lnode.set_key}: only on a fresh spare, before the commit that
    links it. *)

val set_level : t Mempool.fresh -> int -> unit
(** As {!set_key}, for the level. *)

val deleted : Tm.txn -> t -> bool
(** Whether the top link points at the node itself; the test
    {!Mode.create} takes. *)

val mark_deleted : Tm.txn -> t -> unit
(** Point the top link at the node itself; the mark {!Mode.create}
    takes. Write it after reading the top link for a splice. *)

val peek_deleted : t -> bool
(** {!deleted} outside any transaction, for structure checks. *)

val sentinel : unit -> t
val equal : t -> t -> bool

val alloc : t Mempool.t -> thread:int -> t Mempool.fresh
(** Allocate and reset the tower to {!nil} below the top link, and set the
    deletion mark: an unlinked spare reads as deleted, so a stale hint that
    the pool handed out again is refused until the commit that links the
    spare, which must clear the mark ({!link_top}). The key and level are
    the last incarnation's until {!set_key} and {!set_level}. *)

val link_top : Tm.txn -> t -> height:int -> unit
(** Clear a spare's deletion mark, in the transaction that links it at
    [height] levels; a full-height tower's top link is its top-level
    successor, which the splice writes instead. *)
