(** List nodes shared by every list variant (singly/doubly linked;
    RR / HTM / TMHP / REF reclamation).

    All mutable content lives in tvars. A node's [id] is its simulated
    address: it is assigned once by the pool and survives free/reuse, so the
    revocable-reservation hash functions treat it exactly like the paper
    treats pointer values. A missing link is {!nil}, not an option, so a
    link write allocates nothing. A node is logically deleted when its
    [prev] link points back at itself; no traversal reads [prev], so the
    mark does not conflict with concurrent readers. Freed nodes are
    poisoned ([key = poisoned_key], [next] reset to {!nil}, [prev]
    marked) with version-bumping writes, so any doomed transaction still
    looking at a freed node fails validation rather than observing stale
    state, and a deletion check on it answers "deleted". *)

type t = {
  mutable state : int;
      (** the pool's state word, field 0; owned by {!Mempool}, which
          reaches it only as an [Atomic.t] view. Odd = live, even = free;
          {!Mempool.generation} derives the allocation count from it. *)
  id : int;
  key : int Tm.tvar;
  next : t Tm.tvar;  (** {!nil} at the tail *)
  prev : t Tm.tvar;
      (** linked by the doubly linked list only; the node itself once
          deleted (TMHP/EBR/REF validity, in every list) *)
  rc : Reclaim.Rc.t;  (** reference count (REF variant only) *)
}

val poisoned_key : int

val nil : t
(** The end of every list: one static node whose links point back at
    itself. It is never allocated from or freed to a pool
    ({!Mempool.free} of it raises {!Mempool.Double_free}), and no code
    reads through it: test a link with [==] against [nil] first. *)

val make_pool : ?strategy:Mempool.strategy -> unit -> t Mempool.t
(** A pool of list nodes with poisoning wired up. *)

val deleted : Tm.txn -> t -> bool
(** Whether [prev] points at the node itself; the test {!Mode.create}
    takes. *)

val mark_deleted : Tm.txn -> t -> unit
(** Point [prev] at the node itself; the mark {!Mode.create} takes. *)

val peek_deleted : t -> bool
(** {!deleted} outside any transaction, for structure checks. *)

val sentinel : unit -> t
(** A head/tail sentinel outside any pool ([id = -1]). *)

val hash : t -> int
(** Mixes the node id; stable across the node's whole lifetime. *)

val equal : t -> t -> bool
(** Physical equality — two nodes are the same reference iff they are the
    same pool slot. *)

val alloc : t Mempool.t -> thread:int -> t
(** Pool allocation plus link re-initialization (to {!nil}, which clears
    the deletion mark) with non-transactional version-bumping writes. The
    caller sets [key] and links transactionally. *)
