(** List nodes shared by every list variant (singly/doubly linked;
    RR / HTM / TMHP / REF reclamation).

    All mutable content lives in tvars. A node's [id] is its simulated
    address: it is assigned once by the pool and survives free/reuse, so the
    revocable-reservation hash functions treat it exactly like the paper
    treats pointer values. Freed nodes are poisoned ([key = poisoned_key],
    [deleted = true], links severed) with version-bumping writes, so any
    doomed transaction still looking at a freed node fails validation
    rather than observing stale state. *)

type t = {
  mutable state : int;
      (** the pool's state word, field 0; owned by {!Mempool}, which
          reaches it only as an [Atomic.t] view. Odd = live, even = free;
          {!Mempool.generation} derives the allocation count from it. *)
  id : int;
  key : int Tm.tvar;
  next : t option Tm.tvar;
  prev : t option Tm.tvar;  (** used by the doubly linked list only *)
  deleted : bool Tm.tvar;  (** logical-deletion flag (TMHP/REF validity) *)
  rc : Reclaim.Rc.t;  (** reference count (REF variant only) *)
}

val poisoned_key : int

val make_pool : ?strategy:Mempool.strategy -> unit -> t Mempool.t
(** A pool of list nodes with poisoning wired up. *)

val sentinel : unit -> t
(** A head/tail sentinel outside any pool ([id = -1]). *)

val hash : t -> int
(** Mixes the node id; stable across the node's whole lifetime. *)

val equal : t -> t -> bool
(** Physical equality — two nodes are the same reference iff they are the
    same pool slot. *)

val alloc : t Mempool.t -> thread:int -> t
(** Pool allocation plus field re-initialization ([deleted = false],
    links severed) with non-transactional version-bumping writes. The
    caller sets [key] and links transactionally. *)
