(** Explicit pool allocation: the substrate that makes reclamation
    {e precise} and observable.

    The paper's data structures run in C++ and call [delete] the moment a
    node is unlinked; the entire point of revocable reservations is to make
    that immediate [free] safe. OCaml is garbage-collected, so we simulate
    an explicit allocator: nodes are recycled through pools, a freed node is
    poisoned and may be handed out again immediately (reproducing the
    reuse/ABA hazards the paper targets), and misuse — double free, free of
    a foreign node — is detected rather than corrupting memory.

    Two placement strategies reproduce the allocator sensitivity of Fig. 5:

    - {!Size_class} ("J-", jemalloc-like): one global lock-free freelist per
      pool; every allocation and free performs a CAS on the shared head, so
      allocator metadata is a contention point.
    - {!Thread_arena} ("H-", Hoard-like): per-thread freelists exchanging
      whole batches with a global batch stack, so the common case touches
      only thread-local state. *)

type strategy = Size_class | Thread_arena

val strategy_name : strategy -> string
(** ["J-size-class"] or ["H-thread-arena"], echoing the paper's curve
    prefixes. *)

module Stats : sig
  type t = {
    allocs : int;  (** successful allocations *)
    frees : int;  (** successful frees *)
    fresh : int;  (** nodes created anew (pool misses) *)
    global_ops : int;  (** operations that touched the shared freelist *)
    live : int;  (** currently outstanding nodes *)
    high_water : int;  (** maximum simultaneous live nodes *)
  }

  val pp : Format.formatter -> t -> unit
end

exception Double_free of int
(** Raised (with the node id) when a node is freed twice, or freed without
    having been allocated. *)

type 'a t

val create :
  ?strategy:strategy ->
  ?batch:int ->
  make:(int -> 'a) ->
  node_id:('a -> int) ->
  state:('a -> int Atomic.t) ->
  ?poison:('a -> unit) ->
  ?tvar_ids:('a -> int list) ->
  unit ->
  'a t
(** [create ~make ~node_id ~state ()] builds a pool of nodes fabricated by
    [make id] (each with a unique id — the node's simulated address, which
    [node_id] must return). [state] must return the node's state word: a
    per-node cell that reads 0 on a node fresh from [make] and that only
    the pool writes. The pool keeps it as a counter that every [alloc] and
    every [free] bumps by one, so an even word means free and an odd one
    live; it catches double frees and yields {!generation}. [poison] is applied
    when a node is freed, so that any logically-erroneous later use is
    detectable by tests. [batch] sizes the arena-to-global transfer unit for
    {!Thread_arena} (default 32). *)

type 'a fresh = private 'a
(** A node as {!alloc} returns it. The node modules' key setters take
    only this type, so the type checker keeps a key store off any node
    read from a link: only a value that came from [alloc] has it. Linking
    it is the free coercion [(n :> 'a)]. The type does not follow the
    node past that: a [fresh] binding still in scope after the node is
    linked or freed would still type-check for a key store, so code that
    uses the node after linking it shadows the binding with the coerced
    value. *)

val alloc : 'a t -> thread:int -> 'a fresh
(** Allocate a node: reuse a pooled one if available, else fabricate a fresh
    one. [thread] selects the arena under {!Thread_arena}. *)

val free : 'a t -> thread:int -> 'a -> unit
(** Return a node to the pool, poisoning it. The node may be handed out
    again by a concurrent [alloc] immediately — this immediacy is precisely
    what "precise reclamation" means here.
    @raise Double_free on repeated free. *)

val is_live : 'a t -> 'a -> bool
(** Whether the node is currently allocated (its state word is odd). *)

val generation : 'a t -> 'a -> int
(** How many times the node has been allocated: [(state + 1) lsr 1]. It
    rises by one on every [alloc] and holds across [free], so a changed
    generation means the node was recycled. *)

val id_of : 'a t -> 'a -> int
(** The pool-assigned id of a node. O(1); works on live and freed nodes. *)

val san_key : 'a t -> 'a -> int
(** The node's identity in TxSan's shadow tables: {!San.node_key} over this
    pool's sanitizer group and {!id_of}. [tvar_ids] (optional in
    {!create}) lists the node's tvar uids so the sanitizer can map tvar
    accesses back to the owning slot; pools created without it still track
    slot-level events (alloc/free/reserve/retire) but not tvar-level
    use-after-free. The one sanctioned read of a possibly-freed node, the
    deletion check, is exempted by a bracket around the check
    ({!San.probe_begin}), not per tvar. *)

val stats : 'a t -> Stats.t
val strategy : 'a t -> strategy

val live : 'a t -> int
(** Currently outstanding nodes ([allocs - frees]): two atomic loads, no
    per-thread summation, so it is cheap enough to sample after every
    operation. The soak harness's reclamation-backlog axis is built from
    this trajectory — under RR the value tracks the structure's size
    tightly, while a stalled EBR reader lets it grow with every deferred
    retire. *)

val flush_arenas : 'a t -> unit
(** Move all arena-held nodes to the global freelist.
    Call after worker threads have quiesced, before asserting on
    accounting invariants. *)
