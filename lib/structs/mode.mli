(** Reclamation/traversal modes shared by the transactional data
    structures.

    Every structure in the paper's evaluation is "Listing 5 plus a policy":
    the same hand-over-hand traversal code runs with

    - one of the six revocable-reservation implementations (precise,
      immediate reclamation),
    - no reservations at all and an unbounded window — the single-hardware-
      transaction HTM baseline,
    - transactional hazard pointers (TMHP): reservations become hazard-slot
      publications and node validity becomes a transactional
      logical-deletion mark; reclamation is deferred and batched,
    - transactional reference counts (REF): window-start nodes are pinned by
      a count, kept by the mode per pool id rather than in the node; the
      last unpinner frees a deleted node.

    A mode bundles the reservation operations with two removal hooks:
    [invalidate] makes any outstanding reservation/resume point on a node
    unusable (RR: [Revoke]; TMHP/REF/EBR: mark the node deleted), and
    [dispose] schedules the node's memory for reclamation (free on commit,
    retire to the hazard domain, or refcount-guarded free). *)

type kind =
  | Rr_kind of (module Rr.S)
  | Htm  (** whole operation in one transaction; serial fallback as HTM *)
  | Tmhp
  | Ref
  | Ebr
      (** epoch-based deferred reclamation: threads stay announced in an
          epoch for the whole operation; removed nodes are freed two epoch
          advances after retirement *)

val kind_name : kind -> string

type 'n t = {
  name : string;
  strict : bool;
  whole_op : bool;  (** ignore windows; run the operation in one txn *)
  ro_hint : bool;
      (** pure lookups under this mode may run their windows with
          {!Tm.atomic}'s [read_phase] hint (wait out locked words, never
          escalate to the serial fallback). True for TMHP and EBR, whose
          reservations are out-of-band publications (the lookup windows
          are TM-read-only, so they never advance the clock), and for the
          RR kinds, whose reservation writes touch only the reserving
          thread's own slots/cells — contended solely by rare revocations,
          which regular abort/retry handles. False for REF (reserving
          writes shared refcount tvars that every passing thread
          contends on) and HTM (the whole operation, writes included,
          runs as one transaction). *)
  ops : 'n Rr.ops;
  deleted : Tm.txn -> 'n -> bool;
      (** the deletion test given to {!create}, bracketed for TxSan: the
          one place a possibly-freed node may be read. Poison marks a
          freed node deleted, so the caller drops the pointer, and reads
          inside the bracket are exempt from TxSan's read-UAF rule
          ({!San.probe_begin}). *)
  invalidate : Tm.txn -> 'n -> unit;
  dispose : Tm.txn -> 'n -> unit;
  finalize : thread:int -> unit;
      (** per-thread cleanup after a worker quiesces (clear hazard slots) *)
  drain : unit -> unit;  (** global cleanup: drain deferred reclamation *)
  hazard_metrics : unit -> Reclaim.Hazard.metrics option;
}

val tmhp_gen_violations : int Atomic.t
(** Diagnostic: TMHP resumes whose node was recycled (freed and
    reallocated) since reservation. Must stay zero if the hazard-pointer
    protocol is airtight. *)

val give_back_spare : 'n Mempool.t -> thread:int -> 'n option ref -> unit
(** Return an unconsumed insert spare to the pool. Outside any transaction
    the node is freed immediately; inside an enclosing transaction (a
    flat-nested, composed operation) the free is deferred to the enclosing
    commit — freeing eagerly would poison a node whose linking writes are
    still buffered. The ref is re-checked at commit so a spare consumed by
    a later attempt is not freed. *)

val create :
  kind ->
  pool:'n Mempool.t ->
  deleted:(Tm.txn -> 'n -> bool) ->
  mark_deleted:(Tm.txn -> 'n -> unit) ->
  hash:('n -> int) ->
  equal:('n -> 'n -> bool) ->
  ?rr_config:Rr.Config.t ->
  ?hp_threshold:int ->
  unit ->
  'n t
(** [deleted] tests a node's deletion mark transactionally and
    [mark_deleted] sets it; a poisoned (freed) node must test deleted.
    TMHP, EBR and REF mark on [invalidate] and test in their reservation
    check. REF keeps each node's reference count itself, one tvar per
    pool id ({!Mempool.id_of}), so nodes carry no count. [hp_threshold] is
    the TMHP scan threshold (default 64, the paper's best setting). TMHP's
    recycle check ({!tmhp_gen_violations}) reads each node's allocation
    count from [pool] ({!Mempool.generation}). *)
