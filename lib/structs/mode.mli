(** The traversal context shared by the transactional data structures:
    Listing 5's [Apply] ({!apply}), its window budgets ({!start_point}),
    the node pool and a reclamation/reservation mode.

    Every structure in the paper's evaluation is "Listing 5 plus a policy":
    a structure supplies its root or heads, the step one window runs and
    the actions on the nodes it finds; the same hand-over-hand traversal
    code then runs with

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
  unlogged : bool;
      (** every window but an update's acting one runs unlogged
          ({!Rr.Hoh.apply}'s [unlogged]). True for the RR kinds whose
          hand-off writes nothing shared ({!Rr.S.local_reserve}: RR-V, on
          owner-local slots); false for the other RRs, whose reserve
          writes a published tvar, for TMHP and EBR, whose reserve needs
          commit-time validation of a read set, and for REF and HTM. *)
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
  pool : 'n Mempool.t;  (** the structure's node pool *)
  window : Rr.Hoh.Window.t;  (** the structure's window controller *)
  max_attempts : int option;  (** TM attempts per window transaction *)
  resume_floor : int;
      (** the least budget of a resumed window (see {!start_point}) *)
}

val tmhp_gen_violations : int Atomic.t
(** Diagnostic: TMHP resumes whose node was recycled (freed and
    reallocated) since reservation. Must stay zero if the hazard-pointer
    protocol is airtight. *)

val take_spare :
  'n t ->
  outer:Tm.txn option ->
  Tm.txn ->
  'n Mempool.fresh option ref ->
  ('n Mempool.t -> thread:int -> 'n Mempool.fresh) ->
  'n Mempool.fresh
(** [take_spare t ~outer txn spare alloc] is the node an insert's acting
    window [txn] links: the one in [spare], or a fresh one from [alloc]
    over [t]'s pool. It marks the spare consumed with {!Tm.assign}:
    [spare] reads [None] from here on, and holds the node again if the
    attempt aborts. [outer] is [Tm.current_txn ()] sampled when the
    operation began. An unnested insert ([outer = None]) keeps its spare
    across its own aborted attempts, so a retry allocates nothing. Inside
    an enclosing transaction an abort of that transaction re-runs the
    whole insert with a fresh ref, so a fresh node is registered with
    {!Tm.on_abort}, which frees it; the consumed mark's restore runs
    first, so the node is freed exactly once. *)

val give_back_spare :
  'n t ->
  thread:int ->
  outer:Tm.txn option ->
  'n Mempool.fresh option ref ->
  unit
(** Return an unconsumed insert spare to the pool once the operation is
    over: a spare still in [spare] was never linked. Outside any
    transaction the node is freed immediately; inside an enclosing
    transaction [outer] the free is deferred to its commit, and an abort
    of [outer] frees it through {!take_spare}'s {!Tm.on_abort} callback
    instead. *)

val create :
  kind ->
  pool:'n Mempool.t ->
  deleted:(Tm.txn -> 'n -> bool) ->
  mark_deleted:(Tm.txn -> 'n -> unit) ->
  window:int ->
  ?scatter:bool ->
  ?adaptive:bool ->
  ?fusion:int ->
  ?max_attempts:int ->
  ?resume_floor:int ->
  ?rr_config:Rr.Config.t ->
  ?hp_threshold:int ->
  unit ->
  'n t
(** [deleted] tests a node's deletion mark transactionally and
    [mark_deleted] sets it; a poisoned (freed) node must test deleted.
    TMHP, EBR and REF mark on [invalidate] and test in their reservation
    check. REF keeps each node's reference count itself, one tvar per
    pool id ({!Mempool.id_of}), so nodes carry no count. The RR kinds hash
    a node by its pool id, mixed, and compare nodes physically.
    [hp_threshold] is the TMHP scan threshold (default 64, the paper's best
    setting). TMHP's recycle check ({!tmhp_gen_violations}) reads each
    node's allocation count from [pool] ({!Mempool.generation}).

    The structure's window settings build its window controller,
    [Rr.Hoh.Window.create ~scatter ?adaptive ?fusion window] ([scatter]
    defaults to [true]); it and [max_attempts] (default: the TM's) drive
    every {!apply}. [resume_floor] (default 1) is a structure constant:
    a tree resumes a window at the node the last one handed off, so it
    passes 2, or a resumed window of budget 1 would hand that node back
    without stepping, forever. *)

val window_size : 'n t -> int
(** The static window [w] ({!Rr.Hoh.Window.size}). *)

val fuse_budget : 'n t -> thread:int -> int
(** [thread]'s live window-fusion budget
    ({!Rr.Hoh.Window.fuse_budget}). *)

val start_point : 'n t -> thread:int -> root:'n -> 'n option -> 'n * int
(** The window-start policy: where a window begins and how many nodes it
    may examine. A resumed window ([Some n], the checked hand-off) starts
    at [n] with the continuation budget ({!Rr.Hoh.Window.budget}), at
    least [resume_floor]. A first window ([None], also after a revoked
    reservation) starts at [root] with the scattered first budget
    ({!Rr.Hoh.Window.first_budget}), or an unbounded one when [whole_op].
    Call it inside the step, once per attempt that needs a start: the
    first budget advances the thread's scatter generator. *)

val apply :
  'n t ->
  thread:int ->
  site:string ->
  ?lookup:bool ->
  (Tm.txn -> start:'n option -> ('n, 'a) Rr.Hoh.outcome) ->
  'a * int
(** Listing 5's [Apply]: {!Rr.Hoh.apply_stamped} over the mode's
    reservations, window controller and attempt limit. Returns the step's
    result and the final transaction's commit stamp. [site] labels every
    window transaction. A pure [lookup] (default [false]) runs its windows
    with the [read_phase] hint when the mode's [ro_hint] allows it. When
    the mode is [unlogged], the windows run unlogged and the step writes
    only through {!Rr.Hoh.act}: a window that finds an update's position
    hands off at its anchor node, and the next window, logged, writes. *)
