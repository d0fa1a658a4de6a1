(** The sharded KV service layer.

    A keyspace partitioned across N shards, each a complete independent
    stack (its own {!Mempool}, its own HOH structure, its own telemetry)
    built from one {!Harness.Factories.Spec}, fronted by a router:

    - keys hash to shards deterministically ({!shard_of_key});
    - single-key operations and same-shard batches run under a per-shard
      {e shared} gate, so they proceed concurrently — the underlying
      store's transactions provide their isolation;
    - cross-shard multi-key operations ({!multi}) take every involved
      shard's gate {e exclusively} (ascending shard order, so gate
      acquisition cannot deadlock) and run two-phase commit over
      per-shard transactions: prepare probes every precondition, apply
      performs the writes, and a failure mid-apply rolls the applied
      prefix back with compensating operations while the gates are still
      held — other threads observe all of the multi or none of it.

    Because all shards share the TM's global commit clock, the stamps of
    a multi's sub-transactions order consistently against all other
    stamped operations, and the whole service history remains checkable
    by {!Harness.Serial_check} (DESIGN.md, decision 10).

    Three optional layers ride in front of the router (DESIGN.md,
    decision 13): per-shard bounded request queues behind an async
    {!submit}/{!await} path, drained by the awaiting clients themselves
    ({!Pool}), a versioned hot-key read cache whose hits skip the gate
    and the transaction entirely ({!Hotcache}), and SLO-driven admission
    control that sheds low-priority submissions with
    {!Harness.Store_intf.Overload} replies. *)

(** The hot cache, re-exported: the service library is wrapped behind
    this module, so white-box tests reach {!Hotcache} through this
    alias. *)
module Hot_cache : module type of struct
  include Hotcache
end

type priority = Pool.priority = High | Low
(** Admission class of an async submission: [Low] is sheddable under an
    SLO, [High] never sheds. *)

type t

val create :
  ?shards:int ->
  ?fuse:bool ->
  ?pool:bool ->
  ?hotcache:bool ->
  ?slo_us:int ->
  Harness.Factories.Spec.t ->
  t
(** Build a service from a spec; one store per shard via
    {!Harness.Factories.make}. [shards] (default the spec's [shards]
    knob, default 1), [fuse] (spec's [fuse], default [true]), [pool]
    (spec's [pool], default off), [hotcache] (spec's [hotcache], default
    off) and [slo_us] (spec's [slo_us], default none) override the spec.
    The pool starts no domains: clients drain the queues in {!await}.
    @raise Invalid_argument if the shard count is below 1, or [slo_us]
    is set without the pool. *)

val label : t -> string
val shards : t -> int

val shard_of_key : t -> int -> int
(** Deterministic routing: which shard owns a key. *)

(** {1 Request paths} *)

val exec : t -> thread:int -> Harness.Store.op -> Harness.Store.reply
(** Route and run one operation under the owning shard's shared gate.
    Scans span shards: they decompose into per-shard probe batches and
    merge, interval-linearized like {!Harness.Store_intf.S.scan}. *)

val exec_batch : t -> thread:int -> Harness.Store.op array -> Harness.Store.reply array
(** Group a batch by shard and run each shard's sub-batch as one
    {!Harness.Store.batch} — a single fused transaction per shard when
    the service fuses. Replies return in request order. The batch is
    atomic per shard, not across shards; use {!multi} for that. *)

type multi_result =
  | Committed of Harness.Store.reply array
  | Aborted of int
      (** index of the first operation whose precondition failed
          (insert of a present key / remove of an absent key); no effect
          was applied *)

val multi : t -> thread:int -> Harness.Store.op array -> multi_result
(** Cross-shard atomic multi-key operation (two-phase commit). [Get]s are
    answered from the prepare phase; [Insert]/[Remove] preconditions are
    all checked before any write applies.
    @raise Invalid_argument on scans, or two writes to the same key. *)

(** {1 Asynchronous submission}

    With the pool on, {!submit} enqueues a same-shard operation group on
    the owning shard's bounded queue and returns immediately. The
    clients that wait drain the queues: in {!await}, whoever takes the
    shard's drain flag runs the queue head, its own requests and other
    clients', as one fused transaction. Without the pool (or for groups
    the queues cannot carry — scans, cross-shard batches) {!submit}
    degrades to the synchronous paths and returns an already-completed
    ticket, so callers are written once. *)

type ticket =
  | Done of Harness.Store.reply array
      (** answered synchronously: cache hit, pool off, or cross-shard
          fallback *)
  | Queued of Pool.ticket  (** in a shard queue; redeem with {!await} *)
  | Shed of int
      (** rejected by admission control; {!await} yields that many
          [Overload] replies *)

val submit :
  t -> thread:int -> ?priority:priority -> Harness.Store.op array -> ticket
(** [priority] defaults to [High] (never shed). A lone cache-hit [Get]
    completes inline without touching a queue, a gate, or a
    transaction. *)

val await : t -> ticket -> Harness.Store.reply array
(** Redeem a ticket, draining the shard's queue under the submitting
    thread until the group has run. Call it from the thread that
    submitted the ticket. *)

val try_await : t -> ticket -> Harness.Store.reply array option
(** Like {!await}, but drains at most one fused batch; [None] if the
    group has still not run. *)

val note_lag : t -> int -> unit
(** Report an observed open-loop schedule lag (ns) to the admission
    controller. *)

val queue_depth : t -> shard:int -> int
val queued : t -> int

val pooled : t -> bool
(** Was this service created with the pool? Callers that want
    every operation to flow through the queues (the soak churn driver)
    switch on this rather than on the spec. *)

val overloaded : t -> shard:int -> bool
(** Would a [Low] submission for [shard] be shed right now? *)

val shutdown : t -> unit
(** Run whatever is still queued (submitted but never awaited) on the
    calling domain's thread. Idempotent; a no-op without the pool. Run
    before {!drain}/{!check} on pooled services. *)

val cache_hit_rate : t -> float
(** Hot-cache hit rate ([0.] without the cache). *)

val recover : t -> int
(** Resolve intents abandoned by dead threads: complete the undo of every
    applied sub-operation, disambiguate in-flight ones by probing the
    (still-gated) shard, release the dead threads' gates. Must run from a
    registered thread with the service otherwise quiescent. Returns the
    number of intents resolved. DST kill-paths rely on this: a thread
    abandoned mid-2PC leaves its gates and intent in place rather than
    running transactions during unwinding. *)

(** {1 Whole-service views} *)

val counters : t -> (string * int) list
(** Router counters (singles, batches, multis, multi_aborts, recovered)
    plus, when the layers are on, the pool's queue/shed counters
    ({!Pool.counters}) and the cache's hit/miss/invalidation counts
    ({!Hotcache.stats}). *)

val finalize_thread : t -> thread:int -> unit
val drain : t -> unit
val size : t -> int
val contents : t -> int list

val check : t -> (unit, string) result
(** Every shard's structural check, plus service invariants: no
    unresolved intent, no held gate, no misrouted key. *)

val pool_live : t -> int option
val max_backlog : t -> int option
val leaked : t -> int option

val as_store : t -> Harness.Store.t
(** The service packed as a store: anything that drives a {!Harness.Store.t}
    (the benchmark driver and its serialization checker included) can
    drive a sharded service unchanged. *)
