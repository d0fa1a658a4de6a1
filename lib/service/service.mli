(** The sharded KV service layer.

    A keyspace partitioned across N shards, each a complete independent
    stack (its own {!Mempool}, its own HOH structure, its own telemetry)
    built from one {!Harness.Factories.Spec}, fronted by a router:

    - keys hash to shards deterministically ({!shard_of_key});
    - single-key operations and same-shard batches run on the owning
      shard's store, concurrently — the store's transactions provide
      their isolation;
    - a cross-shard multi-key operation ({!multi}) is one TM transaction
      over the involved shards' stores, under the same retry-then-serial
      policy as any other transaction: other threads observe all of it or
      none of it, and a write that does not apply abandons it with
      nothing applied.

    All shards share the TM and its global commit clock, so a multi's one
    commit stamp orders it against all other stamped operations, and the
    whole service history remains checkable by
    {!Harness.Serial_check} (DESIGN.md, decision 10).

    Three optional layers ride in front of the router (DESIGN.md,
    decision 13): per-shard bounded request queues behind an async
    {!submit}/{!await} path, drained by the awaiting clients themselves
    ({!Pool}), a versioned hot-key read cache whose hits skip the
    transaction entirely ({!Hotcache}), and SLO admission control: a
    [Low] submission that arrives more than a twentieth of the SLO late
    is shed with {!Harness.Store_intf.Overload} replies. *)

(** The hot cache, re-exported: the service library is wrapped behind
    this module, so white-box tests reach {!Hotcache} through this
    alias. *)
module Hot_cache : module type of struct
  include Hotcache
end

type priority = High | Low
(** Admission class of a submission: [Low] is sheddable under an SLO,
    [High] never sheds. *)

type t

val create : Harness.Factories.Spec.t -> t
(** Build a service from a spec; one store per shard via
    {!Harness.Factories.make}. The spec's service knobs: [shards]
    (default 1), [fuse] (default [true]), [pool] (default off),
    [hotcache] (default off) and [slo_us] (default none; with or without
    the pool). The pool starts no domains: clients drain the queues in
    {!await}.
    @raise Invalid_argument if the shard count is below 1 (rejected by
    [Spec.v] already; a record update can bypass it). *)

val label : t -> string
val shards : t -> int

val shard_of_key : t -> int -> int
(** Deterministic routing: which shard owns a key. *)

(** {1 Request paths} *)

val exec : t -> thread:int -> Harness.Store.op -> Harness.Store.reply
(** Route and run one operation on the owning shard's store. Scans span
    shards: they decompose into per-shard probe batches and
    merge, interval-linearized like {!Harness.Store_intf.S.scan}. *)

val exec_batch : t -> thread:int -> Harness.Store.op array -> Harness.Store.reply array
(** Group a batch by shard and run each shard's sub-batch as one
    {!Harness.Store.batch} — a single fused transaction per shard when
    the service fuses. Replies return in request order. The batch is
    atomic per shard, not across shards; use {!multi} for that. *)

type multi_result =
  | Committed of Harness.Store.reply array
  | Aborted of int
      (** index of the first write that did not apply (insert of a
          present key / remove of an absent key); no effect was
          applied *)

val multi : t -> thread:int -> Harness.Store.op array -> multi_result
(** Cross-shard atomic multi-key operation: one transaction
    ([~site:"service.multi"]) that runs the [Insert]/[Remove]s in array
    order, each its own precondition check, and then the [Get]s, which
    see the writes. Every reply of a committed multi carries the
    transaction's one commit stamp. The caches of the written shards are
    invalidated after the commit. An exception from a store (an injected
    fault, a DST kill) abandons the transaction with nothing applied and
    propagates.
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
  t ->
  thread:int ->
  ?priority:priority ->
  ?sojourn_ns:int ->
  Harness.Store.op array ->
  ticket
(** [sojourn_ns] (default 0) is how late the caller issues this arrival
    against its own schedule. Under an SLO, an arrival whose sojourn is
    above a twentieth of the SLO is shed ([Shed], nothing runs) when
    [priority] is [Low], and runs, counted as [deferred_high], when it
    is [High] (the default). The check reads no clock and no shared
    state, and comes before the cache and the choice of path, so it
    holds with or without the pool. A lone [Get] is looked up in the hot
    cache once: a hit completes inline without touching a queue or a
    transaction, and a miss runs (or queues) without a second lookup. *)

val await : t -> ticket -> Harness.Store.reply array
(** Redeem a ticket, draining the shard's queue under the submitting
    thread until the group has run. Call it from the thread that
    submitted the ticket. *)

val try_await : t -> ticket -> Harness.Store.reply array option
(** Like {!await}, but drains at most one fused batch; [None] if the
    group has still not run. *)

val queue_depth : t -> shard:int -> int
val queued : t -> int

val pooled : t -> bool
(** Was this service created with the pool? Callers that want
    every operation to flow through the queues (the soak churn driver)
    switch on this rather than on the spec. *)

val shutdown : t -> unit
(** Run whatever is still queued (submitted but never awaited) on the
    calling domain's thread. Idempotent; a no-op without the pool. Run
    before {!drain}/{!check} on pooled services. *)

val cache_hit_rate : t -> float
(** Hot-cache hit rate ([0.] without the cache). *)

(** {1 Whole-service views} *)

val counters : t -> (string * int) list
(** Router counters (singles, batches, multis, multi_aborts), the
    admission counters (shed_low, deferred_high, and shed_high, which
    is always 0) plus, when the layers are on, the pool's queue counters
    ({!Pool.counters}) and the cache's hit/miss/invalidation counts
    ({!Hotcache.stats}). *)

val finalize_thread : t -> thread:int -> unit
val drain : t -> unit
val size : t -> int
val contents : t -> int list

val check : t -> (unit, string) result
(** Every shard's structural check, plus service invariants: nothing
    still queued, no misrouted key. *)

val pool_live : t -> int option
val max_backlog : t -> int option
val leaked : t -> int option

val as_store : t -> Harness.Store.t
(** The service packed as a store: anything that drives a {!Harness.Store.t}
    (the benchmark driver and its serialization checker included) can
    drive a sharded service unchanged. *)
