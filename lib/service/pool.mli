(** Per-shard request queues drained by combining: bounded MPSC rings,
    fused batched transactions, and SLO-driven admission control.

    No domain is dedicated to draining. The clients that wait on
    tickets drain the queues themselves: whoever takes a shard's drain
    flag runs one fused batch for every request at the queue head, its
    own and other clients' (flat combining). Fusion never merges two
    requests touching the same key into one batch (their replies would
    share one commit stamp and lose their order in a stamp-sorted
    history); the conflicting request is held back, still counted
    queued, and leads the next batch.

    The pool is generic over execution: {!create} takes an [exec]
    closure (run these ops against this shard) so the service layer can
    pass its [Store.batch ~fuse] path without a dependency cycle.

    {!submit} and a waiting {!await} yield at the [Svc_enqueue] DST site
    and a drain at [Svc_drain], so the race for the drain flag between
    logical client threads replays deterministically. *)

type t

type priority = High | Low
(** {!Low} requests are shed with [`Shed] when the admission controller
    projects the SLO blown; {!High} requests are always admitted (and
    counted as deferred when admitted during overload). *)

type ticket
(** A pending submission: its completion cell, its shard, and the TM
    thread that submitted it. *)

val create :
  ?slo_ns:int ->
  shards:int ->
  exec:(shard:int -> thread:int -> Harness.Store.op array -> Harness.Store.reply array) ->
  unit ->
  t
(** Each shard's ring holds 1024 requests, and one drained batch fuses
    at most 64 operations. [slo_ns] enables admission control; without
    it nothing is ever shed. *)

val submit :
  t -> shard:int -> thread:int -> priority:priority -> Harness.Store.op array ->
  [ `Ticket of ticket | `Shed ]
(** Enqueue an operation group on [shard]'s queue for the registered TM
    thread [thread]. Returns [`Shed] without executing anything when the
    controller rejects a [Low] request (SLO projected blown, or ring full
    under an SLO). A full ring otherwise drains the shard under [thread],
    or waits for the client draining it — backpressure, not overload. *)

val await : t -> ticket -> Harness.Store.reply array
(** Wait until the submission has run, draining the shard meanwhile.
    While the cell is not done, each pass either takes the shard's drain
    flag and runs one fused batch under the ticket's thread, or, when
    another client holds the flag, spins (a DST yield). Call it from the
    thread that submitted the ticket. *)

val try_await : t -> ticket -> Harness.Store.reply array option
(** Like {!await}, but makes at most one draining pass and returns
    [None] if the submission has still not run. *)

val shutdown : t -> unit
(** Drain every request still queued (nobody awaited it) on the calling
    domain's TM thread, so no admitted request is abandoned. Idempotent. *)

val note_lag : t -> int -> unit
(** Report an observed open-loop schedule lag (ns); folded into the
    admission controller's EWMA lag signal. *)

val overloaded : t -> shard:int -> bool
(** Would a [Low] arrival for [shard] be shed right now? True when
    either the queue projection or the lag EWMA exceeds half the SLO —
    the half is tail headroom: both signals track means, the SLO
    constrains a p99. *)

val projected_lag_ns : t -> shard:int -> int
(** (depth + 1) x decaying-max per-request service time. *)

val queue_depth : t -> shard:int -> int

val depth : t -> int
(** Total queued requests across shards. *)

val slo_ns : t -> int option
val lag_ewma_ns : t -> int

val counters : t -> (string * int) list
(** [queue_depth], [queue_max_depth], [drained_requests],
    [drained_batches], [shed_low], [shed_high], [deferred_high]. *)
