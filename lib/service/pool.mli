(** Per-shard request queues drained by combining: a combining stack
    per shard and fused batched transactions. A queue holds only the
    requests queued on it. Admission control is the service's: a shed
    arrival never reaches a queue.

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

type ticket
(** A pending submission: its completion cell, its shard, and the TM
    thread that submitted it. *)

val create :
  shards:int ->
  exec:(shard:int -> thread:int -> Harness.Store.op array -> Harness.Store.reply array) ->
  unit ->
  t
(** A shard counts as full at 1024 queued requests, and one drained
    batch fuses at most 64 operations. *)

val submit :
  t -> shard:int -> thread:int -> Harness.Store.op array -> ticket
(** Enqueue an operation group on [shard]'s queue for the registered TM
    thread [thread]. A full queue first drains the shard under [thread],
    or waits for the client draining it: backpressure, not overload. The
    bound is soft: submitters that find room together may all push. *)

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

val queue_depth : t -> shard:int -> int

val depth : t -> int
(** Total queued requests across shards. *)

val counters : t -> (string * int) list
(** [queue_depth], [queue_max_depth], [drained_requests],
    [drained_batches]. *)
