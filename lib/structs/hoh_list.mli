(** The paper's Listing 5: a sorted singly linked integer set traversed
    with hand-over-hand transactions.

    Operations share one [Apply] skeleton: traverse at most [W] nodes per
    transaction (the first window is scattered to 1..W), hand the traversal
    over by reserving the window's last node, and run the matching
    found/not-found action in the final transaction. The {!Mode.kind}
    selects the reservation/reclamation policy; [Htm] turns the same code
    into the single-transaction baseline (unbounded window, no
    reservations, serial fallback on repeated aborts). *)

type t

val create :
  mode:Mode.kind ->
  ?window:int ->
  ?scatter:bool ->
  ?adaptive:bool ->
  ?fusion:int ->
  ?strategy:Mempool.strategy ->
  ?rr_config:Rr.Config.t ->
  ?hp_threshold:int ->
  ?max_attempts:int ->
  unit ->
  t
(** [window] defaults to 8 (the paper's best list setting at high thread
    counts); [scatter] to [true]; [adaptive] to [false] (when set, the
    per-thread window controller of {!Rr.Hoh.Window} adjusts the live
    budget from contention feedback, with [window] as the starting point);
    [fusion] to 1 (off; [k > 1] lets clean commits fuse up to [k]
    consecutive windows into one transaction — see {!Rr.Hoh.Window});
    [strategy] to {!Mempool.Thread_arena};
    [max_attempts] to the TM default (the paper uses 2 for lists). *)

val name : t -> string

(** All operations may be called concurrently from registered TM threads.
    [thread] is the caller's {!Tm.Thread} id (used for pool placement and
    hazard slots). Keys must be greater than [min_int + 1]. *)

val insert : t -> thread:int -> int -> bool
val remove : t -> thread:int -> int -> bool
val lookup : t -> thread:int -> int -> bool

(** Stamped variants additionally return the operation's linearization
    stamp (the commit stamp of its final transaction), for the
    serialization checker. *)

val insert_s : t -> thread:int -> int -> bool * int
val remove_s : t -> thread:int -> int -> bool * int
val lookup_s : t -> thread:int -> int -> bool * int

val finalize_thread : t -> thread:int -> unit
(** Per-worker cleanup (clears hazard slots, scans once). *)

val drain : t -> unit
(** Global deferred-reclamation drain; call after all workers quiesce. *)

(** Quiescent inspection — only meaningful with no concurrent operations. *)

val to_list : t -> int list
(** Keys in list order. The walk stops at a node whose [next] points back
    at itself (a corrupt link {!check} reports), so it always returns. *)

val size : t -> int

val check : t -> (unit, string) result
(** Structural invariants: strictly sorted keys, no logically-deleted
    node linked, every linked node live in the pool. A freed node fails
    on the deletion mark its poison writes, or else on the pool. *)

val pool_stats : t -> Mempool.Stats.t

val pool_live : t -> int
(** O(1) live-slot count ([Mempool.live]) for backlog sampling. *)

val hazard_metrics : t -> Reclaim.Hazard.metrics option
val window_size : t -> int

val fuse_budget : t -> thread:int -> int
(** [thread]'s live window-fusion budget ({!Rr.Hoh.Window.fuse_budget});
    observability for tests of the shrink-on-abort controller. *)
