(** The operations every hand-over-hand structure shares.

    Each [Hoh_*] module includes this signature and adds only its
    [create] and its own extras (tree depth, the skiplist's level
    histogram). One functor in [Harness.Store] lifts the signature to
    the packed store API. *)

module type S = sig
  type t

  val name : t -> string

  (** All operations may be called concurrently from registered TM
      threads. [thread] is the caller's {!Tm.Thread} id (used for pool
      placement and hazard slots). *)

  val insert : t -> thread:int -> int -> bool
  val remove : t -> thread:int -> int -> bool
  val lookup : t -> thread:int -> int -> bool

  (** Stamped variants additionally return the operation's linearization
      stamp (the commit stamp of its final transaction), for the
      serialization checker. *)

  val insert_s : t -> thread:int -> int -> bool * int

  val remove_s : t -> thread:int -> int -> bool * int * int
  (** [(result, earliest, stamp)]: [earliest = stamp] except for the
      doubly linked list's strict fast-fail, which linearizes anywhere in
      [(earliest, stamp]] (see {!Hoh_dlist}). *)

  val lookup_s : t -> thread:int -> int -> bool * int

  val finalize_thread : t -> thread:int -> unit
  (** Per-worker cleanup (clears hazard slots, scans once). *)

  val drain : t -> unit
  (** Global deferred-reclamation drain; call after all workers quiesce. *)

  (** Quiescent inspection — only meaningful with no concurrent operations. *)

  val to_list : t -> int list
  (** Keys in ascending order. *)

  val size : t -> int

  val check : t -> (unit, string) result
  (** Structural invariants: key order, no logically deleted node linked,
      every linked node live in the pool. *)

  val pool_stats : t -> Mempool.Stats.t

  val pool_live : t -> int
  (** O(1) live-slot count ([Mempool.live]) for backlog sampling. *)

  val hazard_metrics : t -> Reclaim.Hazard.metrics option
  val window_size : t -> int

  val fuse_budget : t -> thread:int -> int
  (** [thread]'s live window-fusion budget ({!Rr.Hoh.Window.fuse_budget});
      observability for tests of the shrink-on-abort controller. *)
end
