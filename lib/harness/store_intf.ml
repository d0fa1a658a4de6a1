(** The first-class store interface.

    Every set implementation in the repository — the six HOH structures,
    the lock-free baselines — is served to the driver, the benchmarks and
    the sharded service through this module type, a typed API:

    - operations return a {!reply} whose {!outcome} is a variant, not a
      bare [bool], so callers distinguish "insert succeeded" from
      "key already present" without decoding tuple conventions;
    - {!S.batch} is an explicit batch entry point (the unit the service
      router amortizes per shard), with an optional fused mode that runs
      the whole batch as one irrevocable transaction;
    - {!S.stats} exposes a telemetry snapshot hook so a store can be asked
      for its measurement-window report uniformly.

    Implementations are packed with [Store.pack] into the existential
    [Store.t], so heterogeneous stores remain interchangeable values. *)

(** Operation result. [Keys] carries a scan's hits; the other constructors
    are the typed split of the old boolean (success/failure per class of
    operation). *)
type outcome =
  | Found  (** get: key present *)
  | Absent  (** get: key not present *)
  | Inserted  (** insert: key was added *)
  | Duplicate  (** insert: key already present, nothing changed *)
  | Removed  (** remove: key was deleted *)
  | Missing  (** remove: key not present, nothing changed *)
  | Keys of int list  (** scan: present keys of the range, ascending *)
  | Overload
      (** service admission control shed the request before execution;
          carries zero stamps and never enters a serialization history *)

type reply = {
  outcome : outcome;
  earliest : int;
      (** earliest stamp at which the operation may linearize; equal to
          [stamp] for point operations other than the doubly-linked-list
          strict fast-fail (see {!Serial_check}) *)
  stamp : int;  (** commit stamp of the operation's final transaction *)
}

(** A request, as routed and batched by the service layer. *)
type op =
  | Get of int
  | Insert of int
  | Remove of int
  | Scan of { low : int; count : int }
      (** present keys in [[low, low + count)] *)

module type S = sig
  type t

  val name : t -> string

  val stamped : t -> bool
  (** Whether replies carry real linearization stamps (the transactional
      structures) or zeros (the lock-free baselines, which the
      serialization checker skips). *)

  val get : t -> thread:int -> int -> reply
  val insert : t -> thread:int -> int -> reply
  val remove : t -> thread:int -> int -> reply

  val scan : t -> thread:int -> low:int -> count:int -> reply
  (** Interval-linearized range read: per-key membership probes whose
      replies span [[earliest, stamp]]; each individual probe is
      serializable but the range is not a single snapshot. For an atomic
      snapshot, issue the scan inside a fused {!batch}. *)

  val batch : t -> thread:int -> fuse:bool -> op array -> reply array
  (** Execute the operations in order. With [fuse:false] each runs as its
      own (windowed) transaction sequence. With [fuse:true] and more than
      one operation, the whole batch runs as {e one irrevocable serial
      transaction}: every reply carries the same commit stamp and the batch
      is a single serialization point. An enclosing transaction is
      abort-safe (an insert's spare goes back through {!Tm.on_abort}), but
      the fused batch still runs serially: the service's scans are fused
      batches of full-structure lookups, which rarely survive a
      speculative attempt (see DESIGN.md, decision 10). *)

  val stats : t -> Telemetry.Report.t
  (** Post-quiescence telemetry snapshot, labelled with [name]. *)

  val finalize_thread : t -> thread:int -> unit
  val drain : t -> unit

  (** Quiescent inspection — only meaningful with no concurrent ops. *)

  val size : t -> int
  val contents : t -> int list
  val check : t -> (unit, string) result
  val pool_live : t -> int option
  val max_backlog : t -> int option
  val leaked : t -> int option
end
