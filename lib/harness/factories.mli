(** Named constructors for every curve in the paper's figures.

    The unified entry point is {!Spec.v} plus {!make}: a specification
    record names the structure, the concurrency-control/reclamation mode,
    and every tuning knob in one value, so benchmarks and the sharded
    service can build, print, sweep, and ({!Spec.to_json}) persist
    configurations uniformly instead of threading optional-argument
    lists. *)

type factory = { label : string; make : unit -> Store.t }

val rr_kinds : (string * Structs.Mode.kind) list
(** The six reservation implementations, as [Mode.Rr_kind]s. *)

(** A complete description of one benchmark / service configuration. *)
module Spec : sig
  type structure = Slist | Dlist | Bst_int | Bst_ext | Hashset | Skiplist

  type t = {
    structure : structure;
    kind : Structs.Mode.kind;
    window : int option;  (** hand-over-hand window budget *)
    scatter : bool option;  (** scatter window boundaries across threads *)
    adaptive : bool option;
        (** contention-adaptive per-thread window controller
            ({!Rr.Hoh.Window}); [window] is its starting budget *)
    fusion : int option;
        (** window-fusion ceiling: run up to this many consecutive clean
            windows in one transaction ({!Rr.Hoh.Window}; default 1 = off) *)
    strategy : Mempool.strategy option;
    rr_config : Rr.Config.t option;
    max_attempts : int option;  (** TM attempts before serial fallback *)
    buckets : int option;  (** [Hashset] only *)
    split_unlink : bool option;  (** [Dlist] only *)
    shards : int option;
        (** service layer: number of keyspace shards (default 1) *)
    fuse : bool option;
        (** service layer: fuse same-shard batches into one irrevocable
            transaction (see {!Store_intf.S.batch}) *)
    pool : bool option;
        (** service layer: per-shard bounded request queues behind the
            {!Service} async submission path, drained by the clients
            that await them *)
    hotcache : bool option;
        (** service layer: versioned hot-key read cache in front of the
            router, each written key's slot invalidated after its commit *)
    slo_us : int option;
        (** service layer: p99 lag SLO (microseconds) for admission
            control; low-priority requests are shed with [Overload] when
            the projection exceeds it. Requires [pool]. *)
  }

  val v :
    ?window:int ->
    ?scatter:bool ->
    ?adaptive:bool ->
    ?fusion:int ->
    ?strategy:Mempool.strategy ->
    ?rr_config:Rr.Config.t ->
    ?max_attempts:int ->
    ?buckets:int ->
    ?split_unlink:bool ->
    ?shards:int ->
    ?fuse:bool ->
    ?pool:bool ->
    ?hotcache:bool ->
    ?slo_us:int ->
    structure ->
    Structs.Mode.kind ->
    t
  (** [v structure kind] builds a spec with every knob at the structure's
      default.
      @raise Invalid_argument if [buckets] or [split_unlink] is given for a
      structure it does not apply to, [shards < 1], [fusion < 1],
      [slo_us < 1], or [slo_us] is given without [pool]. *)

  val structure_name : structure -> string
  val structure_of_name : string -> structure option

  val kind_of_name : string -> Structs.Mode.kind option
  (** Inverse of {!Structs.Mode.kind_name}: the four fixed modes plus any
      reservation implementation registered in {!Rr.all}. *)

  val label : t -> string
  (** The curve label used in reports: the mode's name, suffixed with
      ["-hash"] / ["-skip"] for the structures the paper plots separately,
      ["+fuseK"] when [fusion = Some k, k > 1], ["+pool"] / ["+hotcache"] /
      ["+sloUS"] for the service request-queue, hot-cache, and admission
      knobs, and ["/xN"] when sharded ([shards > 1]). *)

  val to_json : t -> Telemetry.Json.t
  (** Data form of a spec. The emitted object leads with a derived
      ["label"] field so documents are self-describing; only knobs that
      are [Some _] are emitted. *)

  val of_json : Telemetry.Json.t -> (t, string) result
  (** Inverse of {!to_json}. Applies the {!v} validation rules, rejects
      any key {!to_json} cannot emit (naming it in the error), and — if a
      ["label"] field is present — rejects documents whose label does not
      match the parsed spec's {!label}. *)
end

val make : Spec.t -> factory
(** Instantiate a specification as a single store. The store is built
    afresh on each [factory.make] call, so one spec can drive repeated
    runs. [shards]/[fuse] are ignored here — they configure the service
    layer, which calls [make] once per shard. *)

val lf_list : [ `Leak | `Hp ] -> factory
val nm_tree : unit -> factory

val best_window : threads:int -> int
(** The paper tunes the window per thread count: larger windows win at low
    thread counts, smaller at high counts (Sec. 5.2). *)
