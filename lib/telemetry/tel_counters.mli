(** Per-thread transaction event counters — the counter backend of the
    telemetry layer (re-exported by the TM as [Tm.Stats]).

    The type is abstract: callers go through the [incr_*] bumpers and the
    named accessors, so the representation can change (padding, sharding)
    without touching call sites. Each counter record is written by exactly
    one thread and only read by others after that thread has quiesced, so
    no synchronization is needed on the hot path. *)

type t

val create : unit -> t
val reset : t -> unit

val incr_started : t -> unit
(** A transaction attempt began. *)

val incr_commits : t -> unit
(** An attempt committed. *)

val incr_aborts_read : t -> unit
(** Read-validation failure (opacity). *)

val incr_aborts_lock : t -> unit
(** Lock-busy at read or commit time. *)

val incr_aborts_serial : t -> unit
(** Backed off for a serial transaction. *)

val incr_aborts_user : t -> unit
(** Explicit user retry. *)

val incr_fallbacks : t -> unit
(** An operation escalated to global serial mode. *)

val incr_extensions : t -> unit
(** A stale read was rescued by a successful timestamp extension. *)

val incr_ext_fails : t -> unit
(** A timestamp extension was attempted but revalidation failed (the
    attempt then aborts with a read-validation failure). *)

val started : t -> int
val commits : t -> int
val aborts_read : t -> int
val aborts_lock : t -> int
val aborts_serial : t -> int
val aborts_user : t -> int
val fallbacks : t -> int

val extensions : t -> int
val ext_fails : t -> int

val add : t -> t -> unit
(** [add acc x] accumulates [x] into [acc]. *)

val total_aborts : t -> int
val copy : t -> t
val to_json : t -> Tel_json.t
val pp : Format.formatter -> t -> unit
