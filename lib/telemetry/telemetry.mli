(** Transaction telemetry: abort attribution, latency histograms, gauges,
    and machine-readable reports.

    The paper's evaluation explains throughput differences by {e where}
    retries and time go — abort causes, fallback frequency, reclamation
    backlog — not by end throughput alone. This subsystem makes those
    quantities observable across the whole stack:

    - the TM records per-thread, allocation-free latency histograms for
      attempts, committed operations and serial fallbacks, and attributes
      each abort to a (site, cause, tvar) triple;
    - pools, reservation instances and reclaimers register {!Gauges}
      providers when telemetry is enabled;
    - {!Report.snapshot} aggregates everything after quiescence and
      renders a human table or JSON ([hohtx-telemetry/1]).

    The master switch is {b off by default}: with telemetry disabled the
    instrumented hot path costs one atomic load per [Tm.atomic] call, and
    components register nothing. Enable it {e before} constructing the
    structures you want gauges for. *)

module Json = Tel_json
module Histogram = Tel_hist
module Counters = Tel_counters
module Attribution = Tel_attr
module Gauges = Tel_gauges
module Report = Tel_report

val enabled : unit -> bool
val set_enabled : bool -> unit

val max_threads : int
(** Capacity of the per-thread slot table; the TM's thread-id space must
    fit in it. *)

(** The per-thread recording surface the TM writes into. *)
type slot = Tel_state.slot = {
  attempts : Tel_hist.t;  (** latency of every speculative attempt *)
  ops : Tel_hist.t;  (** whole committed operation, retries included *)
  serial : Tel_hist.t;  (** serial-fallback executions *)
  attr : Tel_attr.t;  (** abort attribution *)
}

val slot : int -> slot
(** The slot for a TM thread id, created on first use. Only the owning
    thread may write through it. *)

val reset_slots : unit -> unit
(** Start a fresh measurement window. Call while workers are quiescent. *)

val now_ns : unit -> int
(** Monotonic nanoseconds ([clock_gettime(CLOCK_MONOTONIC)] underneath,
    see {!Tel_state.now_ns}): only differences are meaningful. *)
