(** The multi-domain benchmark driver.

    Pre-fills the structure to the spec's ratio, releases all worker
    domains from a barrier, runs the op mix, and gathers throughput, TM
    statistics, reclamation metrics, and correctness verdicts. *)

type result = {
  impl : string;
  spec : Workload.spec;
  elapsed_s : float;
  total_ops : int;
  throughput : float;  (** operations per second, all threads *)
  tm : Tm.Stats.t;  (** aggregated over worker threads *)
  size_after : int;
  verdict : (unit, string) Stdlib.result;
      (** structural invariants + size accounting + (when available)
          commit-stamp serializability of the whole run *)
  pool_live : int option;
  max_backlog : int option;
  leaked : int option;
  telemetry : Telemetry.Report.t option;
      (** post-quiescence snapshot of the measurement window (latency
          histograms, abort attribution, gauges); [Some] iff
          {!Telemetry.enabled} was on when the run started *)
  san : (string * int) list option;
      (** per-rule TxSan violation counts ({!San.violations} order);
          [Some] iff the run was started with [~san:true] *)
}

val run : ?verify:bool -> ?san:bool -> Workload.spec -> Store.t -> result
(** [verify] (default [true]) logs every operation and runs the
    serialization checker; disable it for pure throughput timing. [san]
    (default [false]) runs with the TxSan sanitizer enabled in [Count]
    mode (reset before prefill, disabled again after drain) and fills the
    result's [san] field. The calling domain must be TM-registered. *)

val timed : int -> (int -> thread:int -> unit -> 'a) -> float * 'a list
(** [timed n work] runs [n] workers, each on its own TM-registered
    domain. Worker [d] first calls [work d ~thread], its untimed setup,
    and checks in at a two-phase start barrier; the clock starts once
    every worker has checked in, and only then does each run the thunk
    its setup returned. Returns the seconds from that start to the last
    join, and the thunks' results in worker order. *)

val abort_rate : result -> float
(** Aborts per started transaction attempt. *)

val pp_result : Format.formatter -> result -> unit
