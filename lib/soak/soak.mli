(** Adversarial soak harness: scripted churn phases plus two adversaries
    — a stalled reader and a mid-commit/mid-2PC crash — over any
    {!Harness.Factories.Spec} (or the sharded service router), with a
    reclamation-backlog oracle built on {!Mempool.live} accounting.

    The harness exists to measure the paper's headline contrast rather
    than assert it: precise RR reclamation bounds unreclaimed garbage
    where an amortized scheme (EBR) can be wedged forever by one stalled
    reader. Churn phases run on real domains (thread join/leave flows
    through the watermark quiescence: every worker finalizes and its id
    is recycled between phases); the adversaries run under the DST
    virtual scheduler so a kill mid-commit is a deterministic, replayable
    event. Every failure carries a one-line reproduction command. *)

(** {1 Churn-phase scripts} *)

type shape =
  | Grow  (** insert-heavy wave: 70% insert / 10% remove / 20% lookup *)
  | Shrink  (** remove-heavy wave: 10% / 70% / 20% *)
  | Storm of float
      (** hot-key storm: balanced 30/30/40 mix with Zipfian keys at the
          given theta ({!Harness.Workload.Zipf}) *)
  | Mix of int
      (** steady state: the given lookup percentage, remainder split
          evenly between inserts and removes, uniform keys *)

type phase = { shape : shape; threads : int; ops : int (** per thread *) }

val shape_name : shape -> string

val print_phases : phase list -> string
(** Compact script form, e.g. ["grow:4x500,storm:2x800@0.99,mix:2x400@50"]
    — [shape:THREADSxOPS], with [@theta] for storms and [@lookup_pct] for
    mixes. Round-trips through {!parse_phases}. *)

val parse_phases : string -> (phase list, string) result

val gen_ops :
  seed:int ->
  key_bits:int ->
  phase_index:int ->
  thread:int ->
  phase ->
  Harness.Store.op array
(** The deterministic per-thread operation script: a pure function of
    (seed, key range, phase position, worker index, phase). Same inputs
    produce the identical array — the property that makes [@soak-smoke]
    replays exact (pinned by a qcheck test). *)

val repro :
  scenario:string ->
  seed:int ->
  ?key_bits:int ->
  ?phases:phase list ->
  Harness.Factories.Spec.t ->
  string
(** The one-line reproduction command embedded in every failure report
    and artifact: [main.exe soak --seed N --key-bits B --phases S --spec
    'JSON'] for churn runs ([scenario = "churn"]), [--scenario NAME]
    otherwise. *)

(** {1 Churn runner (real domains)} *)

type phase_result = {
  p_shape : string;
  p_threads : int;
  p_ops : int;  (** total operations completed in the phase *)
  p_elapsed_s : float;
  p_throughput : float;
  p_slo_violations : int;  (** operations slower than the SLO *)
  p_live_hwm : int;  (** max {!Mempool.live} sample during the phase *)
  p_backlog : int;
      (** reclaimable-but-unreclaimed slots at phase quiescence: the
          drop in pool-live across a full [Store.drain] — exactly what
          the reclaimer was still holding when every worker had left *)
}

type churn_result = {
  c_label : string;
  c_phases : phase_result list;
  c_san : (string * int) list;  (** TxSan Count-mode per-rule totals *)
  c_serial : (unit, string) result Stdlib.Option.t;
      (** [Some] iff [verify]: commit-stamp serializability of the logged
          history ({!Harness.Serial_check}) *)
  c_check : (unit, string) result;  (** structural check after the run *)
  c_leaked : int;  (** pool slots unaccounted for after the final drain *)
  c_repro : string;
}

val churn_failed : churn_result -> string option
(** [Some msg] when any oracle failed; [msg] ends with the repro line. *)

val run_churn :
  ?service:bool ->
  ?verify:bool ->
  ?slo_us:int ->
  seed:int ->
  key_bits:int ->
  phases:phase list ->
  Harness.Factories.Spec.t ->
  churn_result
(** Drive the spec through the phase script. [service] (default: on iff
    the spec's [shards] knob exceeds 1) routes every operation through
    {!Service.as_store}. [verify] (default true) logs each operation with
    its commit stamp and replays the whole history through the
    serializability checker (skipped for unstamped stores). [slo_us]
    (default 1000) is the per-operation latency SLO. The calling domain
    must be TM-registered. *)

(** {1 DST adversaries}

    Both scenarios reset thread ids and run under {!Dst.Sched.run}; call
    them only when no other domain is executing instrumented code. *)

type stall_result = {
  s_label : string;
  s_samples : int array;
      (** backlog trajectory: pool-live minus baseline after each churn
          round, while the reader is parked at a {!Dst.Hoh_handoff} *)
  s_hwm : int;  (** high-water mark of the trajectory *)
  s_final_backlog : int;
      (** what the final drain reclaimed after the parked reader was
          finalized — the wedged garbage the reader was pinning *)
  s_error : string option;  (** [Some] on any oracle failure, with repro *)
  s_repro : string;
}

val stalled_reader :
  ?rounds:int -> ?keys:int -> seed:int -> Harness.Factories.Spec.t -> stall_result
(** Park a reader mid-traversal (delay-armed at its own thread's
    [Hoh_handoff]) while one churn thread runs [rounds] remove/insert
    pairs on a disjoint key, sampling pool-live after each round. Under
    RR every round's free lands immediately and the trajectory stays at
    the baseline; under EBR the parked reader blocks epoch advance and
    the trajectory grows by one slot per round (the [epoch.mli] caveat,
    measured). After the run the killed reader is finalized, accounting
    must balance exactly, and the structure must pass its check. *)

type crash_result = {
  k_label : string;
  k_scenario : string;  (** ["crash-commit"] or ["crash-2pc"] *)
  k_recovered : int;  (** 2PC intents resolved by {!Service.recover} *)
  k_serial_ok : bool;  (** survivor history passes {!Harness.Serial_check} *)
  k_leaked : int;  (** pool slots unaccounted after recovery; must be 0 *)
  k_error : string option;
  k_repro : string;
}

val crash_mid_commit : seed:int -> Harness.Factories.Spec.t -> crash_result
(** Kill a remover parked at its window transaction's commit entry
    ([Tm_commit], thread-scoped arm) while a survivor thread keeps
    committing logged operations. The victim's buffered writes must
    vanish (survivor history serializes against the untouched initial
    contents), and after finalizing the victim no pool slot may leak. *)

val crash_mid_2pc :
  seed:int -> Harness.Factories.Spec.t -> crash_result
(** Kill a thread between the apply sub-steps of a cross-shard multi
    ([Svc_apply]); {!Service.recover} must roll the applied prefix back
    to all-or-nothing contents with exact pool accounting, also after the
    victim's thread is finalized and the service drained. The spec's
    [shards] knob must be at least 2. *)

(** {1 Telemetry} *)

val backlog_gauge : unit -> unit
(** Register (idempotently) the ["soak"/"backlog"] gauge publishing the
    churn runner's latest pool-live sample, high-water mark and quiesced
    backlog; no-op unless {!Telemetry.enabled}. The runner calls this
    itself when telemetry is on. *)
