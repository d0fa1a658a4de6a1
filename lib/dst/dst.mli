(** Deterministic schedule testing (DST).

    A controllable-interleaving harness for the TM, RR and reclamation
    layers.  Production code is threaded with {!point} yield sites that
    compile down to a single load-and-branch when the harness is inactive
    (in the release build, the default; the dev profile's [-opaque] keeps
    each a call).
    When a {!Sched.run} is active, N logical threads are multiplexed on one
    domain and driven through those sites by a virtual scheduler; every run
    is replayable from a printed seed or an explicit schedule, and failing
    schedules shrink automatically.

    The harness is single-domain by construction: while a run is active no
    other domain may execute instrumented code (tests own the process). *)

(** Instrumented yield sites. Constant constructors only (except [User]),
    so passing one to {!point} never allocates on the inactive path. *)
type site =
  | Tm_read  (** speculative read of a tvar *)
  | Tm_sample_rv  (** between the serial-clear wait and the clock sample *)
  | Tm_wait_serial  (** spinning for the serial token to clear *)
  | Tm_commit  (** commit entry, before the committing flag is raised *)
  | Tm_lock  (** before each write-set lock acquisition *)
  | Tm_gclock  (** before the commit-time global-clock bump *)
  | Tm_extend
      (** before a timestamp-extension attempt (a stale read about to
          resample the clock and revalidate; an {!Inject.Fail} arm here
          forces the extension to fail) *)
  | Tm_validate  (** before read-set validation *)
  | Tm_publish  (** before each write-back of a buffered value *)
  | Tm_serial_token  (** serial-token CAS loop *)
  | Tm_serial_quiesce  (** serial fallback waiting for in-flight committers *)
  | Tm_serial_write  (** before each direct serial-mode write *)
  | Tm_backoff  (** replaces the contention backoff between attempts *)
  | Rr_reserve
  | Rr_release
  | Rr_get
  | Rr_revoke
  | Rr_revoke_step  (** inside a revocation sweep, per node *)
  | Mp_alloc
  | Mp_free
  | Hp_protect  (** before the hazard-slot store *)
  | Hp_retire
  | Hp_scan
  | Ep_enter
  | Ep_retire
  | Ep_advance
  | Hoh_handoff  (** between the windowed transactions of one HoH op *)
  | Svc_enqueue
      (** pool submission: before a request lands in a shard queue,
          and in an await that finds another client draining *)
  | Svc_drain  (** pool drain: before a client runs the fused queue head *)
  | Svc_cache
      (** hot-cache lookup: before the slot read, so a writer's commit +
          invalidation can interleave between consecutive cached reads *)
  | User of int  (** scenario-private sites (allocates; tests only) *)

val site_name : site -> string

exception Killed
(** Raised into a paused logical thread to abandon it (end of a run). User
    code sees it as an ordinary exception: [Fun.protect] finalizers run. *)

exception Injected of site
(** Raised by instrumented production code when a {!Inject.Fail} arm fires
    at a site that models an environment fault (e.g. [Mp_alloc]). *)

val point : site -> unit
(** Yield site. No-op unless a run is active on this domain and the caller
    is a logical thread. *)

val point_fails : site -> bool
(** Like {!point}, but additionally reports whether a {!Inject.Fail} arm
    fired at this site; the caller turns [true] into its own failure
    (an abort, an allocation error, ...). Always [false] when inactive. *)

val scheduled : unit -> bool
(** True when the caller is a logical thread under an active run. *)

(** Logical-thread-local storage: Domain.DLS when no run is active,
    per-logical-thread when one is. Production code that keys state by
    domain must use this so N logical threads on one domain stay
    distinct. *)
module Tls : sig
  type 'a key

  val new_key : (unit -> 'a) -> 'a key
  val get : 'a key -> 'a
  val set : 'a key -> 'a -> unit
end

(** Fault injection, sharing the {!point} hooks. *)
module Inject : sig
  (** Re-introducible concurrency bugs documented in DESIGN.md. Each flag
      disables the corresponding production fix while a run is active:
      - [Snapshot_straddle]: bug #1 — skip the serial-token re-check after
        sampling the read version.
      - [Ro_publication]: bug #2 — skip forced commit-time validation for
        read-only transactions that publish hazard/epoch state.
      - [Stale_hint]: bug #3 — accept a recycled skiplist hint whose key or
        tower no longer matches.
      - [Stale_cache]: bug #5 — the service layer skips the hot-cache
        slot invalidation after a write commits, so cache hits can serve
        values older than the slot's last committed stamp (caught by the TxSan
        stale-cache-hit rule; see DESIGN.md decision 13). *)
  type bug =
    | Snapshot_straddle
    | Ro_publication
    | Stale_hint
    | Stale_cache

  val set_bug : bug -> bool -> unit

  val bug : bug -> bool
  (** True only while a run is active and the flag is set. *)

  val with_bug : bug -> (unit -> 'a) -> 'a

  type action =
    | Fail  (** report failure via {!point_fails} *)
    | Delay of int  (** insert [n] extra yields before proceeding *)

  val arm : ?thread:int -> ?after:int -> ?times:int -> site -> action -> unit
  (** Arm a fault at [site]: skip the first [after] eligible visits, then
      fire on the next [times] visits. [?thread] restricts the arm to one
      logical thread (the index of its body in the {!Sched.run} list), so
      an adversary can arm a hot site — [Tm_commit], [Hoh_handoff] —
      without tripping every other thread that passes it; visits by other
      threads neither fire nor consume the arm. Arms are consumed across
      runs; re-arm per attempt (a scenario's builder is the natural
      place). *)

  val clear : unit -> unit
  (** Drop all arms and bug flags. *)
end

(** The virtual scheduler. *)
module Sched : sig
  type strategy =
    | Random of int  (** uniform over runnable threads, seeded *)
    | Pct of { seed : int; depth : int }
        (** PCT: random thread priorities with [depth - 1] priority-change
            points; finds any bug of depth [d] with probability
            >= 1/(n * k^(d-1)) per run *)
    | Fixed of int array
        (** replay: step [i] runs thread [schedule.(i)] if runnable,
            otherwise (and past the end) the lowest-numbered runnable
            thread *)

  type failure =
    | Thread_raised of { thread : int; exn : exn; bt : string }
    | Check_failed of { exn : exn; bt : string }

  type outcome = {
    trace : int array;  (** thread chosen at each scheduling decision *)
    options : int array array;  (** runnable set at each decision *)
    steps : int;
    hung : bool;  (** budget exhausted before all threads finished *)
    failure : failure option;
  }

  val failed : outcome -> bool
  val pp_failure : Format.formatter -> failure -> unit
  val pp_trace : Format.formatter -> int array -> unit
  (** Prints an OCaml array literal, pasteable as a regression schedule. *)

  val run :
    ?budget:int ->
    ?init:(unit -> unit) ->
    ?check:(unit -> unit) ->
    strategy ->
    (unit -> unit) list ->
    outcome
  (** Run thread bodies under [strategy]. [init] executes to completion as
      a solo logical thread first (deterministic setup: prefills, handle
      registration). [check] runs after a clean completion; raising marks
      the outcome failed. [budget] caps scheduling decisions; exhaustion
      sets [hung] without failing. Threads still paused when the run ends
      are abandoned with {!Killed}. *)
end

(** Schedule search: seeded random / PCT sweeps and bounded exhaustive
    exploration, with automatic shrinking of failing schedules. *)
module Explore : sig
  type case = {
    init : (unit -> unit) option;
    threads : (unit -> unit) list;
    check : unit -> unit;
  }

  type scenario = unit -> case
  (** Builds a fresh instance of the scenario; called once per attempt so
      every run starts from identical state. *)

  type found = {
    seed : int option;  (** seed of the first failing run, if seeded *)
    schedule : int array;  (** minimized failing schedule *)
    failure : Sched.failure;
    runs : int;  (** total runs spent, including shrinking *)
  }

  val random_search :
    ?budget:int ->
    ?max_runs:int ->
    ?shrink_fuel:int ->
    ?seed0:int ->
    scenario ->
    found option

  val pct_search :
    ?budget:int ->
    ?max_runs:int ->
    ?shrink_fuel:int ->
    ?seed0:int ->
    ?depth:int ->
    scenario ->
    found option

  val exhaustive :
    ?budget:int ->
    ?max_runs:int ->
    ?max_depth:int ->
    ?shrink_fuel:int ->
    scenario ->
    found option
  (** Depth-first enumeration of all schedules whose first [max_depth]
      decisions differ, each completed with the deterministic default
      tail; capped at [max_runs] runs. Returns the first failure found,
      minimized. [None] means the space (or cap) was exhausted cleanly. *)

  val replay : ?budget:int -> scenario -> int array -> Sched.outcome
  (** Deterministic replay of a pinned schedule ([Fixed]). *)
end
