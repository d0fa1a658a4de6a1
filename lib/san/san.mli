(** TxSan: a runtime transactional sanitizer for the TM / RR / reclamation
    protocol stack, in the spirit of TSan/ASan.

    TxSan keeps shadow state per tvar and per mempool slot (last committed
    writer, version-lock holder, reservation holders, freed-at timestamp and
    site, allocation generation) and checks every hooked event against the
    hand-over-hand discipline the paper assumes. The hooks live in [Tm]
    (read / write / lock / commit / abort / serial), the six RR
    implementations (reserve / check / revoke, via the [Rr_intf.instantiate]
    funnel), [Mempool] (alloc / free), [Reclaim.Hazard] / [Reclaim.Epoch]
    (protect / retire / enter / leave), and the [Hoh] window engine
    (hand-off / finish).

    Like [Dst], the sanitizer costs one relaxed bool load per hook when
    disabled — the hooks follow the exact [if !on then slow_path] pattern of
    the DST yield points and share their overhead budget. When enabled, all
    shadow updates run under one global mutex: TxSan trades throughput for
    precision, which is measured and recorded by [bench_scaling]'s [san]
    probe.

    Checks that fire inside a transaction are made {e abort-aware}: rules
    that a doomed-but-not-yet-aborted transaction could trip spuriously
    (reserving a node that was freed under the transaction's snapshot) are
    buffered with the transaction's RR protocol events and only delivered if
    the transaction commits; an abort discards them together with the
    buffered reservations. Rules that are provably impossible in a clean
    execution (validated read of a slot freed before the snapshot, carried
    pointer dereferenced before any RR check) are delivered eagerly at the
    faulting access. *)

type rule =
  | Use_after_free
      (** TM or raw access to a freed slot; a reservation committed against
          a snapshot in which the node was freed or recycled. *)
  | Unchecked_carry
      (** Window-protocol violation: a pointer carried across a hand-off was
          dereferenced in the new window without a successful RR check (or a
          skiplist hint was dereferenced without revalidation). *)
  | Reservation_leak
      (** A thread finished a window sequence, or exited the run, with live
          reservations / hazard publications / epoch announcements. *)
  | Double_revoke
      (** Double revoke, revoke-after-free, double retire, retire-after-free
          — reclamation ordering violations. *)
  | Lock_leak  (** A version lock still held after commit or abort. *)
  | Non_txn_access
      (** Non-transactional write to a tvar while a transaction holds its
          version lock. *)
  | Stale_read
      (** A transactional read validated against a snapshot that straddles
          an in-flight serial (irrevocable) writer — the serial-fallback
          publication race of DESIGN.md bug #1. *)
  | Stale_cache_hit
      (** A service hot-cache hit returned a value older than the last
          committed write stamp of its cache slot — a write committed
          without invalidating the slot (DESIGN.md bug #5). *)

val all_rules : rule list
val rule_id : rule -> string
(** Stable slug: ["use-after-free"], ["unchecked-carry"],
    ["reservation-leak"], ["double-revoke"], ["lock-leak"],
    ["non-txn-access"], ["stale-read"], ["stale-cache-hit"]. *)

type event = {
  what : string;  (** "alloc" / "free" / "reserve" / "revoke" / ... *)
  thread : int;
  site : string;  (** PR-1 telemetry site label of the acting transaction *)
  stamp : int;  (** global-clock sample when the event was recorded *)
}

type report = {
  rule : rule;
  thread : int;  (** thread that tripped the rule *)
  site : string;  (** site label of the faulting access *)
  subject : string;  (** "node #k" / "tvar #u (node #k)" / "tvars #..." *)
  detail : string;
  history : event list;  (** shadow history of the offending slot, oldest first *)
}

exception Violation of report

val pp_report : Format.formatter -> report -> unit
val report_to_string : report -> string

(** How violations are delivered. [Raise] (the default) raises {!Violation}
    at the faulting access — right for DST replays and unit tests. [Count]
    only increments the per-rule counters — right for parallel benchmark
    runs, where the shadow race windows of a multi-domain execution could
    otherwise turn a nanosecond-level ambiguity into a crash. *)
type mode = Raise | Count

val set_enabled : ?mode:mode -> bool -> unit
(** Turn the sanitizer on or off. Enabling registers a ["san"] gauge group
    with [Telemetry] when telemetry is active. Does not clear shadow state;
    call {!reset} for a fresh run.
    @raise Failure ("TxSan: tvar uid space exhausted ...") when enabling
    after {!uid_space_exhausted}: shadow state is keyed by tvar uid. *)

val uid_space_exhausted : bool -> unit
(** Called by [Tm] with [true] whenever it makes a tvar after 2^18 others,
    whose 18-bit uid therefore repeats an earlier one's; with [false] only
    from [Tm]'s test-only uid-counter setter. While the flag is set,
    {!set_enabled}[ true] raises. If the sanitizer is on when it is set,
    it turns itself off and raises [Failure] ("TxSan: tvar uid space
    exhausted ..."): from then on two tvars could share one shadow
    entry. *)

val enabled : unit -> bool
(** One relaxed bool load; hook call sites that must materialize arguments
    (tvar-id lists, site strings) guard on this before paying for them. *)

val reset : unit -> unit
(** Drop all shadow state and zero the violation counters. *)

val violations : unit -> (string * int) list
(** Per-rule violation counts, in {!all_rules} order, including zeros. *)

val total_violations : unit -> int
val last_report : unit -> report option

(** {2 Identity}

    Slot identities are dense ints; every pool-like component (mempool,
    hazard domain, epoch domain) draws a distinct group id so that per-pool
    node ids from different pools never collide in the shadow tables. *)

val fresh_group : unit -> int
val node_key : group:int -> node:int -> int
(** [node_key] packs [(group, node)] into one int ([node] in the low 21
    bits). Negative [node] (sentinels) still yields a usable key; sentinel
    slots are never allocated from a pool, so they have no shadow entry and
    every check treats them as benign. *)

(** {2 TM hooks} *)

val tm_read : tid:int -> site:string -> rv:int -> int -> unit
(** Validated transactional read of tvar [uid] under snapshot [rv]. *)

val tm_write : tid:int -> site:string -> rv:int -> int -> unit
(** Buffered transactional write to tvar [uid]. *)

val tm_serial_write : tid:int -> site:string -> wv:int -> int -> unit
(** In-place write by the serial (irrevocable) fallback. *)

val tm_lock : tid:int -> int -> unit
(** Version lock of tvar [uid] acquired during commit. *)

val tm_unlock : tid:int -> site:string -> wv:int -> int -> unit
(** Version lock of tvar [uid] released; [wv >= 0] is the publishing commit
    version, [wv = -1] an abort-path release. *)

val tm_commit : tid:int -> site:string -> rv:int -> now:int -> unit
(** Transaction committed: checks lock leaks, applies the buffered RR
    protocol events, delivers buffered violations. [now] is the commit
    version for writers and a fresh clock sample for read-only commits. *)

val tm_begin : tid:int -> unit
(** An attempt (speculative or serial) begins: remember the thread's
    window shadow (carry, checked bit, last reservation) so an abort can
    put it back. *)

val tm_abort : tid:int -> unit
(** Clean abort ([Tm.Abort]): discards buffered events and the window
    shadow the attempt set, checks lock leaks. *)

val tm_abandon : tid:int -> unit
(** Abnormal exit (user exception, DST [Killed]): discards buffered events,
    the window shadow the attempt set and the lock shadow without
    checking. *)

val tm_serial_begin : tid:int -> wv:int -> unit
val tm_serial_end : tid:int -> unit

val nontxn_read : int -> unit
(** [Tm.peek] of tvar [uid] (lock-safe by construction, so only checked
    against use-after-free). *)

val nontxn_write : int -> unit
(** [Tm.poke] of tvar [uid]. *)

val exempt_begin : unit -> unit
val exempt_end : unit -> unit
(** Bracket sanctioned raw accesses (pool poisoning, node re-init after
    alloc) so {!nontxn_read}/{!nontxn_write} skip them. Per logical
    thread. *)

(** {2 Mempool hooks} *)

val mp_alloc : thread:int -> node:int -> tvars:int list -> stamp:int -> unit
(** Slot (re)allocated. [tvars] are the node's payload tvar uids (they map
    back to the slot in the shadow tables). *)

val mp_free :
  thread:int ->
  site:string ->
  node:int ->
  stamp:int ->
  unit

val retire : thread:int -> site:string -> node:int -> unit
(** Node handed to a deferred reclaimer (hazard or epoch). *)

(** {2 RR / window hooks} *)

val rr_reserve : tid:int -> node:int -> unit
val rr_release : tid:int -> node:int -> unit
val rr_release_all : tid:int -> unit
val rr_check_begin : tid:int -> unit
val rr_check_end : tid:int -> site:string -> node:int -> ok:bool -> unit

val probe_begin : tid:int -> unit
val probe_end : tid:int -> unit
(** Bracket the one deletion check ([Structs.Mode.t]'s [deleted]). The
    discipline sanctions that check on a possibly-freed pointer: poison
    makes it answer "deleted" and the caller drops the pointer. Reads
    inside the bracket are therefore exempt from the eager read-UAF rule;
    the same read of a freed slot outside it is a {!Use_after_free}. An
    abort closes an open bracket. *)

val rr_revoke : tid:int -> site:string -> node:int -> unit

val hint_note : tid:int -> node:int -> unit
(** A traversal recorded [node] in a carried hint array (skiplist [preds]);
    buffered and stamped with the slot generation at commit. *)

val hint_use : tid:int -> site:string -> node:int -> revalidated:bool -> unit
(** A later window dereferenced a recorded hint. [revalidated] says the
    caller is about to re-check the hint's key/level invariants
    transactionally; an unrevalidated use of a recycled hint is an
    {!Unchecked_carry} violation (DESIGN.md bug #3). *)

val window_handoff : tid:int -> unit
(** The window engine committed a hand-off: the last applied reservation
    becomes the carried pointer, unchecked until the next RR check. *)

val window_finish : tid:int -> unit
(** The window engine finished an operation: the applied reservation set
    must be empty. *)

val thread_exit : tid:int -> unit
(** Thread unregistered: live reservations / hazard publications / epoch
    announcements are reservation leaks. Never raises (it runs in
    finalizers); leaks are counted and recorded in {!last_report}. *)

(** {2 Reclaim hooks} *)

val hp_protect : group:int -> thread:int -> slot:int -> node:int -> unit
val hp_clear : group:int -> thread:int -> slot:int -> unit
val ep_enter : thread:int -> unit
val ep_leave : thread:int -> unit

(** {2 Service hot-cache hooks} *)

val cache_hit : thread:int -> shard:int -> stamp:int -> last_write:int -> unit
(** A hot-cache hit is about to serve the cached reply committed at
    [stamp]; [last_write] is the last committed write stamp of the
    entry's cache slot as published by the invalidation protocol.
    [stamp < last_write] means an invalidation was missed and the hit is
    stale ({!Stale_cache_hit}).
    Delivered eagerly — cache hits happen outside any transaction. *)
