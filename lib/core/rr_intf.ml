(** The revocable-reservation interface (the paper's Section 2 object).

    A revocable reservation maintains, for every thread, a set of
    references. All methods must be called from inside a transaction; their
    effects commit or roll back with it.

    The specification (Listing 1):
    - [Reserve r] adds [r] to the calling thread's set;
    - [Release r] removes it;
    - [Get r] returns [Some r] iff [r] is in the caller's set;
    - [Revoke r] removes [r] from {e every} thread's set.

    Strict implementations (RR-FA, RR-DM, RR-SA) implement this exactly.
    Relaxed implementations (RR-XO, RR-SO, RR-V) may {e spuriously} drop a
    reservation — [Get r] may return [None] even though no [Revoke r]
    occurred (because of hash collisions or competing [Reserve]s) — but
    never return [Some r] for a reference that was revoked since the
    caller's reservation. Spurious drops cost a restart, never safety. *)

module type S = sig
  type 'r t

  val name : string

  val strict : bool
  (** Whether [get] is immune to spurious invalidation. The doubly-linked
      list's separate unlink-and-revoke transaction keys off this. *)

  val local_reserve : bool
  (** Whether [reserve], [release], [release_all] and [get] write nothing
      the TM publishes, so a hand-over-hand window that only walks and
      hands off commits read-only. Such a window may run unlogged
      ({!Tm.atomic}'s [unlogged]); the window engine keys off this. *)

  val create :
    ?config:Rr_config.t ->
    hash:('r -> int) ->
    equal:('r -> 'r -> bool) ->
    unit ->
    'r t
  (** [hash] maps a reference to its metadata index (the paper hashes node
      addresses; here, pool slot ids); it may collide freely. [equal]
      decides reference identity (physical equality for pool nodes). *)

  val register : 'r t -> Tm.txn -> unit
  (** Announce the calling thread. Must precede its first use of any other
      method; idempotent, and cheap after the first call. *)

  val reserve : 'r t -> Tm.txn -> 'r -> unit
  (** Add [r] to the caller's set. No-op if already present.
      @raise Invalid_argument if the per-thread set is full
      ({!Rr_config.t.slots_per_thread}). *)

  val release : 'r t -> Tm.txn -> 'r -> unit
  (** Remove [r] from the caller's set; no-op if absent. *)

  val release_all : 'r t -> Tm.txn -> unit
  (** Empty the caller's set (Listing 5 releases its only reservation at
      every window boundary; with [K = 1] this is the common path). *)

  val get : 'r t -> Tm.txn -> 'r -> 'r option
  (** [Some r] iff the caller still holds a valid reservation on [r]. *)

  val revoke : 'r t -> Tm.txn -> 'r -> unit
  (** Remove [r] from every thread's set, so that the memory behind [r] can
      be reclaimed the moment the enclosing transaction commits. *)
end

(** A runtime handle: one implementation instantiated at a concrete
    reference type, packaged as closures so data structures and benchmarks
    can select implementations dynamically. *)
type 'r ops = {
  name : string;
  strict : bool;
  register : Tm.txn -> unit;
  reserve : Tm.txn -> 'r -> unit;
  release : Tm.txn -> 'r -> unit;
  release_all : Tm.txn -> unit;
  get : Tm.txn -> 'r -> 'r option;
  revoke : Tm.txn -> 'r -> unit;
}

let instantiate (type r) (module M : S) ?config ~(hash : r -> int)
    ?(sid : r -> int = hash) ~(equal : r -> r -> bool) () : r ops =
  let t = M.create ?config ~hash ~equal () in
  (* The single funnel every implementation's operations pass through, so
     one yield point (and one TxSan protocol hook) per method covers all
     six RRs under DST. [sid] maps a reference to its sanitizer shadow-slot
     key (pool nodes pass [Mempool.san_key]); it defaults to [hash], whose
     values simply miss the shadow tables, keeping non-pool references
     benign. A hook's [~node] key is built only under [San.enabled ()], so
     with TxSan off a hook costs its one flag load. *)
  let plain =
    {
      name = M.name;
      strict = M.strict;
      register = (fun txn -> M.register t txn);
      reserve =
        (fun txn r ->
          Dst.point Dst.Rr_reserve;
          if San.enabled () then
            San.rr_reserve ~tid:(Tm.thread_id txn) ~node:(sid r);
          M.reserve t txn r);
      release =
        (fun txn r ->
          Dst.point Dst.Rr_release;
          if San.enabled () then
            San.rr_release ~tid:(Tm.thread_id txn) ~node:(sid r);
          M.release t txn r);
      release_all =
        (fun txn ->
          Dst.point Dst.Rr_release;
          San.rr_release_all ~tid:(Tm.thread_id txn);
          M.release_all t txn);
      get =
        (fun txn r ->
          Dst.point Dst.Rr_get;
          if San.enabled () then begin
            let tid = Tm.thread_id txn in
            San.rr_check_begin ~tid;
            let res = M.get t txn r in
            San.rr_check_end ~tid ~site:(Tm.txn_site txn) ~node:(sid r)
              ~ok:(res <> None);
            res
          end
          else M.get t txn r);
      revoke =
        (fun txn r ->
          Dst.point Dst.Rr_revoke;
          if San.enabled () then
            San.rr_revoke ~tid:(Tm.thread_id txn) ~site:(Tm.txn_site txn)
              ~node:(sid r);
          M.revoke t txn r);
    }
  in
  if not (Telemetry.enabled ()) then plain
  else begin
    (* Counting wrapper, built only when telemetry was on at instantiation
       time, so the default path pays zero overhead. A [release_all], the
       window engine's release, counts as one release. Counts are per attempt
       (an aborted transaction's calls are included): [get_misses] is the
       number of [Get] calls that returned [None], an upper bound on the
       relaxed implementations' spurious drops (it also includes genuine
       revocations observed by the caller). *)
    let reserves = Atomic.make 0
    and releases = Atomic.make 0
    and revokes = Atomic.make 0
    and gets = Atomic.make 0
    and get_misses = Atomic.make 0 in
    Telemetry.Gauges.register ~group:"rr" ~name:M.name (fun () ->
        [
          ("reserves", float_of_int (Atomic.get reserves));
          ("releases", float_of_int (Atomic.get releases));
          ("revokes", float_of_int (Atomic.get revokes));
          ("gets", float_of_int (Atomic.get gets));
          ("get_misses", float_of_int (Atomic.get get_misses));
        ]);
    (* Delegate to [plain] rather than [M] directly so the DST yield
       points and TxSan hooks stay in force under telemetry. *)
    {
      plain with
      reserve =
        (fun txn r ->
          Atomic.incr reserves;
          plain.reserve txn r);
      release =
        (fun txn r ->
          Atomic.incr releases;
          plain.release txn r);
      release_all =
        (fun txn ->
          Atomic.incr releases;
          plain.release_all txn);
      revoke =
        (fun txn r ->
          Atomic.incr revokes;
          plain.revoke txn r);
      get =
        (fun txn r ->
          Atomic.incr gets;
          match plain.get txn r with
          | None ->
              Atomic.incr get_misses;
              None
          | some -> some);
    }
  end
