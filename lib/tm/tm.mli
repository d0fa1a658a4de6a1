(** A TL2-style software transactional memory with a serial-irrevocable
    fallback.

    This module plays the role of the paper's TM substrate (Intel TSX HTM
    driven through GCC's language-level TM). The paper's algorithms require
    only that the TM provide a total order on transactions and make
    conflicts manifest immediately (Sec. 3, System Model); TL2 gives both:

    - every location is protected by a versioned lock word;
    - transactions sample a global version clock at begin ([rv]) and abort
      any read of a location whose version exceeds [rv] (opacity — doomed
      transactions never observe inconsistent state, the software analog of
      HTM's immediate aborts);
    - writing transactions obtain a unique commit stamp [wv] from the clock,
      which totally orders them. The stamp is exposed through
      {!atomic_stamped} so tests can {e check} serializability by replaying
      committed operations in stamp order.

    GCC's HTM policy of retrying a few times and then falling back to a
    serial mode is mirrored by {!atomic}'s [max_attempts]: once exhausted,
    the transaction runs irrevocably under a global serial token, after
    waiting for in-flight committers to quiesce. Irrevocable means it
    never aborts on a conflict; an exception out of a serial run still
    restores every tvar it wrote to the payload it had before the run
    (before the token is released), so every transaction is
    failure-atomic. *)

module Stats = Telemetry.Counters
(** Per-thread commit/abort counters; an alias of {!Telemetry.Counters}
    (which re-homed the old [Tm_stats] record). *)

type 'a tvar
(** A transactional variable. All access from inside a transaction goes
    through {!read} and {!write}; initialization and post-quiescence
    inspection may use {!peek} and {!poke}.

    A tvar is one 3-word block: a header, the TL2 lock word and the
    value. The lock word packs [uid | version | locked] in 18, 44 and 1
    bits; every store to it keeps the uid bits. Tvar identity is physical
    ([==]); the uid is only a hash and a name (see {!tvar_id}). *)

type txn
(** A transaction context, valid only during the callback passed to
    {!atomic}. *)

type abort_cause =
  | Read_invalid  (** a read (or commit-time validation) saw a newer version *)
  | Lock_busy  (** a location was locked by a concurrent committer *)
  | Serial_pending  (** a serial transaction is running; back off *)
  | User_retry  (** explicit {!retry} *)

exception Abort of abort_cause
(** Raised internally to unwind an attempt. It never escapes {!atomic};
    it is exposed for completeness and for white-box tests. *)

val tvar : 'a -> 'a tvar
(** [tvar v] allocates a fresh transactional variable holding [v]. *)

val tvar_id : _ tvar -> int
(** The tvar's 18-bit uid, read from its lock word, for hashing and for
    naming the tvar in TxSan and telemetry reports. Uids are handed out in
    creation order and wrap after 2^18 tvars, so two tvars may share one:
    it is never an identity. *)

val max_uid : int
(** [2^18 - 1], the largest uid; the next tvar's uid is 0 again. *)

val max_version : int
(** [2^44 - 1], the largest commit stamp a lock word can hold. *)

exception Clock_exhausted
(** Raised by a commit, a serial transaction or {!poke} that would stamp
    a version past {!max_version}. The clock never wraps, so every later
    one raises too. A commit that raises it has published nothing and
    holds no lock. *)

val set_clock_for_testing : int -> unit
(** Set the global clock. Only for unit tests that drive it to
    {!max_version}; the caller puts back a value no smaller than any
    version already published. *)

val set_next_uid_for_testing : int -> int
(** [set_next_uid_for_testing n] makes [n] (modulo 2^18) the uid of the
    next {!tvar} and returns the counter it replaced, for the caller to
    put back. Only for unit tests that make two tvars share a uid or drive
    the counter past {!max_uid}; TxSan is told whether uids now repeat
    (see [San.uid_space_exhausted]). *)

val knot : ((unit -> 'a tvar) -> 'a) -> 'a
(** [knot make] builds a value that holds itself: every tvar [make]
    creates through its argument holds [make]'s result once [knot]
    returns. [make] must not read those tvars. The node modules build
    their static [nil] sentinels this way, whose links point back at
    [nil]. *)

module Thread : sig
  val max_threads : int
  (** Capacity of the thread-id space (ids are recycled by {!release}). *)

  val register : unit -> int
  (** Claim a thread id for the calling domain. Idempotent per domain.
      @raise Failure when more than {!max_threads} ids are live. *)

  val release : unit -> unit
  (** Return this domain's id to the pool. Call only when the domain will
      perform no further transactions (typically just before it finishes);
      a released id may be handed to another domain. *)

  val with_registered : (int -> 'a) -> 'a
  (** [with_registered f] registers, runs [f id], and releases even on
      exceptions. The worker-thread entry point used by the harness. *)

  val id : unit -> int
  (** This domain's id, registering it on first use. *)

  val stats : unit -> Telemetry.Counters.t
  (** The calling domain's live statistics record (updated in place by
      {!atomic}; copy it before the domain finishes if it must outlive the
      run). *)

  val reset_ids_for_testing : unit -> unit
  (** Forget released ids and rewind the watermark so ids are handed out
      deterministically from 0 again. Only for deterministic-schedule
      tests; the caller must guarantee no registered thread is live
      anywhere in the process. *)
end

val read : txn -> 'a tvar -> 'a
(** Transactional read. Returns the transaction's own pending write if any;
    otherwise performs an opaque (validated) read.

    A read that observes a version newer than the transaction's read
    timestamp first attempts a {e timestamp extension} (TinySTM/LSA-style):
    the whole read set is revalidated against the current lock words and,
    if intact, the read timestamp is advanced to a fresh clock sample and
    the read re-executed — so only {e true} conflicts abort. Successful
    extensions and failed attempts are counted in the thread's
    {!Thread.stats} ([extensions] / [ext_fails]). An unlogged attempt
    (see {!atomic}) neither logs the read nor extends: it aborts, and
    counts neither.
    @raise Abort on conflict. *)

val write : txn -> 'a tvar -> 'a -> unit
(** Transactional write, buffered until commit.
    @raise Invalid_argument in an unlogged attempt (see {!atomic}). *)

val retry : txn -> 'a
(** Abort the current attempt and re-execute from the beginning. Does not
    count toward the serial-fallback threshold. Must not be used from serial
    mode (serial transactions are irrevocable);
    @raise Failure in serial mode. *)

val validate_on_commit : txn -> unit
(** Request commit-time read-set validation even if this transaction turns
    out to be read-only. A read-only TL2 transaction is always a consistent
    snapshot at [rv], so it normally commits without validation; but a
    transaction whose {e side effects} must be ordered before later
    conflicting commits — publishing a hazard pointer for a node it read —
    must confirm at commit that nothing it read has changed, the TM analog
    of the hazard-pointer publish-then-revalidate rule. Aborts with
    [Read_invalid] if validation fails.
    @raise Invalid_argument in an unlogged attempt, which keeps no read
    set to validate. *)

val defer : txn -> (unit -> unit) -> unit
(** [defer txn f] runs [f] immediately after this transaction commits, in
    registration order, and discards it if the attempt aborts. It is for
    effects that must follow the commit, never for state the transaction
    reads later (use {!assign}): a registration in a flat-nested call runs
    only at the outermost commit. Transactional allocators defer [free]
    this way (Listing 5 calls [delete(curr)] inside a transaction, which
    must not take effect on abort); the reclaimers defer their retires
    and the hazard-slot and epoch updates that follow a commit;
    {!commit_stamp} is read here. *)

val on_abort : txn -> (unit -> unit) -> unit
(** [on_abort txn f] runs [f] once the current attempt's effects are
    discarded: after a conflict abort (before the retry) and after any
    exception out of the body ({!Dst.Killed}, an injected fault, the
    caller's own), speculative or serial. It never runs on commit.
    Callbacks run newest first, outside any transaction. A registration
    in a flat-nested call belongs to the outermost transaction, as with
    {!defer}. It is the undo log of a transaction's thread-local state
    ({!assign}); the structures also free an insert's spare node this
    way when the insert runs inside an enclosing transaction. *)

val assign : txn -> 'a ref -> 'a -> unit
(** [assign txn r v] is [r := v], undone by {!on_abort}: the rest of the
    attempt (and of an enclosing transaction) sees [v] at once, a commit
    keeps it, and an abort puts the old value back. This is GCC TM's
    undo-logging of thread-local variables, and the one home of an
    operation's own state across its windows (a two-phase remove's
    phase, a resume level, a consumed spare). *)

val thread_id : txn -> int
val is_serial : txn -> bool

val is_unlogged : txn -> bool
(** Whether this attempt runs unlogged ({!atomic}'s [unlogged]). Always
    [false] in a serial run and in a call flattened into a logged
    transaction. *)

val commit_stamp : txn -> int
(** The stamp of the transaction that just committed. Only meaningful
    inside {!defer} callbacks (which run right after commit), so it is
    the one piece of an operation's own state that is deferred: the dlist
    remove records where its reservation was established with it. *)

type 'a result = {
  value : 'a;
  stamp : int;  (** commit timestamp: unique [wv] for writers, [rv] for
                    read-only transactions *)
  read_only : bool;
  attempts : int;  (** total attempts including the successful one *)
  serial : bool;  (** whether the committing attempt ran in serial mode *)
}

val atomic :
  site:string ->
  ?max_attempts:int ->
  ?read_phase:bool ->
  ?unlogged:bool ->
  (txn -> 'a) ->
  'a
(** [atomic f] runs [f] as a transaction, retrying on conflicts with
    randomized exponential backoff. After [max_attempts] conflict aborts
    (default 4), the transaction is re-run under the
    global serial token and cannot abort on a conflict. An exception out
    of [f] discards the attempt's writes (a serial run restores the
    payloads it overwrote), runs the {!on_abort} callbacks and propagates.
    Nested calls are flattened into the enclosing transaction.

    [site] labels this call site for telemetry: when {!Telemetry.enabled}
    is on, every abort is attributed to [(site, cause, conflicting tvar)]
    in the calling thread's {!Telemetry.Attribution} table. Pass a static
    string (e.g. ["slist.insert"]); it is required, so every top-level
    transaction names its operation. Ignored (beyond the enclosing label)
    for nested calls.

    [read_phase] (default [false]) declares a pure-traversal transaction:
    reads that hit a locked word wait out the (bounded) writeback section
    instead of aborting with [Lock_busy], and the retry loop never
    escalates to the serial fallback — so a read-only traversal window
    never advances the global version clock. Only set it for transactions
    whose writes (if any) are private; a read-phase transaction that
    conflicts on every attempt retries speculatively forever, which is
    livelock-free only because each of its aborts implies a concurrent
    commit. Ignored for nested calls (the enclosing hint stays in
    force).

    [unlogged] (default [false]) runs every speculative attempt in TL2's
    read-only mode (Dice, Shalev & Shavit, DISC 2006): each read is still
    validated against [rv] at its load (the same seqlock pair), but it is
    not logged, so there is no timestamp extension — a stale read aborts
    with [Read_invalid] and the attempt retries at a fresh [rv] — and the
    commit takes the read-only path. A {!write} or {!validate_on_commit}
    in such an attempt raises [Invalid_argument], which abandons the
    attempt with nothing published. A serial re-run is logged and may
    write, as is a call flattened into an enclosing transaction (the
    flag is ignored for nested calls). *)

val atomic_stamped :
  site:string ->
  ?max_attempts:int ->
  ?read_phase:bool ->
  ?unlogged:bool ->
  (txn -> 'a) ->
  'a result
(** Like {!atomic} but also reports the commit stamp and attempt counts. *)

val peek : 'a tvar -> 'a
(** Non-transactional read. Only meaningful during initialization or after
    all worker threads have quiesced. *)

val poke : 'a tvar -> 'a -> unit
(** Non-transactional write with a fresh version (so concurrent speculative
    readers, if any, abort rather than observe a torn snapshot). Intended
    for initialization.
    @raise Clock_exhausted past {!max_version}, leaving the tvar as it
    was. *)

val serial_active : unit -> bool
(** Whether a serial transaction currently holds the token (for tests). *)

val reads_logged : txn -> int
(** Number of entries currently in the transaction's read set (0 in an
    unlogged attempt). White-box hook for tests of read-set dedup;
    meaningless outside {!atomic}. *)

val writes_logged : txn -> int
(** Number of distinct locations in the transaction's write set. White-box
    hook for tests; meaningless outside {!atomic}. *)

val current_txn : unit -> txn option
(** The calling domain's active transaction, if any. Lets operations that
    normally run stand-alone detect that they were called {e inside} an
    enclosing transaction (flat nesting) and defer side effects — such as
    returning an unused node to a pool — until the enclosing commit. *)

val clock : unit -> int
(** A sample of the global version clock. TxSan timestamps its shadow
    events with this so violation reports order against commit stamps. *)

val txn_site : txn -> string
(** The telemetry site label of the enclosing {!atomic} call (["?"] when
    neither telemetry nor TxSan is enabled). *)

val current_site : unit -> string
(** {!txn_site} of the calling domain's active transaction, or ["?"]. *)
