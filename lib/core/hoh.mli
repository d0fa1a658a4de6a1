(** The hand-over-hand transaction engine (the skeleton of the paper's
    Listing 5 [Apply]).

    An operation is a chain of transactions. Each transaction receives the
    validated hand-off point of its predecessor ([start = Some node] if the
    reservation survived, [None] if it was revoked or this is the first
    transaction — in which case the traversal begins at the root/head) and
    either finishes the operation or hands off by naming the node to
    reserve for the next transaction. The engine performs the
    register / get / release-all / reserve choreography so the data
    structures contain only traversal logic. With [unlogged] (see
    {!apply}), the traversal windows keep no read set and an update
    writes in one logged window that starts at its anchor node
    ({!act}). *)

type ('r, 'a) outcome =
  | Finish of 'a  (** operation complete; release reservations and commit *)
  | Hand_off of 'r
      (** commit this window, reserving the given node as the next start *)
  | Anchor of 'r
      (** hand off like [Hand_off], at the node an update's write hangs
          from; the next window is the update's acting window and runs
          logged, so it may write (see {!apply}'s [unlogged]) *)

val act : Tm.txn -> anchor:'r -> (unit -> 'a) -> ('r, 'a) outcome
(** An update's write, at the position a window found: [Finish (f ())]
    in a logged window, [Anchor anchor] in an unlogged one, which must
    not write. [anchor] is a node the window read, from which the acting
    window finds the position again. *)

(** Per-thread window budgets with the paper's [scatter] optimization: the
    first window of an operation spans a random 1..W nodes so that threads
    starting together do not all try to reserve the same node; subsequent
    windows span exactly W.

    With [adaptive] set, the static W becomes a per-thread controller that
    MIMD-adjusts the live budget from contention feedback: a window that
    commits without contention aborts doubles it (up to [4 * w]); one that
    pays read-validation / lock-busy / serial-pending aborts, or commits
    serially, halves it (down to 1). The feedback is recorded by
    {!apply} when the window is passed to it.

    With [fusion = k > 1], the same feedback drives a second per-thread
    controller over window {e count}: after clean commits, up to the live
    fuse budget (1..k, doubling on clean, halving on contention) of
    consecutive windows run inside one transaction — one gclock stamp and
    one release/reserve round per fused chain instead of per window. A
    step keeps its own state across windows through {!Tm.assign}, so the
    next window sees it whether or not it is fused; an [Anchor] ends a
    fused chain. *)
module Window : sig
  type t

  val create : ?scatter:bool -> ?adaptive:bool -> ?fusion:int -> int -> t
  (** [create w] with [w >= 1]; [scatter] defaults to [true], [adaptive]
      to [false], [fusion] to [1] (off; must be [>= 1]). [w] is the static
      budget, and the adaptive controller's starting point and
      quarter-ceiling; [fusion] is the fuse controller's ceiling. *)

  val size : t -> int
  (** The static [w], regardless of adaptation. *)

  val adaptive : t -> bool

  val fusion : t -> int
  (** The fusion ceiling [k] ([1] when fusion is off). *)

  val fused : t -> bool

  val budget : t -> thread:int -> int
  (** The live budget for a continuation window: [thread]'s adapted value,
      or [w] when not adaptive. *)

  val fuse_budget : t -> thread:int -> int
  (** How many consecutive windows [thread]'s next transaction may fuse
      ([1] when fusion is off or after recent contention). *)

  val record : t -> thread:int -> contended:bool -> unit
  (** Feed one committed window's outcome to [thread]'s controller(s);
      no-op when neither adaptive nor fused. *)

  val first_budget : t -> thread:int -> int
  (** Budget for an operation's first window: uniform in [1..budget] when
      scattering, else [budget]. Uses a per-thread generator, so it is
      safe to call concurrently. *)
end

val apply :
  rr:'r Rr_intf.ops ->
  ?site:string ->
  ?max_attempts:int ->
  ?read_phase:bool ->
  ?unlogged:bool ->
  ?window:Window.t * int ->
  (Tm.txn -> start:'r option -> ('r, 'a) outcome) ->
  'a
(** [apply ~rr step] runs [step] in successive transactions until it
    finishes. If an attempt aborts, [step] re-runs in a fresh transaction
    with the reservation re-checked; if the reservation was revoked
    meanwhile, [start] is [None] and the step must restart from the
    beginning of the structure.

    [site] is forwarded to {!Tm.atomic} as the telemetry attribution label
    for every window transaction of this operation, and [read_phase] as
    the pure-traversal hint (locked reads wait instead of aborting; no
    serial escalation — see {!Tm.atomic}).

    [unlogged] (default [false]) runs every window transaction unlogged
    ({!Tm.atomic}'s [unlogged]: TL2's read-only mode, no read set),
    except the one after an [Anchor], which is logged and is where an
    update writes ({!act}). Only pass it when [rr]'s reserve, release and
    get write nothing the TM publishes ({!Rr_intf.S.local_reserve}): an
    unlogged window may not write. A serial re-run and a call flattened
    into an enclosing transaction are logged and act directly.

    [window] is [(w, thread)]: when [w] is adaptive or fused, every window
    transaction's contention outcome is fed back to [thread]'s budget
    controller(s) via {!Window.record}. The step callback still chooses
    its own budgets (via {!Window.budget} / {!Window.first_budget});
    passing [window] closes the feedback loop, and with [fusion > 1] also
    lets the engine run {!Window.fuse_budget} consecutive windows inside
    one transaction (intermediate hand-offs carry no reservation — the
    fused transaction's snapshot, every read of which was validated
    against its [rv], protects them). An [Anchor] ends a fused chain. *)

val apply_stamped :
  rr:'r Rr_intf.ops ->
  ?site:string ->
  ?max_attempts:int ->
  ?read_phase:bool ->
  ?unlogged:bool ->
  ?window:Window.t * int ->
  (Tm.txn -> start:'r option -> ('r, 'a) outcome) ->
  'a * int
(** Like {!apply} but also returns the commit stamp of the {e final}
    transaction — the operation's linearization point, used by the
    serialization checker. *)
