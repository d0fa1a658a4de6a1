(** A probabilistically balanced skiplist set with hand-over-hand
    transactions and revocable reservations — the paper's Section 6
    "balanced trees" claim, realized with the skiplist's probabilistic
    balance instead of rebalancing rotations.

    The traversal phase is windowed exactly like Listing 5: descend/advance
    through at most [W] nodes per transaction, reserving the node where the
    window pauses (the operation also remembers, thread-locally, at which
    level it paused). Along the way it records the rightmost node with a
    smaller key at every level — the predecessor hints. The update phase is
    one transaction (under RR-V, the logged window that resumes at the
    level-0 predecessor; see {!Rr.Hoh.act}) that re-validates each hint
    before using it: a hint
    collected in an earlier window may have been removed (its deletion
    mark — written by removals in every mode — is read transactionally) or
    out-run by newer inserts (the transaction walks forward from the hint
    at its level). A deleted hint forces a fresh full descent inside the
    update transaction; both repairs preserve serializability because all
    reads happen in the update transaction's own validated snapshot.

    Removals revoke the node being unlinked, exactly as in the lists: a
    concurrent operation resuming from it restarts from the head, and the
    node's memory is reclaimed the moment the removal commits.

    [check] tests level-0 sortedness, that every level-l list is a sorted
    sublist of level l-1, that towers match [level], and that no deleted
    or freed node is linked. *)

include Set_intf.S

val create :
  mode:Mode.kind ->
  ?window:int ->
  ?scatter:bool ->
  ?adaptive:bool ->
  ?fusion:int ->
  ?strategy:Mempool.strategy ->
  ?rr_config:Rr.Config.t ->
  ?hp_threshold:int ->
  ?max_attempts:int ->
  ?seed:int ->
  unit ->
  t
(** [seed] (default 42) seeds the hash of a key that picks its tower
    height (geometric, p = 1/2), so the same keys build the same towers
    whichever thread inserts them.
    @raise Invalid_argument for [Ref] mode. *)

val levels_histogram : t -> int array
(** Count of nodes per tower height (quiescent); sanity-checks the
    geometric distribution. *)
