(** The paper's Section 4.2 doubly linked list.

    Traversal is identical to the singly linked list's, over {!Dnode}s,
    which add a [prev] pointer to {!Lnode}'s fields (set transactionally,
    so insertion/removal read like sequential code). The substantive
    difference is removal: because a node's neighbours are reachable from
    the node itself, a [Remove] that finds its target can {e reserve it
    and commit}, then unlink and revoke in a separate, smaller
    transaction. If that second transaction finds the reservation gone:

    - under a {e strict} reservation implementation (or TMHP, whose
      validity check is exact), only a concurrent removal of the same node
      can have invalidated it, so the operation returns [false]
      immediately;
    - under a {e relaxed} implementation the invalidation may be spurious,
      so the operation must retry from the beginning — exactly the paper's
      prescription.

    [remove_s] returns [(result, earliest, stamp)]: normally
    [earliest = stamp] (the operation linearizes at its final commit), but
    a strict-mode fast-fail — the reservation was revoked between the
    reserving and unlinking transactions — linearizes anywhere in
    [(earliest, stamp]], immediately after the concurrent removal that
    revoked it (Sec. 4.2). [check] adds to the singly linked invariants
    [n.next.prev == n] and [n.prev.next == n] for every linked node. *)

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
  ?split_unlink:bool ->
  unit ->
  t
(** [split_unlink] (default [true]) enables the separate unlink-and-revoke
    transaction; disabling it makes [remove] unlink inside the traversal's
    final transaction, as in the singly linked list — the ablation knob for
    the paper's claim that the split reduces conflicts. *)
