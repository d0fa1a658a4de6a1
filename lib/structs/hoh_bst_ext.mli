(** External (leaf-oriented) unbalanced BST with hand-over-hand
    transactions (Figure 7's "RR-*" and "TMHP" trees).

    Keys live only in leaves; internal nodes are routers with exactly two
    children whose key equals the smallest key of their right subtree
    (routing rule: [key < node.key] goes left). Insertion replaces a leaf
    with a router over the old and new leaves; removal splices the leaf and
    its router out by redirecting the grandparent edge to the sibling.
    Values never move, so removals revoke exactly two references (leaf and
    router) — no path revocation, which is why all six reservation schemes
    behave better here than in the internal tree. *)

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
  unit ->
  t
(** Supports [Rr_kind], [Htm] and [Tmhp] modes.
    @raise Invalid_argument for [Ref]. *)

val depth : t -> int
(** Maximum depth (quiescent). *)
