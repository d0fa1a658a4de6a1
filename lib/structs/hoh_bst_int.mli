(** The paper's Section 4.3 internal unbalanced binary search tree with
    hand-over-hand transactions.

    Lookups and inserts are singly-linked-list-like: windowed descent, one
    reservation at a time, no revocation. Removal of a node with at most one
    child splices it out and revokes just that node. Removal of a node with
    two children overwrites its key with that of the leftmost descendant of
    its right child, extracts that descendant, and — because the moved value
    makes resume points between the two nodes stale — revokes {e every node
    on the path} between them (inclusive), the paper's sufficient condition.
    These multi-reference revocations are exactly why the O(T)/O(A) [Revoke]
    implementations fall behind RR-XO/RR-V in Figure 6.

    A sentinel root (key [max_int], real tree on its left) simplifies
    removal of the topmost node. Only [Rr_kind] and [Htm] modes are
    supported (the paper knows of no internal trees using hazard
    pointers). [check] tests BST ordering with strict bounds (which also
    fixes each node's side under its parent) and that linked nodes are
    live and unpoisoned. *)

include Set_intf.S

val create :
  mode:Mode.kind ->
  ?window:int ->
  ?scatter:bool ->
  ?adaptive:bool ->
  ?fusion:int ->
  ?strategy:Mempool.strategy ->
  ?rr_config:Rr.Config.t ->
  ?max_attempts:int ->
  unit ->
  t
(** [window] defaults to 16; [max_attempts] to 8 (the paper raises the
    HTM retry count to 8 for trees).
    @raise Invalid_argument for [Tmhp]/[Ref] modes. *)

val depth : t -> int
(** Maximum depth (quiescent). *)
