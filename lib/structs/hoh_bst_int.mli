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
    pointers). *)

type t

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

val name : t -> string

val insert : t -> thread:int -> int -> bool
val remove : t -> thread:int -> int -> bool
val lookup : t -> thread:int -> int -> bool
val insert_s : t -> thread:int -> int -> bool * int
val remove_s : t -> thread:int -> int -> bool * int
val lookup_s : t -> thread:int -> int -> bool * int

val finalize_thread : t -> thread:int -> unit
val drain : t -> unit
val to_list : t -> int list  (** sorted contents (quiescent) *)

val size : t -> int
val depth : t -> int  (** maximum depth (quiescent) *)

val check : t -> (unit, string) result
(** BST ordering with strict bounds (which also fixes each node's side
    under its parent), linked nodes live and unpoisoned. *)

val pool_stats : t -> Mempool.Stats.t

val pool_live : t -> int
(** O(1) live-slot count ([Mempool.live]) for backlog sampling. *)

