(** The windowed traversal loop of {!Hoh_list}, the singly linked list
    and the hash set's bucket chains (the [while] of Listing 5), over
    {!Lnode}s. {!Hoh_dlist} keeps its own copy over {!Dnode}s. *)

val walk :
  Tm.txn ->
  key:int ->
  prev:Lnode.t ->
  budget:int ->
  [ `Found of Lnode.t * Lnode.t  (** (prev, curr) with [curr.key = key] *)
  | `Absent of Lnode.t * Lnode.t
    (** key not present; curr is its successor, {!Lnode.nil} at the tail *)
  | `Window of Lnode.t  (** budget exhausted; hand off at this node *) ]
(** Reads at most [budget] nodes starting at [prev.next]: one logged read
    per node, its [next], which follows and validates the plain load of
    its key (see {!Lnode.key}). *)
