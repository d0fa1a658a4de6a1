(** The paper's Listing 5: a sorted singly linked integer set traversed
    with hand-over-hand transactions — and, over buckets, the hash set.

    Operations share one [Apply] skeleton: traverse at most [W] nodes per
    transaction (the first window is scattered to 1..W), hand the traversal
    over by reserving the window's last node, and run the matching
    found/not-found action in the final transaction. The {!Mode.kind}
    selects the reservation/reclamation policy; [Htm] turns the same code
    into the single-transaction baseline (unbounded window, no
    reservations, serial fallback on repeated aborts).

    With [buckets], keys hash into a fixed array of sorted chains, each
    traversed exactly like the list from its own sentinel, all sharing one
    node pool, one mode and one window — the paper's Section 6
    future-work hash table ("we believe they will be a valuable technique
    for other concurrent data structures, such as balanced trees and hash
    tables") made concrete. Chains are short, so most operations fit in
    one window; under-sizing [buckets] exhibits the reservation machinery
    on long chains. Keys must be greater than [min_int + 1]. *)

include Set_intf.S

val create :
  mode:Mode.kind ->
  ?buckets:int ->
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
(** Without [buckets], Listing 5's list: its name is the mode's and its
    sites are [slist.*]. With [buckets] (at least 1), the hash set: the
    name gains [-hash] and the sites are [hashset.*]. [window] defaults
    to 8 (the paper's best list setting at high thread counts); [scatter]
    to [true]; [adaptive] to [false] (when set, the per-thread window
    controller of {!Rr.Hoh.Window} adjusts the live budget from contention
    feedback, with [window] as the starting point); [fusion] to 1 (off;
    [k > 1] lets clean commits fuse up to [k] consecutive windows into one
    transaction — see {!Rr.Hoh.Window}); [strategy] to
    {!Mempool.Thread_arena}; [max_attempts] to the TM default (the paper
    uses 2 for lists). The quiescent walks of [to_list], [size] and
    [check] stop at a node whose [next] points back at itself (a corrupt
    link [check] reports), so they always return. *)
