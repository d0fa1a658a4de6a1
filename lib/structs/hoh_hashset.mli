(** A hash set built from hand-over-hand transactions and revocable
    reservations — the paper's Section 6 future-work claim ("we believe
    they will be a valuable technique for other concurrent data structures,
    such as balanced trees and hash tables") made concrete.

    Keys hash into a fixed array of sorted bucket chains; each chain is
    traversed exactly like Listing 5's list, sharing one node pool and one
    reservation object across all buckets. Because chains are short, most
    operations fit in a single window and the reservation machinery only
    pays off under pathological bucket loads — which the benchmarks can
    exhibit by under-sizing [buckets]. *)

type t

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
(** [buckets] defaults to 64. *)

val name : t -> string
val insert : t -> thread:int -> int -> bool
val remove : t -> thread:int -> int -> bool
val lookup : t -> thread:int -> int -> bool
val insert_s : t -> thread:int -> int -> bool * int
val remove_s : t -> thread:int -> int -> bool * int
val lookup_s : t -> thread:int -> int -> bool * int
val finalize_thread : t -> thread:int -> unit
val drain : t -> unit

val to_list : t -> int list
(** Sorted contents (quiescent). Like {!size}, each bucket's walk stops
    at a self-linked node, so a corrupt link cannot spin it. *)

val size : t -> int
val check : t -> (unit, string) result
val pool_stats : t -> Mempool.Stats.t

val pool_live : t -> int
(** O(1) live-slot count ([Mempool.live]) for backlog sampling. *)

val hazard_metrics : t -> Reclaim.Hazard.metrics option
