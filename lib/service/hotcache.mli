(** Hot-key read cache in front of the service router.

    A small direct-mapped per-shard table of [Get] replies. Each slot
    holds one immutable record, and the record a lookup observed before
    its transaction ran is the slot's epoch: the reply populates the slot
    only if the slot still holds that record, and a writer swaps the
    written key's slot for a fresh record right after it commits. So a
    write invalidates only the keys sharing its slot, a hit is always a
    reply the shard could still give at some stamp in the entry's
    lifetime (a hit between a commit and its bump returns an entry
    stamped before the commit), and cached histories stay serializable.
    Every hit runs the TxSan {!San.cache_hit} freshness check against the
    slot's published last-committed-write stamp (DESIGN.md, decision
    13). *)

type t

type epoch
(** A slot's state before a lookup, for {!note}. *)

val create : ?capacity:int -> shards:int -> unit -> t
(** [capacity] (default 256, rounded up to a power of two) is the slot
    count of each shard's direct-mapped table. *)

val epoch : t -> shard:int -> int -> epoch
(** The current epoch of the slot of the key. Read it {e before} running
    the lookup transaction and pass it to {!note}. *)

val find : t -> shard:int -> thread:int -> int -> Harness.Store.reply option
(** Serve a [Get key] from cache if a valid entry exists. Counts a hit or
    a miss either way. *)

val note : t -> shard:int -> epoch0:epoch -> int -> Harness.Store.reply -> unit
(** Populate from a lookup reply ([Found]/[Absent] outcomes only;
    anything else is ignored). [epoch0] is the {!epoch} sample taken
    before the lookup ran; if a write to the slot has committed since, the
    reply is dropped rather than cached stale. *)

val bump : t -> shard:int -> key:int -> stamp:int -> unit
(** A write of [key] committed at [stamp] against [shard]: invalidate the
    key's slot and publish the stamp for the freshness check. Call after
    the write commits. Under the [Dst.Inject.Stale_cache] bug the entry is
    kept while the stamp still publishes — the forgotten-invalidation
    fault the TxSan {!San.cache_hit} rule exists to catch. *)

val stats : t -> (string * int) list
(** [cache_hits] / [cache_misses] / [cache_invalidations]. *)

val hit_rate : t -> float
