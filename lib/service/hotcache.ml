(* Hot-key read cache in front of the service router.

   One small direct-mapped table per shard. Each slot holds one immutable
   record, and a slot is invalidated by replacing its record, never by
   mutating it: the record a lookup observed *before* its transaction ran
   is the slot's epoch, and the reply populates the slot only by a
   compare-and-set against that record. Any write committing a key bumps
   that key's slot right after its commit — a fresh record, so a
   populate whose lookup straddled the write fails its compare-and-set
   and the entry is never installed (DESIGN.md, decision 13). A write
   invalidates only the keys that share its slot, so writes to a few hot
   keys leave the other hot keys cached.

   Freshness is checkable: every record carries the stamp of the last
   committed write to its slot, copied forward by populates and advanced
   by bumps in the same record swap, so a servable entry always names the
   newest write that could have invalidated it. On every hit the TxSan
   hook asserts [entry stamp >= last committed write stamp]; the
   [Stale_cache] injected bug (advance the stamp but keep the entry)
   trips it. *)

open Harness

type slot =
  | Vacant of { v_last_write : int }
  | Entry of {
      e_key : int;
      e_present : bool;
      e_earliest : int;
      e_stamp : int;
      e_last_write : int;
    }

(* A slot's record at the moment a lookup starts; the reply populates
   only if the slot still holds this very record. *)
type epoch = slot

type shard = { slots : slot Atomic.t array }

type t = {
  mask : int;
  shards : shard array;
  hits : int Atomic.t;
  misses : int Atomic.t;
  invalidations : int Atomic.t;
}

let default_capacity = 256

(* Every slot starts on this one record: compare-and-set is per slot, and
   no slot is ever set back to it. *)
let cold = Vacant { v_last_write = 0 }

let create ?(capacity = default_capacity) ~shards () =
  if shards < 1 then invalid_arg "Hotcache.create: shards must be >= 1";
  let cap =
    (* round up to a power of two so the slot index is a mask *)
    let rec up n = if n >= capacity then n else up (n * 2) in
    up 16
  in
  {
    mask = cap - 1;
    shards =
      Array.init shards (fun _ ->
          { slots = Array.init cap (fun _ -> Atomic.make cold) });
    hits = Pad.atomic 0;
    misses = Pad.atomic 0;
    invalidations = Pad.atomic 0;
  }

let slot t ~shard key = t.shards.(shard).slots.(key land t.mask)
let epoch t ~shard key = Atomic.get (slot t ~shard key)

let last_write = function
  | Vacant { v_last_write } -> v_last_write
  | Entry { e_last_write; _ } -> e_last_write

(* Lookup for a single-key [Get]. A hit returns the cached reply; a slot
   holds an entry only while no write to its keys has committed since
   the entry's lookup started. *)
let find t ~shard ~thread key =
  Dst.point Dst.Svc_cache;
  match Atomic.get (slot t ~shard key) with
  | Entry e when e.e_key = key ->
      Atomic.incr t.hits;
      San.cache_hit ~thread ~shard ~stamp:e.e_stamp ~last_write:e.e_last_write;
      Some
        {
          Store.outcome = (if e.e_present then Store.Found else Store.Absent);
          earliest = e.e_earliest;
          stamp = e.e_stamp;
        }
  | Entry _ | Vacant _ ->
      Atomic.incr t.misses;
      None

(* Populate from a lookup reply. [epoch0] must have been read (via
   {!epoch}) before the lookup transaction started: if a write to the
   slot has committed and bumped since, the slot no longer holds [epoch0]
   and the reply is dropped. *)
let note t ~shard ~epoch0 key (r : Store.reply) =
  match r.Store.outcome with
  | Store.Found | Store.Absent ->
      ignore
        (Atomic.compare_and_set (slot t ~shard key) epoch0
           (Entry
              {
                e_key = key;
                e_present = r.Store.outcome = Store.Found;
                e_earliest = r.Store.earliest;
                e_stamp = r.Store.stamp;
                e_last_write = last_write epoch0;
              }))
  | _ -> ()

(* A write of [key] committed at [stamp] against [shard]: swap the key's
   slot for a fresh record that publishes the stamp. Writers bump after
   their commits, and concurrently — hence the compare-and-set loop, which
   keeps the published stamp a maximum. *)
let bump t ~shard ~key ~stamp =
  let s = slot t ~shard key in
  (* The [Stale_cache] injected bug models a writer that forgets to
     invalidate: the entry is kept, servable, while the published
     last-write stamp still advances — it is the freshness ground truth
     the TxSan hit check compares against, which is exactly what makes
     the forgotten invalidation detectable at the next hit. *)
  let stale = Dst.Inject.bug Dst.Inject.Stale_cache in
  let rec swap () =
    let cur = Atomic.get s in
    let lw = max stamp (last_write cur) in
    let next =
      match cur with
      | Entry e when stale -> Entry { e with e_last_write = lw }
      | Entry _ | Vacant _ -> Vacant { v_last_write = lw }
    in
    if not (Atomic.compare_and_set s cur next) then swap ()
  in
  swap ();
  if not stale then Atomic.incr t.invalidations

let stats t =
  [
    ("cache_hits", Atomic.get t.hits);
    ("cache_misses", Atomic.get t.misses);
    ("cache_invalidations", Atomic.get t.invalidations);
  ]

let hit_rate t =
  let h = Atomic.get t.hits and m = Atomic.get t.misses in
  if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)
