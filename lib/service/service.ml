(* Sharded KV service: a router in front of N independent stores.

   Every shard is a complete stack — its own Mempool, its own HOH
   structure, its own telemetry — built from one Factories.Spec. Keys
   hash to shards; single-key traffic and same-shard batches run straight
   on the owning shard's store, and a cross-shard multi-key operation is
   one TM transaction over the involved shards' stores. The shards share
   the TM and its commit clock, so the transaction's one stamp orders the
   multi against every other stamped operation (DESIGN.md, decision 10).

   Three optional layers ride in front of the router (DESIGN.md,
   decision 13):

   - a hot-key read cache ({!Hotcache}): single-key Gets are answered
     from a per-shard versioned table when valid, skipping the
     transaction entirely; every write invalidates its key's cache slot
     after it commits;
   - per-shard request queues ({!Pool}): {!submit} enqueues an operation
     group on the owning shard's queue and returns a ticket; an
     awaiting client that takes the shard's drain flag drains the queue
     head into one fused batch (combining);
   - SLO admission control: {!submit} sheds a [Low] arrival with
     [Overload] replies when the caller issues it later than a twentieth
     of the SLO behind its schedule, before the cache, the pool or the
     caller's own path sees it. *)

open Harness

(* The service library is wrapped behind this module; re-export the
   hot cache so white-box tests can reach it. *)
module Hot_cache = Hotcache

type priority = High | Low

type counters = {
  singles : int Atomic.t;
  batches : int Atomic.t;
  multis : int Atomic.t;
  multi_aborts : int Atomic.t;
  shed_low : int Atomic.t;
  deferred_high : int Atomic.t;  (* High arrivals past the target, run *)
}

type t = {
  label : string;
  stores : Store.t array;
  fuse : bool;
  c : counters;
  cache : Hotcache.t option;
  target_ns : int option;  (* the admission target: a twentieth of the SLO *)
  mutable pool : Pool.t option;
      (* mutable only to tie the knot: the pool's exec closure needs [t] *)
}

let label t = t.label
let shards t = Array.length t.stores

(* Deterministic key-to-shard routing: a 63-bit splitmix-style finalizer
   so adjacent keys scatter instead of striping. *)
let mix k =
  let k = k * 0x20ab53db4bb37 in
  let k = k lxor (k lsr 29) in
  let k = k * 0x4cf5ad432745937 in
  (k lxor (k lsr 32)) land max_int

let shard_of_key t k = mix k mod Array.length t.stores

(* ---- hot-cache maintenance ---- *)

(* A write of [key] committed at [stamp] against [shard]: invalidate the
   key's cache slot. Callers bump after the commit: a hit that lands in
   between returns an entry stamped before the write, which still
   serializes before it. The [Stale_cache] injected bug (handled inside
   {!Hotcache.bump}) skips the invalidation while the published
   last-write stamp still advances — the TxSan freshness rule catches the
   resulting stale hits. *)
let bump_cache t ~shard ~key ~stamp =
  match t.cache with
  | Some c -> Hotcache.bump c ~shard ~key ~stamp
  | None -> ()

(* The workhorse for same-shard operation groups: one [Store.batch] —
   fused into a single transaction when the service fuses — then cache
   maintenance: a bump for every reply that mutated the shard, and a
   populate from every Get reply under its slot's pre-batch epoch
   (dropped if a write of the slot — ours or a concurrent one — has
   committed since). Both the synchronous paths and the queue drains land
   here. *)
let run_shard_ops t ~shard ~thread ops =
  match t.cache with
  | None -> Store.batch ~fuse:t.fuse t.stores.(shard) ~thread ops
  | Some cache ->
      let epochs =
        Array.map (fun op -> Hotcache.epoch cache ~shard (Store.op_key op)) ops
      in
      let replies = Store.batch ~fuse:t.fuse t.stores.(shard) ~thread ops in
      Array.iteri
        (fun i (r : Store.reply) ->
          match (r.Store.outcome, ops.(i)) with
          | (Store.Inserted | Store.Removed), op ->
              Hotcache.bump cache ~shard ~key:(Store.op_key op)
                ~stamp:r.Store.stamp
          | (Store.Found | Store.Absent), Store.Get k ->
              Hotcache.note cache ~shard ~epoch0:epochs.(i) k r
          | _ -> ())
        replies;
      replies

(* ---- construction ---- *)

(* [Spec.v] validates the knobs; a record update can bypass it, so the
   check the service relies on is repeated here. *)
let create (spec : Factories.Spec.t) =
  let { Factories.Spec.shards; fuse; pool; hotcache; slo_us; _ } = spec in
  let n = Option.value shards ~default:1 in
  if n < 1 then invalid_arg "Service.create: shards must be >= 1";
  let fuse = Option.value fuse ~default:true in
  let pool_on = pool = Some true and cache_on = hotcache = Some true in
  let f = Factories.make spec in
  let t =
    {
      label = Factories.Spec.label spec;
      stores = Array.init n (fun _ -> f.Factories.make ());
      fuse;
      c =
        {
          singles = Atomic.make 0;
          batches = Atomic.make 0;
          multis = Atomic.make 0;
          multi_aborts = Atomic.make 0;
          shed_low = Atomic.make 0;
          deferred_high = Atomic.make 0;
        };
      cache = (if cache_on then Some (Hotcache.create ~shards:n ()) else None);
      target_ns = Option.map (fun us -> us * 1_000 / 20) slo_us;
      pool = None;
    }
  in
  if pool_on then
    t.pool <-
      Some
        (Pool.create ~shards:n
           ~exec:(fun ~shard ~thread ops -> run_shard_ops t ~shard ~thread ops)
           ());
  (match t.pool with
  | Some p when Telemetry.enabled () ->
      Telemetry.Gauges.register ~group:"service" ~name:"queue_depth" (fun () ->
          List.map
            (fun (k, v) -> (k, float_of_int v))
            (Pool.counters p))
  | _ -> ());
  (match t.cache with
  | Some c when Telemetry.enabled () ->
      Telemetry.Gauges.register ~group:"service" ~name:"cache_hits" (fun () ->
          ("hit_rate", Hotcache.hit_rate c)
          :: List.map (fun (k, v) -> (k, float_of_int v)) (Hotcache.stats c))
  | _ -> ());
  t

(* ---- single-key and same-shard traffic ---- *)

let overload_reply = { Store.outcome = Store.Overload; earliest = 0; stamp = 0 }

(* A lone Get's cache lookup: a hit skips the transaction. *)
let cached t ~thread = function
  | Store.Get k -> (
      match t.cache with
      | Some cache -> Hotcache.find cache ~shard:(shard_of_key t k) ~thread k
      | None -> None)
  | _ -> None

let exec_point t ~thread op =
  Atomic.incr t.c.singles;
  match cached t ~thread op with
  | Some r -> r
  | None ->
      let shard = shard_of_key t (Store.op_key op) in
      (run_shard_ops t ~shard ~thread [| op |]).(0)

(* A scan's range spans shards under hash routing, so the service
   decomposes it into per-shard Get probes (one sub-batch per shard,
   fused when the service fuses) and merges the hits. The
   result is interval-linearized across [earliest, stamp], like
   Store-level scans. *)
let exec_scan t ~thread ~low ~count =
  if count < 0 then invalid_arg "Service.exec: negative scan count";
  let n = Array.length t.stores in
  let keys_of_shard = Array.make n [] in
  for k = low + count - 1 downto low do
    let s = shard_of_key t k in
    keys_of_shard.(s) <- k :: keys_of_shard.(s)
  done;
  let hits = ref [] and earliest = ref max_int and stamp = ref 0 in
  for s = n - 1 downto 0 do
    match keys_of_shard.(s) with
    | [] -> ()
    | keys ->
        let ops = Array.of_list (List.map (fun k -> Store.Get k) keys) in
        let replies = run_shard_ops t ~shard:s ~thread ops in
        Array.iteri
          (fun i r ->
            earliest := min !earliest r.Store.earliest;
            stamp := max !stamp r.Store.stamp;
            if Store.positive r.Store.outcome then
              hits := Store.op_key ops.(i) :: !hits)
          replies
  done;
  let hits = List.sort compare !hits in
  {
    Store.outcome = Store.Keys hits;
    earliest = (if !earliest = max_int then 0 else !earliest);
    stamp = !stamp;
  }

let exec t ~thread op =
  match op with
  | Store.Scan { low; count } -> exec_scan t ~thread ~low ~count
  | _ -> exec_point t ~thread op

(* Group a batch by shard (preserving per-shard issue order), run each
   shard's sub-batch as one Store.batch — fused
   into a single transaction when the service fuses — and scatter the
   replies back to the request positions. Scans are executed inline: they
   span shards, so they cannot join a sub-batch. *)
let exec_batch t ~thread ops =
  Atomic.incr t.c.batches;
  let n = Array.length t.stores in
  let by_shard = Array.make n [] in
  Array.iteri
    (fun i op ->
      match op with
      | Store.Scan _ -> ()
      | op -> (
          let s = shard_of_key t (Store.op_key op) in
          by_shard.(s) <- (i, op) :: by_shard.(s)))
    ops;
  let replies =
    Array.make (Array.length ops)
      { Store.outcome = Store.Absent; earliest = 0; stamp = 0 }
  in
  for s = 0 to n - 1 do
    match List.rev by_shard.(s) with
    | [] -> ()
    | subs ->
        let idx = Array.of_list (List.map fst subs) in
        let sub_ops = Array.of_list (List.map snd subs) in
        let rs = run_shard_ops t ~shard:s ~thread sub_ops in
        Array.iteri (fun j r -> replies.(idx.(j)) <- r) rs
  done;
  Array.iteri
    (fun i op ->
      match op with
      | Store.Scan { low; count } -> replies.(i) <- exec_scan t ~thread ~low ~count
      | _ -> ())
    ops;
  replies

(* ---- cross-shard multi-key operations: one transaction ---- *)

type multi_result =
  | Committed of Store.reply array
  | Aborted of int
      (** index of the first write whose precondition failed; no effect
          was applied *)

let check_multi_ops ops =
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun op ->
      match op with
      | Store.Scan _ -> invalid_arg "Service.multi: scans are not multi ops"
      | Store.Get _ -> ()
      | Store.Insert k | Store.Remove k ->
          if Hashtbl.mem seen k then
            invalid_arg "Service.multi: duplicate write key"
          else Hashtbl.add seen k ())
    ops

exception Precondition_failed of int

(* The writes run in array order, each its own precondition check: a write
   that does not apply raises, which abandons the transaction with nothing
   applied (a serial run undoes its writes, an insert's spare goes back
   through [Tm.on_abort]). The Gets run last and see the writes. Every
   reply carries the transaction's one stamp, so the multi's operations
   sit together in the stamp order, writers before readers. *)
let multi t ~thread ops =
  check_multi_ops ops;
  Atomic.incr t.c.multis;
  let shard i = shard_of_key t (Store.op_key ops.(i)) in
  let run _txn =
    let replies = Array.make (Array.length ops) overload_reply in
    Array.iteri
      (fun i op ->
        match op with
        | Store.Insert _ | Store.Remove _ ->
            let r = Store.exec t.stores.(shard i) ~thread op in
            if not (Store.positive r.Store.outcome) then
              raise (Precondition_failed i);
            replies.(i) <- r
        | Store.Get _ | Store.Scan _ -> ())
      ops;
    Array.iteri
      (fun i op ->
        match op with
        | Store.Get _ -> replies.(i) <- Store.exec t.stores.(shard i) ~thread op
        | _ -> ())
      ops;
    replies
  in
  match Tm.atomic_stamped ~site:"service.multi" run with
  | r ->
      let stamp = r.Tm.stamp in
      Array.iteri
        (fun i op ->
          match op with
          | Store.Insert _ | Store.Remove _ ->
              bump_cache t ~shard:(shard i) ~key:(Store.op_key op) ~stamp
          | Store.Get _ | Store.Scan _ -> ())
        ops;
      Committed
        (Array.map
           (fun reply -> { reply with Store.earliest = stamp; stamp })
           r.Tm.value)
  | exception Precondition_failed i ->
      Atomic.incr t.c.multi_aborts;
      Aborted i

(* ---- asynchronous submission ---- *)

type ticket =
  | Done of Store.reply array  (** answered synchronously (cache hit,
                                   no pool, or cross-shard fallback) *)
  | Queued of Pool.ticket
  | Shed of int  (** rejected by admission control; op count *)

(* The shard an operation group can be queued on: all ops must route to
   one shard, and scans never queue (they span shards). *)
let queueable_shard t ops =
  let rec go i acc =
    if i >= Array.length ops then acc
    else
      match ops.(i) with
      | Store.Scan _ -> None
      | op -> (
          let s = shard_of_key t (Store.op_key op) in
          match acc with
          | Some s' when s' <> s -> None
          | _ -> go (i + 1) (Some s))
  in
  go 0 None

(* Admission: an arrival the caller issues more than the target behind
   its schedule has already spent its share of the SLO waiting, so a
   [Low] one is shed and a [High] one runs, counted. The verdict is the
   arrival's own lateness, not an estimate, so no state is shared and
   nothing has to decay. *)
let admitted t ~priority ~sojourn_ns =
  match t.target_ns with
  | Some target when sojourn_ns > target -> (
      match priority with
      | Low ->
          Atomic.incr t.c.shed_low;
          false
      | High ->
          Atomic.incr t.c.deferred_high;
          true)
  | _ -> true

(* A lone Get is looked up in the cache once: a hit completes inline,
   without touching a queue or a transaction (this is where hot-key
   traffic wins), and a miss runs or queues with no second lookup. A
   queued miss is populated by the drain's batch path. *)
let submit t ~thread ?(priority = High) ?(sojourn_ns = 0) ops =
  if not (admitted t ~priority ~sojourn_ns) then Shed (Array.length ops)
  else
    match (ops, t.pool) with
    | [||], _ -> Done [||]
    | [| op |], None -> Done [| exec t ~thread op |]
    | _, None -> Done (exec_batch t ~thread ops)
    | _, Some p -> (
        let hit = match ops with [| op |] -> cached t ~thread op | _ -> None in
        match hit with
        | Some r ->
            Atomic.incr t.c.singles;
            Done [| r |]
        | None -> (
            match queueable_shard t ops with
            | None -> Done (exec_batch t ~thread ops)
            | Some s ->
                let tk = Pool.submit p ~shard:s ~thread ops in
                if Array.length ops = 1 then Atomic.incr t.c.singles
                else Atomic.incr t.c.batches;
                Queued tk))

(* A [Queued] ticket only comes from a pooled service. *)
let await t = function
  | Done rs -> rs
  | Queued tk -> Pool.await (Option.get t.pool) tk
  | Shed n -> Array.make n overload_reply

let try_await t = function
  | Done rs -> Some rs
  | Queued tk -> Pool.try_await (Option.get t.pool) tk
  | Shed n -> Some (Array.make n overload_reply)

let queue_depth t ~shard =
  match t.pool with None -> 0 | Some p -> Pool.queue_depth p ~shard

let queued t = match t.pool with None -> 0 | Some p -> Pool.depth p
let pooled t = Option.is_some t.pool

let shutdown t = Option.iter Pool.shutdown t.pool

let cache_hit_rate t =
  match t.cache with None -> 0. | Some c -> Hotcache.hit_rate c

(* ---- whole-service views ---- *)

let counters t =
  [
    ("singles", Atomic.get t.c.singles);
    ("batches", Atomic.get t.c.batches);
    ("multis", Atomic.get t.c.multis);
    ("multi_aborts", Atomic.get t.c.multi_aborts);
    ("shed_low", Atomic.get t.c.shed_low);
    ("deferred_high", Atomic.get t.c.deferred_high);
  ]
  @ (match t.pool with Some p -> Pool.counters p | None -> [])
  @ match t.cache with Some c -> Hotcache.stats c | None -> []

let finalize_thread t ~thread =
  Array.iter (fun st -> Store.finalize_thread st ~thread) t.stores

let drain t = Array.iter Store.drain t.stores
let size t = Array.fold_left (fun a st -> a + Store.size st) 0 t.stores

let contents t =
  List.sort compare (List.concat_map Store.contents (Array.to_list t.stores))

let sum_opt f t =
  Array.fold_left
    (fun acc st ->
      match (acc, f st) with
      | Some a, Some v -> Some (a + v)
      | None, v -> v
      | acc, None -> acc)
    None t.stores

let pool_live t = sum_opt Store.pool_live t
let leaked t = sum_opt Store.leaked t

let max_backlog t =
  Array.fold_left
    (fun acc st ->
      match (acc, Store.max_backlog st) with
      | Some a, Some v -> Some (max a v)
      | None, v -> v
      | acc, None -> acc)
    None t.stores

let check t =
  let ( let* ) = Result.bind in
  let* () =
    Array.fold_left
      (fun acc (i, st) ->
        let* () = acc in
        match Store.check st with
        | Ok () -> Ok ()
        | Error e -> Error (Printf.sprintf "shard %d: %s" i e))
      (Ok ())
      (Array.mapi (fun i st -> (i, st)) t.stores)
  in
  let* () =
    match t.pool with
    | Some p when Pool.depth p > 0 ->
        Error
          (Printf.sprintf "%d requests still queued (shutdown not run?)"
             (Pool.depth p))
    | _ -> Ok ()
  in
  (* shards partition the keyspace: a key routed to shard s must never
     surface from another shard *)
  let misrouted = ref None in
  Array.iteri
    (fun s st ->
      List.iter
        (fun k ->
          if shard_of_key t k <> s && !misrouted = None then
            misrouted := Some (k, s))
        (Store.contents st))
    t.stores;
  match !misrouted with
  | Some (k, s) ->
      Error (Printf.sprintf "key %d found in shard %d, routes to %d" k s
               (shard_of_key t k))
  | None -> Ok ()

(* ---- the service as a Store ----

   The router satisfies Store_intf.S itself, so anything that drives a
   store — the benchmark driver and its serialization checker included —
   can drive a sharded service unchanged. *)

module As_store = struct
  type nonrec t = t

  let name t = t.label
  let stamped t = Array.for_all Store.stamped t.stores
  let get t ~thread k = exec t ~thread (Store.Get k)
  let insert t ~thread k = exec t ~thread (Store.Insert k)
  let remove t ~thread k = exec t ~thread (Store.Remove k)
  let scan t ~thread ~low ~count = exec_scan t ~thread ~low ~count
  let batch t ~thread ~fuse:_ ops = exec_batch t ~thread ops
  let stats t = Telemetry.Report.snapshot ~label:t.label ()
  let finalize_thread = finalize_thread
  let drain = drain
  let size = size
  let contents = contents
  let check = check
  let pool_live = pool_live
  let max_backlog = max_backlog
  let leaked = leaked
end

let as_store t = Store.pack (module As_store : Store.S with type t = t) t
