type strategy = Size_class | Thread_arena

let strategy_name = function
  | Size_class -> "J-size-class"
  | Thread_arena -> "H-thread-arena"

module Stats = struct
  type t = {
    allocs : int;
    frees : int;
    fresh : int;
    global_ops : int;
    live : int;
    high_water : int;
  }

  let pp ppf t =
    Format.fprintf ppf
      "allocs=%d frees=%d fresh=%d global_ops=%d live=%d high_water=%d"
      t.allocs t.frees t.fresh t.global_ops t.live t.high_water
end

exception Double_free of int

(* A node's state word is a monotonic counter: even = free, odd = live.
   Every alloc and every free bumps it by one, so [(s + 1) lsr 1] counts
   the allocations the node has seen. *)
let is_odd s = s land 1 = 1

type 'a arena = { mutable nodes : 'a list; mutable count : int }

type 'a t = {
  strategy : strategy;
  batch : int;
  make : int -> 'a;
  node_id : 'a -> int;
  state : 'a -> int Atomic.t;
  poison : 'a -> unit;
  tvar_ids : 'a -> int list;
  (* TxSan identity: pools hand out per-pool node ids, so shadow slots are
     keyed by (pool group, node id) packed into one int. *)
  san_group : int;
  next_id : int Atomic.t;
  (* Global freelist. Under [Size_class] nodes are pushed/popped one at a
     time; under [Thread_arena] whole batches move at once. Both are Treiber
     stacks over immutable cons cells, so CAS is ABA-free under OCaml's GC. *)
  global_nodes : 'a list Atomic.t;
  global_batches : 'a list list Atomic.t;
  arenas : 'a arena array;
  allocs : int Atomic.t;
  frees : int Atomic.t;
  fresh : int Atomic.t;
  global_ops : int Atomic.t;
  high_water : int Atomic.t;
}

let create ?(strategy = Thread_arena) ?(batch = 32) ~make ~node_id ~state
    ?(poison = fun _ -> ()) ?(tvar_ids = fun _ -> []) () =
  if batch < 1 then invalid_arg "Mempool.create: batch < 1";
  let t =
    {
      strategy;
      batch;
      make;
      node_id;
      state;
      poison;
      tvar_ids;
      san_group = San.fresh_group ();
      next_id = Atomic.make 0;
      global_nodes = Atomic.make [];
      global_batches = Atomic.make [];
      arenas =
        Array.init Tm.Thread.max_threads (fun _ -> { nodes = []; count = 0 });
      allocs = Atomic.make 0;
      frees = Atomic.make 0;
      fresh = Atomic.make 0;
      global_ops = Atomic.make 0;
      high_water = Atomic.make 0;
    }
  in
  (* Gauge registration happens at construction, so pools built before
     telemetry is switched on cost nothing and report nothing. *)
  if Telemetry.enabled () then
    Telemetry.Gauges.register ~group:"mempool" ~name:(strategy_name strategy)
      (fun () ->
        let allocs = Atomic.get t.allocs and frees = Atomic.get t.frees in
        [
          ("live", float_of_int (allocs - frees));
          ("freed", float_of_int frees);
          ("allocs", float_of_int allocs);
          ("fresh", float_of_int (Atomic.get t.fresh));
          ("global_ops", float_of_int (Atomic.get t.global_ops));
          ("high_water", float_of_int (Atomic.get t.high_water));
        ]);
  t

let strategy t = t.strategy
let id_of t n = t.node_id n
let san_key t n = San.node_key ~group:t.san_group ~node:(t.node_id n)
let is_live t n = is_odd (Atomic.get (t.state n))
let generation t n = (Atomic.get (t.state n) + 1) lsr 1

let rec push_global t n =
  let cur = Atomic.get t.global_nodes in
  if not (Atomic.compare_and_set t.global_nodes cur (n :: cur)) then begin
    Domain.cpu_relax ();
    push_global t n
  end

let rec pop_global t =
  match Atomic.get t.global_nodes with
  | [] -> None
  | n :: rest as cur ->
      if Atomic.compare_and_set t.global_nodes cur rest then Some n
      else begin
        Domain.cpu_relax ();
        pop_global t
      end

let rec push_batch t b =
  let cur = Atomic.get t.global_batches in
  if not (Atomic.compare_and_set t.global_batches cur (b :: cur)) then begin
    Domain.cpu_relax ();
    push_batch t b
  end

let rec pop_batch t =
  match Atomic.get t.global_batches with
  | [] -> None
  | b :: rest as cur ->
      if Atomic.compare_and_set t.global_batches cur rest then Some b
      else begin
        Domain.cpu_relax ();
        pop_batch t
      end

let bump_high_water t =
  let live = Atomic.get t.allocs - Atomic.get t.frees in
  let rec loop () =
    let hw = Atomic.get t.high_water in
    if live > hw && not (Atomic.compare_and_set t.high_water hw live) then
      loop ()
  in
  loop ()

let fabricate t =
  Atomic.incr t.fresh;
  (* Fresh nodes are born free (state 0); the caller marks them live. *)
  t.make (Atomic.fetch_and_add t.next_id 1)

let take_pooled t ~thread =
  match t.strategy with
  | Size_class ->
      Atomic.incr t.global_ops;
      pop_global t
  | Thread_arena -> (
      let a = t.arenas.(thread) in
      match a.nodes with
      | n :: rest ->
          a.nodes <- rest;
          a.count <- a.count - 1;
          Some n
      | [] -> (
          Atomic.incr t.global_ops;
          match pop_batch t with
          | None -> None
          | Some [] -> None
          | Some (n :: rest) ->
              a.nodes <- rest;
              a.count <- List.length rest;
              Some n))

type 'a fresh = 'a

let alloc t ~thread =
  (* DST fault injection: a [Fail] arm on [Mp_alloc] models allocation
     failure (arena and global freelists empty, fabrication refused). *)
  if Dst.point_fails Dst.Mp_alloc then raise (Dst.Injected Dst.Mp_alloc);
  let n = match take_pooled t ~thread with Some n -> n | None -> fabricate t in
  let st = t.state n in
  let s = Atomic.get st in
  if is_odd s || not (Atomic.compare_and_set st s (s + 1)) then
    (* A pooled node must be in the free state; anything else means the
       freelist was corrupted. *)
    failwith "Mempool.alloc: pooled node was not free";
  Atomic.incr t.allocs;
  bump_high_water t;
  if San.enabled () then
    San.mp_alloc ~thread ~node:(san_key t n) ~tvars:(t.tvar_ids n)
      ~stamp:(Tm.clock ());
  n

let stash t ~thread n =
  match t.strategy with
  | Size_class ->
      Atomic.incr t.global_ops;
      push_global t n
  | Thread_arena ->
      let a = t.arenas.(thread) in
      a.nodes <- n :: a.nodes;
      a.count <- a.count + 1;
      if a.count >= 2 * t.batch then begin
        (* Spill one batch to the global stack, keep the rest local. *)
        let rec split k acc rest =
          if k = 0 then (acc, rest)
          else
            match rest with
            | [] -> (acc, [])
            | n :: tl -> split (k - 1) (n :: acc) tl
        in
        let spill, keep = split t.batch [] a.nodes in
        a.nodes <- keep;
        a.count <- a.count - t.batch;
        Atomic.incr t.global_ops;
        push_batch t spill
      end

let free t ~thread n =
  Dst.point Dst.Mp_free;
  let st = t.state n in
  let s = Atomic.get st in
  if (not (is_odd s)) || not (Atomic.compare_and_set st s (s + 1)) then
    raise (Double_free (t.node_id n));
  (* Poisoning is a sanctioned raw write to the dying node's tvars. Its
     pokes raise [Tm.Clock_exhausted] once the clock is spent; the
     exemption must not outlive them. *)
  San.exempt_begin ();
  (match t.poison n with
  | () -> San.exempt_end ()
  | exception e ->
      San.exempt_end ();
      raise e);
  if San.enabled () then
    San.mp_free ~thread ~site:(Tm.current_site ()) ~node:(san_key t n)
      ~stamp:(Tm.clock ());
  Atomic.incr t.frees;
  stash t ~thread n

let flush_arenas t =
  Array.iter
    (fun a ->
      (match t.strategy with
      | Size_class -> List.iter (fun n -> push_global t n) a.nodes
      | Thread_arena -> if a.nodes <> [] then push_batch t a.nodes);
      a.nodes <- [];
      a.count <- 0)
    t.arenas

let live t = Atomic.get t.allocs - Atomic.get t.frees

let stats t =
  let allocs = Atomic.get t.allocs and frees = Atomic.get t.frees in
  {
    Stats.allocs;
    frees;
    fresh = Atomic.get t.fresh;
    global_ops = Atomic.get t.global_ops;
    live = allocs - frees;
    high_water = Atomic.get t.high_water;
  }
