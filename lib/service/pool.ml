(* Per-shard request queues drained by combining.

   Clients submit operation groups asynchronously: a submission lands in
   the owning shard's bounded ring and returns a ticket. No domain is
   dedicated to draining. Each queue has one [draining] flag, and an
   awaiting client that takes it becomes the shard's combiner: it drains
   the queue head into one fused batch under its own TM thread, completes
   every request in that batch (its own and other clients'), and releases
   the flag; a client that finds the flag taken spins until its cell is
   done or the flag frees up (flat combining, Hendler, Incze, Shavit and
   Tzafrir, SPAA 2010). Queue pressure still converts into larger
   transactions — the expensive per-transaction work (clock stamp,
   reserve/check round) is paid once per batch, not once per request
   (DESIGN.md, decision 13).

   The pool is generic over the execution closure so it carries no
   dependency on the router: the service passes a closure that runs
   [Store.batch ~fuse] and invalidates the written keys' hot-cache slots.

   Admission control rides the same queues: a controller projects the
   p99 queueing lag of a new arrival from the shard's queue depth and a
   decaying-max estimate of per-request service time, folds in the
   open-loop lag signal reported by {!note_lag}, and sheds low-priority
   requests ([`Shed], served as [Overload] replies by the service) when
   the projection exceeds the configured SLO. High-priority requests are
   never shed; they are deferred — enqueued anyway — and counted. Both
   signals also decay with the wall time since their last update, so a
   controller that sheds everything, and so sees no further drains or
   lag reports, still calms down.

   Determinism: [submit], and every combining pass that drains nothing,
   yield at the [Svc_enqueue] site and [step] at [Svc_drain], so under
   DST the race for the drain flag between logical client threads is
   explorable and replayable. *)

open Harness

type priority = High | Low

type cell = { mutable c_replies : Store.reply array; c_done : bool Atomic.t }

(* The submitter's thread rides along so that whoever redeems the ticket
   drains under the thread that owns it. *)
type ticket = { cell : cell; shard : int; thread : int }

type req = { r_ops : Store.op array; r_cell : cell }

(* Vyukov-style bounded MPMC ring (used MPSC: one combiner at a time).
   [seq.(i) = pos] means slot [i] is free for the producer of ticket
   [pos]; [seq.(i) = pos + 1] means it holds ticket [pos]'s value. *)
type queue = {
  buf : req option Atomic.t array;
  seq : int Atomic.t array;
  head : int Atomic.t;  (* consumer ticket *)
  tail : int Atomic.t;  (* producer ticket *)
  depth : int Atomic.t;
  svc_p99_ns : int Atomic.t;  (* decaying max of per-request service time *)
  svc_at : int Atomic.t;  (* when [svc_p99_ns] was last updated *)
  drained_reqs : int Atomic.t;
  drained_batches : int Atomic.t;
  draining : bool Atomic.t;  (* held by the one client draining this queue *)
  (* a dequeued request deferred to the next fused batch because it
     touches a key an earlier request in the current batch already
     touches (see [step]); touched only under [draining] *)
  mutable carry : req option;
}

type t = {
  qs : queue array;
  slo_ns : int option;
  exec : shard:int -> thread:int -> Store.op array -> Store.reply array;
  shed_low : int Atomic.t;
  shed_high : int Atomic.t;  (* always 0: High is deferred, never shed *)
  deferred : int Atomic.t;  (* High admitted while the controller would shed *)
  lag_ns : int Atomic.t;  (* EWMA of the reported open-loop schedule lag *)
  lag_at : int Atomic.t;  (* when [lag_ns] was last updated *)
  max_depth : int Atomic.t;
}

let queue_capacity = 1024 (* a power of two *)
let mask = queue_capacity - 1
let drain_ops = 64 (* max operations fused into one drained batch *)

let queue_make () =
  {
    buf = Array.init queue_capacity (fun _ -> Atomic.make None);
    seq = Array.init queue_capacity (fun i -> Atomic.make i);
    head = Pad.atomic 0;
    tail = Pad.atomic 0;
    depth = Pad.atomic 0;
    svc_p99_ns = Pad.atomic 0;
    svc_at = Pad.atomic 0;
    drained_reqs = Pad.atomic 0;
    drained_batches = Pad.atomic 0;
    draining = Pad.atomic false;
    carry = None;
  }

(* ---- queue primitives ---- *)

(* Try to claim one producer ticket; returns false when the ring is full
   at the instant of the attempt. *)
let try_enqueue q r =
  let rec go pos =
    let slot = pos land mask in
    let s = Atomic.get q.seq.(slot) in
    if s = pos then
      if Atomic.compare_and_set q.tail pos (pos + 1) then begin
        Atomic.set q.buf.(slot) (Some r);
        Atomic.set q.seq.(slot) (pos + 1);
        Atomic.incr q.depth;
        true
      end
      else go (Atomic.get q.tail)
    else if s < pos then false (* the slot still holds lap-old data: full *)
    else go (Atomic.get q.tail)
  in
  go (Atomic.get q.tail)

let try_dequeue q =
  let rec go pos =
    let slot = pos land mask in
    let s = Atomic.get q.seq.(slot) in
    if s = pos + 1 then
      if Atomic.compare_and_set q.head pos (pos + 1) then begin
        let r = Atomic.get q.buf.(slot) in
        Atomic.set q.buf.(slot) None;
        Atomic.set q.seq.(slot) (pos + queue_capacity);
        Atomic.decr q.depth;
        r
      end
      else go (Atomic.get q.head)
    else if s <= pos then None (* empty *)
    else go (Atomic.get q.head)
  in
  go (Atomic.get q.head)

(* ---- completion cells ---- *)

(* The replies are written before the flag is set, and read only after
   it is seen set, so the atomic orders them. *)
let complete cell replies =
  cell.c_replies <- replies;
  Atomic.set cell.c_done true

(* ---- admission control ---- *)

(* A signal last updated at [at] halves for every whole interval of 20
   SLOs since, with no update: CoDel's interval is 20 times its target
   delay (Nichols and Jacobson, ACM Queue 2012), and the SLO is ours.
   Without it, a signal that only events move latches: once every Low
   arrival is shed, no drain or lag report comes to lower it. Within an
   interval of an update it is left as it is. Without an SLO nothing is
   shed and nothing decays. *)
let decayed t ~now v at =
  match t.slo_ns with
  | Some slo ->
      let intervals = (now - at) / (20 * slo) in
      if intervals <= 0 then v
      else if intervals >= 62 then 0
      else v asr intervals
  | None -> v

(* EWMA (alpha = 1/8) of the open-loop schedule lag the harness reports;
   racy read-modify-write is fine for a control signal. *)
let note_lag t ns =
  if ns >= 0 then begin
    let now = Telemetry.now_ns () in
    let cur = decayed t ~now (Atomic.get t.lag_ns) (Atomic.get t.lag_at) in
    Atomic.set t.lag_ns (((7 * cur) + ns) / 8);
    Atomic.set t.lag_at now
  end

let lag_now t ~now = decayed t ~now (Atomic.get t.lag_ns) (Atomic.get t.lag_at)

let projected_at t ~now ~shard =
  let q = t.qs.(shard) in
  (Atomic.get q.depth + 1)
  * decayed t ~now (Atomic.get q.svc_p99_ns) (Atomic.get q.svc_at)

let projected_lag_ns t ~shard =
  projected_at t ~now:(Telemetry.now_ns ()) ~shard

(* Would the controller shed a new arrival for [shard] right now? The
   verdict combines the queue projection with the reported open-loop lag
   so a service that is behind schedule sheds even while its queues are
   momentarily shallow. Both signals are compared against HALF the SLO:
   the projection and the EWMA both track the middle of their
   distributions, and the p99 the SLO constrains sits well above the
   middle — shedding at the full budget lands the served tail just past
   it, shedding at half leaves room for the spikes (OS preemption, a
   serial transaction holding the token) the controller cannot see
   coming. *)
let overloaded t ~shard =
  match t.slo_ns with
  | None -> false
  | Some slo ->
      let budget = slo / 2 and now = Telemetry.now_ns () in
      projected_at t ~now ~shard > budget || lag_now t ~now > budget

(* ---- drain ---- *)

(* Decaying max: an overload spike raises the estimate instantly, and it
   relaxes by 1/32 per drained batch afterwards (and with wall time, see
   [decayed]) — a cheap stand-in for a p99 that must react fast to
   congestion. *)
let note_service_time t q ~now ns =
  let cur = decayed t ~now (Atomic.get q.svc_p99_ns) (Atomic.get q.svc_at) in
  Atomic.set q.svc_p99_ns (max ns (max (cur - (cur / 32)) 1));
  Atomic.set q.svc_at now

(* Drain the queue head into one fused batch: requests are popped until
   the fusion budget fills or the queue empties, their ops concatenated
   into a single [exec] call (one transaction per shard pass when the
   service fuses), and the replies scattered back to each request's
   completion cell. Returns the number of requests completed.

   Fusion is conflict-bounded: a batch never carries two requests that
   touch the same key. Fused replies all publish the batch's one commit
   stamp, so two same-key requests fused together would lose their
   relative order in any stamp-sorted history — a read fused before a
   write of its key would replay as if it ran after. The first request
   that conflicts is stashed in [carry] (still counted in [depth]) and
   leads the next batch, preserving FIFO. *)
let step t ~shard ~thread =
  let q = t.qs.(shard) in
  let take () =
    match q.carry with
    | Some r ->
        q.carry <- None;
        Atomic.decr q.depth;
        Some r
    | None -> try_dequeue q
  in
  match take () with
  | None -> 0
  | Some first ->
      let keys = Hashtbl.create 16 in
      let note_keys r =
        Array.iter
          (fun op ->
            match op with
            | Store.Scan _ -> ()
            | op -> Hashtbl.replace keys (Store.op_key op) ())
          r.r_ops
      in
      let conflicts r =
        Array.exists
          (fun op ->
            match op with
            | Store.Scan _ -> true
            | op -> Hashtbl.mem keys (Store.op_key op))
          r.r_ops
      in
      note_keys first;
      let reqs = ref [ first ] in
      let nops = ref (Array.length first.r_ops) in
      let continue = ref true in
      while !continue && !nops < drain_ops do
        match try_dequeue q with
        | None -> continue := false
        | Some r ->
            if conflicts r then begin
              q.carry <- Some r;
              Atomic.incr q.depth;
              continue := false
            end
            else begin
              note_keys r;
              reqs := r :: !reqs;
              nops := !nops + Array.length r.r_ops
            end
      done;
      let reqs = Array.of_list (List.rev !reqs) in
      Dst.point Dst.Svc_drain;
      let ops = Array.concat (Array.to_list (Array.map (fun r -> r.r_ops) reqs)) in
      let t0 = Telemetry.now_ns () in
      let replies = t.exec ~shard ~thread ops in
      let t1 = Telemetry.now_ns () in
      let n = Array.length reqs in
      if n > 0 then note_service_time t q ~now:t1 ((t1 - t0) / n);
      let off = ref 0 in
      Array.iter
        (fun r ->
          let len = Array.length r.r_ops in
          complete r.r_cell (Array.sub replies !off len);
          off := !off + len)
        reqs;
      Atomic.set q.drained_reqs (Atomic.get q.drained_reqs + n);
      Atomic.incr q.drained_batches;
      n

(* ---- combining ---- *)

(* One combining pass: when no other client is draining [shard], take
   its flag, run one [step] under [thread], and release the flag. When
   the flag is taken, or nothing was ready, yield instead: every caller
   loops on this, and the spin must let the flag's holder run. *)
let help t ~shard ~thread =
  let q = t.qs.(shard) in
  let n =
    if
      Atomic.get q.draining
      || not (Atomic.compare_and_set q.draining false true)
    then 0
    else
      match step t ~shard ~thread with
      | n ->
          Atomic.set q.draining false;
          n
      | exception e ->
          Atomic.set q.draining false;
          raise e
  in
  if n = 0 then begin
    Dst.point Dst.Svc_enqueue;
    Domain.cpu_relax ()
  end

(* ---- submission ---- *)

let submit t ~shard ~thread ~priority ops =
  let over = overloaded t ~shard in
  if over && priority = Low then begin
    Atomic.incr t.shed_low;
    `Shed
  end
  else begin
    if over then Atomic.incr t.deferred;
    let cell = { c_replies = [||]; c_done = Atomic.make false } in
    let r = { r_ops = ops; r_cell = cell } in
    Dst.point Dst.Svc_enqueue;
    let q = t.qs.(shard) in
    (* a full ring is backpressure, not overload: drain it, or wait for
       the client draining it — except for Low traffic under an SLO,
       which sheds rather than queue-builds *)
    let rec push () =
      if try_enqueue q r then ()
      else if t.slo_ns <> None && priority = Low then begin
        Atomic.incr t.shed_low;
        raise Exit
      end
      else begin
        help t ~shard ~thread;
        push ()
      end
    in
    match push () with
    | () ->
        let d = Atomic.get q.depth in
        if d > Atomic.get t.max_depth then Atomic.set t.max_depth d;
        `Ticket { cell; shard; thread }
    | exception Exit -> `Shed
  end

(* ---- redemption ---- *)

let try_await t tk =
  if not (Atomic.get tk.cell.c_done) then
    help t ~shard:tk.shard ~thread:tk.thread;
  if Atomic.get tk.cell.c_done then Some tk.cell.c_replies else None

(* A cell not yet done is in the queue or in a batch another client is
   running, so either this client gets the flag and drains toward it, or
   the flag's holder completes it. *)
let rec await t tk =
  if Atomic.get tk.cell.c_done then tk.cell.c_replies
  else begin
    help t ~shard:tk.shard ~thread:tk.thread;
    await t tk
  end

(* ---- lifecycle ---- *)

let create ?slo_ns ~shards ~exec () =
  if shards < 1 then invalid_arg "Pool.create: shards must be >= 1";
  {
    qs = Array.init shards (fun _ -> queue_make ());
    slo_ns;
    exec;
    shed_low = Pad.atomic 0;
    shed_high = Pad.atomic 0;
    deferred = Pad.atomic 0;
    lag_ns = Pad.atomic 0;
    lag_at = Pad.atomic 0;
    max_depth = Pad.atomic 0;
  }

(* Requests nobody awaited are still queued: drain them on the calling
   client's thread. *)
let shutdown t =
  Array.iteri
    (fun shard q ->
      while Atomic.get q.depth > 0 do
        help t ~shard ~thread:(Tm.Thread.id ())
      done)
    t.qs

(* ---- observation ---- *)

let queue_depth t ~shard = Atomic.get t.qs.(shard).depth

let depth t =
  Array.fold_left (fun a q -> a + Atomic.get q.depth) 0 t.qs

let slo_ns t = t.slo_ns
let lag_ewma_ns t = lag_now t ~now:(Telemetry.now_ns ())

let counters t =
  let drained =
    Array.fold_left (fun a q -> a + Atomic.get q.drained_reqs) 0 t.qs
  in
  let batches =
    Array.fold_left (fun a q -> a + Atomic.get q.drained_batches) 0 t.qs
  in
  [
    ("queue_depth", depth t);
    ("queue_max_depth", Atomic.get t.max_depth);
    ("drained_requests", drained);
    ("drained_batches", batches);
    ("shed_low", Atomic.get t.shed_low);
    ("shed_high", Atomic.get t.shed_high);
    ("deferred_high", Atomic.get t.deferred);
  ]
