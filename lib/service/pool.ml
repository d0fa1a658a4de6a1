(* Per-shard request queues drained by combining.

   Clients submit operation groups asynchronously: a submission is
   pushed onto the owning shard's queue and returns a ticket. No domain is
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

(* Each queue is a combining stack plus a private backlog. Submitters
   push onto [pending] (newest first). The client holding [draining]
   takes requests from [backlog], oldest first, and refills an empty
   backlog with everything pending, reversed. Only queued requests take
   memory. *)
type queue = {
  pending : req list Atomic.t;
  depth : int Atomic.t;  (* pushed and not yet taken into a batch *)
  svc_p99_ns : int Atomic.t;  (* decaying max of per-request service time *)
  svc_at : int Atomic.t;  (* when [svc_p99_ns] was last updated *)
  drained_reqs : int Atomic.t;
  drained_batches : int Atomic.t;
  draining : bool Atomic.t;  (* held by the one client draining this queue *)
  mutable backlog : req list;  (* touched only under [draining] *)
}

type t = {
  qs : queue array;
  slo_ns : int option;
  exec : shard:int -> thread:int -> Store.op array -> Store.reply array;
  shed_low : int Atomic.t;
  shed_high : int Atomic.t;  (* always 0: High is deferred, never shed *)
  deferred : int Atomic.t;  (* High admitted while the controller would shed *)
  lag_ns : int Atomic.t;  (* EWMA of the reported open-loop schedule lag *)
  lag_last : int Atomic.t;  (* the last reported lag, as it was *)
  lag_at : int Atomic.t;  (* when [lag_ns] and [lag_last] were last set *)
  max_depth : int Atomic.t;
}

(* A check of [depth], not a size: submitters that pass it together may
   all push, so a queue can exceed it by the number of concurrent
   submitters. *)
let queue_capacity = 1024
let drain_ops = 64 (* max operations fused into one drained batch *)

let queue_make () =
  {
    pending = Pad.atomic [];
    depth = Pad.atomic 0;
    svc_p99_ns = Pad.atomic 0;
    svc_at = Pad.atomic 0;
    drained_reqs = Pad.atomic 0;
    drained_batches = Pad.atomic 0;
    draining = Pad.atomic false;
    backlog = [];
  }

(* ---- queue primitives ---- *)

let rec push q r =
  let cur = Atomic.get q.pending in
  if not (Atomic.compare_and_set q.pending cur (r :: cur)) then push q r

(* The oldest request not yet taken, under [draining]. *)
let take q =
  match q.backlog with
  | r :: rest ->
      q.backlog <- rest;
      Some r
  | [] -> (
      match List.rev (Atomic.exchange q.pending []) with
      | [] -> None
      | r :: rest ->
          q.backlog <- rest;
          Some r)

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

let lag_ewma t ~now =
  decayed t ~now (Atomic.get t.lag_ns) (Atomic.get t.lag_at)

(* The lag signal: the EWMA, or the last report while it is younger than
   one SLO. A client reports its lag just before it submits, so a fresh
   report is the lag of the arrival being judged. After a stall (a
   preemption, a long drain) that arrival is already later than the EWMA
   says, and one late report lifts a 1/8 EWMA by only an eighth of it:
   judged by the EWMA alone, the first arrivals after a stall are
   admitted and served past the SLO. *)
let lag_now t ~now =
  let ewma = lag_ewma t ~now in
  match t.slo_ns with
  | Some slo when now - Atomic.get t.lag_at < slo ->
      max ewma (Atomic.get t.lag_last)
  | _ -> ewma

(* EWMA (alpha = 1/8) of the open-loop schedule lag the harness reports;
   racy read-modify-write is fine for a control signal. *)
let note_lag t ns =
  if ns >= 0 then begin
    let now = Telemetry.now_ns () in
    Atomic.set t.lag_ns (((7 * lag_ewma t ~now) + ns) / 8);
    Atomic.set t.lag_last ns;
    Atomic.set t.lag_at now
  end

(* Would the controller shed a new arrival for [shard] right now? The
   verdict combines the queue projection ((depth + 1) x the decaying-max
   per-request service time) with the reported open-loop lag ([lag_now])
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
      let q = t.qs.(shard) and budget = slo / 2 in
      let now = Telemetry.now_ns () in
      (Atomic.get q.depth + 1)
      * decayed t ~now (Atomic.get q.svc_p99_ns) (Atomic.get q.svc_at)
      > budget
      || lag_now t ~now > budget

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
   that conflicts goes back to the head of the backlog (still counted in
   [depth]) and leads the next batch, preserving FIFO. *)
let step t ~shard ~thread =
  let q = t.qs.(shard) in
  match take q with
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
      let rec gather reqs nops =
        if nops >= drain_ops then reqs
        else
          match take q with
          | None -> reqs
          | Some r when conflicts r ->
              q.backlog <- r :: q.backlog;
              reqs
          | Some r ->
              note_keys r;
              gather (r :: reqs) (nops + Array.length r.r_ops)
      in
      note_keys first;
      let reqs = List.rev (gather [ first ] (Array.length first.r_ops)) in
      let n = List.length reqs in
      ignore (Atomic.fetch_and_add q.depth (-n));
      Dst.point Dst.Svc_drain;
      let ops = Array.concat (List.map (fun r -> r.r_ops) reqs) in
      let t0 = Telemetry.now_ns () in
      let replies =
        try t.exec ~shard ~thread ops
        with e ->
          (* Nothing was applied (the fused transaction is failure-atomic,
             and cache bumps run only after it returns): the batch goes
             back to the head of the backlog, oldest first, and into
             [depth], so a later drain completes every ticket in it. *)
          q.backlog <- reqs @ q.backlog;
          ignore (Atomic.fetch_and_add q.depth n);
          raise e
      in
      let t1 = Telemetry.now_ns () in
      note_service_time t q ~now:t1 ((t1 - t0) / n);
      ignore
        (List.fold_left
           (fun off r ->
             let len = Array.length r.r_ops in
             complete r.r_cell (Array.sub replies off len);
             off + len)
           0 reqs);
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

let shed t =
  Atomic.incr t.shed_low;
  `Shed

(* A full queue is backpressure, not overload: drain it, or wait for the
   client draining it — except for Low traffic under an SLO, which sheds
   rather than queue-builds. *)
let rec has_room t q ~shard ~thread ~priority =
  if Atomic.get q.depth < queue_capacity then true
  else if t.slo_ns <> None && priority = Low then false
  else begin
    help t ~shard ~thread;
    has_room t q ~shard ~thread ~priority
  end

let submit t ~shard ~thread ~priority ops =
  let over = overloaded t ~shard in
  if over && priority = Low then shed t
  else begin
    if over then Atomic.incr t.deferred;
    Dst.point Dst.Svc_enqueue;
    let q = t.qs.(shard) in
    if not (has_room t q ~shard ~thread ~priority) then shed t
    else begin
      let cell = { c_replies = [||]; c_done = Atomic.make false } in
      Atomic.incr q.depth;
      push q { r_ops = ops; r_cell = cell };
      let d = Atomic.get q.depth in
      if d > Atomic.get t.max_depth then Atomic.set t.max_depth d;
      `Ticket { cell; shard; thread }
    end
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
    lag_last = Pad.atomic 0;
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
