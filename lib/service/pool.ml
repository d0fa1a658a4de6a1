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

   Admission control is not here: the service sheds a late arrival
   before it reaches a queue (DESIGN.md, decision 13), so the pool only
   queues and drains.

   Determinism: [submit], and every combining pass that drains nothing,
   yield at the [Svc_enqueue] site and [step] at [Svc_drain], so under
   DST the race for the drain flag between logical client threads is
   explorable and replayable. *)

open Harness

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
  drained_reqs : int Atomic.t;
  drained_batches : int Atomic.t;
  draining : bool Atomic.t;  (* held by the one client draining this queue *)
  mutable backlog : req list;  (* touched only under [draining] *)
}

type t = {
  qs : queue array;
  exec : shard:int -> thread:int -> Store.op array -> Store.reply array;
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

(* ---- drain ---- *)

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

(* A full queue is backpressure: drain it, or wait for the client
   draining it. *)
let rec make_room t q ~shard ~thread =
  if Atomic.get q.depth >= queue_capacity then begin
    help t ~shard ~thread;
    make_room t q ~shard ~thread
  end

let submit t ~shard ~thread ops =
  Dst.point Dst.Svc_enqueue;
  let q = t.qs.(shard) in
  make_room t q ~shard ~thread;
  let cell = { c_replies = [||]; c_done = Atomic.make false } in
  Atomic.incr q.depth;
  push q { r_ops = ops; r_cell = cell };
  let d = Atomic.get q.depth in
  if d > Atomic.get t.max_depth then Atomic.set t.max_depth d;
  { cell; shard; thread }

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

let create ~shards ~exec () =
  if shards < 1 then invalid_arg "Pool.create: shards must be >= 1";
  {
    qs = Array.init shards (fun _ -> queue_make ());
    exec;
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
  ]
