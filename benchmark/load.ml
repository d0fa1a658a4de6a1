(* The workloads, their load clients, and one workload run: the body of
   the child process the parent starts for each workload.

   A run builds and prefills the system under test (that is set-up),
   spawns the client domains, runs a warmup window, quiesces, and runs the
   measure window. Every call the clients make into a layer is
   timed from outside; the layers' own public counters are read around the
   measure window. Then the run checks the system: every reply against its
   operation, the final size against the replies, the structural check
   and the leak count after drain, and a short logged probe through
   [Serial_check]. Last, it sets up a few more times, for more set-up
   time samples. *)

open Harness
module Spec = Factories.Spec

let now = Telemetry.now_ns

(* ---- workloads ---- *)

type keys = Uniform | Zipf of float
type target = Store_direct | Service_layer

type workload = {
  name : string;
  spec : Spec.t;
  target : target;
  outstanding : int;  (** requests in flight per client: a closed loop *)
  key_bits : int;
  keys : keys;
  get_pct : int;
  scan_pct : int;
  multi_pct : int;
      (** the rest of the mix are writes, half inserts and half removes *)
}

(* Two client domains: the box has two cores, and the pooled workload adds
   one worker domain per shard on top. *)
let clients = 2
let scan_count = 16
let rr_v = Structs.Mode.Rr_kind (module Rr.V)

let workloads =
  [
    {
      name = "set_bst";
      spec = Spec.v Spec.Bst_int rr_v;
      target = Store_direct;
      outstanding = 1;
      key_bits = 16;
      keys = Uniform;
      get_pct = 50;
      scan_pct = 0;
      multi_pct = 0;
    };
    {
      name = "kv_zipf_pooled";
      spec =
        Spec.v ~window:8 ~shards:2 ~fuse:true ~pool:true ~hotcache:true
          Spec.Slist rr_v;
      target = Service_layer;
      outstanding = 16;
      key_bits = 10;
      keys = Zipf 0.99;
      get_pct = 90;
      scan_pct = 0;
      multi_pct = 2;
    };
    {
      name = "kv_uniform_sync";
      spec = Spec.v ~window:8 ~shards:2 Spec.Slist rr_v;
      target = Service_layer;
      outstanding = 1;
      key_bits = 12;
      keys = Uniform;
      get_pct = 40;
      scan_pct = 5;
      multi_pct = 5;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* The data a workload starts from (which keys are prefilled, which keys
   are hot) is fixed per workload; the seed varies only the request
   streams, each derived from (seed, workload, client). Otherwise the
   seed would also decide how the hot keys fall on the shards, and with
   it the load balance. *)
let data_seed w = Hashtbl.hash w.name
let stream_seed ~seed w = Hashtbl.hash (seed, w.name)

(* The prefilled half of the key range, in random order (the internal BST
   is unbalanced: sorted inserts would make it a list). *)
let prefill_keys ~range w =
  let rng = Workload.Rng.create ~seed:(data_seed w) ~thread:0 in
  let a = Array.init range (fun i -> i + 1) in
  for i = range - 1 downto 1 do
    let j = Workload.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.sub a 0 (range / 2)

type req = Point of Store.op | Multi of Store.op array

(* A request generator over a key range: [shard_of] routes keys, so that a
   multi always spans two shards. *)
let generator w ~seed ~client ~range ~shard_of =
  let rng =
    Workload.Rng.create ~seed:(stream_seed ~seed w) ~thread:(client + 1)
  in
  let draw =
    match w.keys with
    | Uniform -> fun () -> 1 + Workload.Rng.int rng range
    | Zipf theta ->
        let z = Workload.Zipf.create ~seed:(data_seed w) ~theta range in
        fun () -> Workload.Zipf.draw z rng
  in
  fun () ->
    let roll = Workload.Rng.int rng 100 in
    if roll < w.multi_pct then begin
      let k1 = draw () in
      let rec other () =
        let k2 = draw () in
        if shard_of k2 <> shard_of k1 then k2 else other ()
      in
      Multi [| Store.Remove k1; Store.Insert (other ()) |]
    end
    else
      let roll = roll - w.multi_pct in
      if roll < w.get_pct then Point (Store.Get (draw ()))
      else if roll < w.get_pct + w.scan_pct then
        Point (Store.Scan { low = draw (); count = scan_count })
      else if Workload.Rng.int rng 2 = 0 then Point (Store.Insert (draw ()))
      else Point (Store.Remove (draw ()))

(* ---- per-client results ---- *)

(* request classes, indexing [lat] *)
let c_get = 0
let c_write = 1
let c_scan = 2
let c_multi = 3

let class_of = function
  | Store.Get _ -> c_get
  | Store.Insert _ | Store.Remove _ -> c_write
  | Store.Scan _ -> c_scan

type stats = {
  mutable measuring : bool;
  lat : Samples.t array;  (** per class: answered requests of the window, ns *)
  mutable offered : int;  (** requests sent in the window *)
  mutable writes : int;  (** committed inserts and removes in the window *)
  mutable wrong_window : int;
  (* over the whole run, warmup included *)
  mutable inserted : int;
  mutable removed : int;
  mutable wrong : int;
  mutable error : string;
  (* traced run only *)
  submit : Samples.t;
  await : Samples.t;
  multi_call : Samples.t;
  self : Samples.t;
  hit_submit : Samples.t;
  spans : Spans.t option;
}

let stats_create ~traced =
  {
    measuring = false;
    lat = Array.init 4 (fun _ -> Samples.create ());
    offered = 0;
    writes = 0;
    wrong_window = 0;
    inserted = 0;
    removed = 0;
    wrong = 0;
    error = "";
    submit = Samples.create ();
    await = Samples.create ();
    multi_call = Samples.create ();
    self = Samples.create ();
    hit_submit = Samples.create ();
    spans = (if traced then Some (Spans.create ()) else None);
  }

let bad st msg =
  st.wrong <- st.wrong + 1;
  if st.measuring then st.wrong_window <- st.wrong_window + 1;
  if st.error = "" then st.error <- msg

let op_string = function
  | Store.Get k -> Printf.sprintf "get %d" k
  | Store.Insert k -> Printf.sprintf "insert %d" k
  | Store.Remove k -> Printf.sprintf "remove %d" k
  | Store.Scan { low; count } -> Printf.sprintf "scan %d+%d" low count

let note_write st =
  if st.measuring then st.writes <- st.writes + 1

(* Check one reply against its operation. No workload runs under an SLO,
   so an [Overload] reply is wrong too. *)
let check_reply st op (r : Store.reply) =
  let wrong () =
    bad st
      (Printf.sprintf "%s answered %s" (op_string op)
         (Store.outcome_name r.Store.outcome))
  in
  match (op, r.Store.outcome) with
  | Store.Get _, (Store.Found | Store.Absent)
  | Store.Insert _, Store.Duplicate
  | Store.Remove _, Store.Missing ->
      ()
  | Store.Insert _, Store.Inserted ->
      st.inserted <- st.inserted + 1;
      note_write st
  | Store.Remove _, Store.Removed ->
      st.removed <- st.removed + 1;
      note_write st
  | Store.Scan { low; count }, Store.Keys ks ->
      let rec ok prev = function
        | [] -> true
        | k :: rest -> k > prev && k >= low && k < low + count && ok k rest
      in
      if not (ok min_int ks) then wrong ()
  | _ -> wrong ()

(* ---- the run's shared control block ---- *)

type system = Sys_store of Store.t | Sys_service of Service.t

type ctl = {
  ready : int Atomic.t;
  go : bool Atomic.t;
  parked : int Atomic.t;
  measure : int Atomic.t;  (** measure window start time *)
}

type env = {
  w : workload;
  sys : system;
  ctl : ctl;
  seed : int;
  range : int;
  traced : bool;
  warmup_ns : int;
  measure_ns : int;
}

let wait_until f =
  while not (f ()) do
    Unix.sleepf 0.0002
  done

(* A client runs [window] over the warmup, parks until every client has
   drained, and runs [window] over the measure window. *)
let phases env st ~window =
  Atomic.incr env.ctl.ready;
  wait_until (fun () -> Atomic.get env.ctl.go);
  let tw = now () in
  window ~t_end:(tw + env.warmup_ns);
  Atomic.incr env.ctl.parked;
  wait_until (fun () -> Atomic.get env.ctl.measure <> 0);
  let t0 = Atomic.get env.ctl.measure in
  st.measuring <- true;
  window ~t_end:(t0 + env.measure_ns);
  st.measuring <- false

let rid_of ~client n = (n * clients) + client

(* ---- the store client: one direct call at a time ---- *)

let store_client env store client () =
  Tm.Thread.with_registered (fun thread ->
      let st = stats_create ~traced:env.traced in
      let gen =
        generator env.w ~seed:env.seed ~client ~range:env.range
          ~shard_of:(fun _ -> 0)
      in
      let n = ref 0 in
      let window ~t_end =
        let continue = ref true in
        while !continue do
          match gen () with
          | Multi _ | Point (Store.Scan _) -> assert false
          | Point op ->
              let t0 = now () in
              if t0 >= t_end then continue := false
              else begin
                if st.measuring then st.offered <- st.offered + 1;
                let r =
                  match op with
                  | Store.Get k -> Store.get store ~thread k
                  | Store.Insert k -> Store.insert store ~thread k
                  | Store.Remove k -> Store.remove store ~thread k
                  | Store.Scan _ -> assert false
                in
                let t1 = now () in
                check_reply st op r;
                if st.measuring then begin
                  Samples.add st.lat.(class_of op) (t1 - t0);
                  match st.spans with
                  | None -> ()
                  | Some sp ->
                      (* the store call is the whole request: self time 0 *)
                      Samples.add st.self 0;
                      let kind =
                        match op with
                        | Store.Insert _ -> Spans.Store_insert
                        | Store.Remove _ -> Spans.Store_remove
                        | _ -> Spans.Store_get
                      in
                      Spans.request sp ~rid:(rid_of ~client !n) ~t0 ~t1
                        [ (kind, t0, t1) ];
                      incr n
                end
              end
        done
      in
      phases env st ~window;
      Store.finalize_thread store ~thread;
      st)

(* ---- the service client: submit/await with up to [outstanding] in flight ---- *)

type slot = {
  mutable op : Store.op;
  mutable tk : Service.ticket;
  mutable start : int;  (** sent *)
  mutable s0 : int;  (** submit call *)
  mutable s1 : int;
  mutable nr : int;  (** last time the ticket was seen unfinished *)
}

let slot () =
  { op = Store.Get 0; tk = Service.Done [||]; start = 0; s0 = 0; s1 = 0; nr = 0 }

let poll_rounds = 32

(* how a reply was collected *)
type how = At_submit | By_await | By_poll

let service_client env svc client () =
  Tm.Thread.with_registered (fun thread ->
      let w = env.w in
      let st = stats_create ~traced:env.traced in
      let cached = w.spec.Spec.hotcache = Some true in
      let gen =
        generator w ~seed:env.seed ~client ~range:env.range
          ~shard_of:(Service.shard_of_key svc)
      in
      let cap = w.outstanding in
      let pend = Array.init cap (fun _ -> slot ()) in
      let np = ref 0 in
      let scratch = slot () in
      let n = ref 0 in
      let trace ~start ~seen children =
        match st.spans with
        | None -> ()
        | Some sp ->
            let self =
              List.fold_left (fun acc (_, c0, c1) -> acc - (c1 - c0))
                (seen - start) children
            in
            Samples.add st.self self;
            Spans.request sp ~rid:(rid_of ~client !n) ~t0:start ~t1:seen
              children;
            incr n
      in
      let finish p ~seen ~how ~a0 ~a1 replies =
        if Array.length replies <> 1 then bad st (op_string p.op ^ ": reply count")
        else check_reply st p.op replies.(0);
        if st.measuring then begin
          Samples.add st.lat.(class_of p.op) (seen - p.start);
          if env.traced then begin
            Samples.add st.submit (p.s1 - p.s0);
            if how = By_await then Samples.add st.await (a1 - a0);
            trace ~start:p.start ~seen
              ((Spans.Submit, p.s0, p.s1)
               :: (if p.nr > p.s1 then [ (Spans.Pending, p.s1, p.nr) ] else [])
              @
              match how with
              | By_await -> [ (Spans.Await, a0, a1) ]
              | By_poll -> [ (Spans.Try_await, a0, a1) ]
              | At_submit -> [])
          end
        end
      in
      let remove i =
        let last = !np - 1 in
        let p = pend.(i) in
        pend.(i) <- pend.(last);
        pend.(last) <- p;
        np := last;
        p
      in
      (* collect every finished ticket, stamping each when first seen *)
      let sweep () =
        for j = !np - 1 downto 0 do
          let p0 = if env.traced then now () else 0 in
          match Service.try_await svc pend.(j).tk with
          | None -> if env.traced then pend.(j).nr <- p0
          | Some rs ->
              let seen = now () in
              let p = remove j in
              finish p ~seen ~how:By_poll
                ~a0:(if env.traced then p0 else seen)
                ~a1:seen rs
        done
      in
      let await_oldest () =
        let o = ref 0 in
        for j = 1 to !np - 1 do
          if pend.(j).start < pend.(!o).start then o := j
        done;
        let a0 = now () in
        let rs = Service.await svc pend.(!o).tk in
        let a1 = now () in
        let p = remove !o in
        finish p ~seen:a1 ~how:By_await ~a0 ~a1 rs;
        sweep ()
      in
      (* Free a slot: poll every outstanding ticket for a while, and block
         on the oldest only when none finishes. Blocking at once would
         charge each reply that finishes meanwhile with the oldest
         request's wait. *)
      let make_room () =
        let rounds = ref 0 in
        while !np >= cap && !rounds < poll_rounds do
          sweep ();
          Domain.cpu_relax ();
          incr rounds
        done;
        if !np >= cap then await_oldest ()
      in
      let multi ~start ops =
        let m0 = now () in
        let res = Service.multi svc ~thread ops in
        let m1 = now () in
        (match res with
        | Service.Committed rs ->
            if Array.length rs <> Array.length ops then
              bad st "multi: reply count"
            else
              Array.iteri
                (fun i op ->
                  match (op, rs.(i).Store.outcome) with
                  | Store.Insert _, Store.Inserted ->
                      st.inserted <- st.inserted + 1;
                      note_write st
                  | Store.Remove _, Store.Removed ->
                      st.removed <- st.removed + 1;
                      note_write st
                  | _, o ->
                      bad st
                        (Printf.sprintf "committed multi: %s answered %s"
                           (op_string op) (Store.outcome_name o)))
                ops
        | Service.Aborted i ->
            if i < 0 || i >= Array.length ops then
              bad st (Printf.sprintf "multi aborted at index %d" i));
        if st.measuring then begin
          Samples.add st.lat.(c_multi) (m1 - start);
          if env.traced then begin
            Samples.add st.multi_call (m1 - m0);
            trace ~start ~seen:m1 [ (Spans.Multi, m0, m1) ]
          end
        end
      in
      let issue ~start req =
        if st.measuring then st.offered <- st.offered + 1;
        match req with
        | Multi ops -> multi ~start ops
        | Point op -> (
            let s0 = now () in
            let tk = Service.submit svc ~thread [| op |] in
            let s1 = now () in
            let p = match tk with Service.Queued _ -> pend.(!np) | _ -> scratch in
            p.op <- op;
            p.tk <- tk;
            p.start <- start;
            p.s0 <- s0;
            p.s1 <- s1;
            p.nr <- s1;
            match tk with
            | Service.Queued _ -> incr np
            | Service.Done _ | Service.Shed _ ->
                if
                  env.traced && st.measuring && cached
                  && (match (op, tk) with
                     | Store.Get _, Service.Done _ -> true
                     | _ -> false)
                then Samples.add st.hit_submit (s1 - s0);
                finish p ~seen:s1 ~how:At_submit ~a0:s1 ~a1:s1
                  (Service.await svc tk))
      in
      let window ~t_end =
        let continue = ref true in
        while !continue do
          if !np >= cap then make_room ()
          else begin
            let req = gen () in
            let start = now () in
            if start >= t_end then continue := false else issue ~start req
          end
        done;
        while !np > 0 do
          await_oldest ()
        done
      in
      phases env st ~window;
      Service.finalize_thread svc ~thread;
      st)

(* ---- set-up ---- *)

let create_system w =
  match w.target with
  | Store_direct -> Sys_store ((Factories.make w.spec).Factories.make ())
  | Service_layer -> Sys_service (Service.create w.spec)

let insert_all sys keys =
  let thread = Tm.Thread.id () in
  Array.iter
    (fun k ->
      let r =
        match sys with
        | Sys_store s -> Store.insert s ~thread k
        | Sys_service s -> Service.exec s ~thread (Store.Insert k)
      in
      if r.Store.outcome <> Store.Inserted then
        failwith
          (Printf.sprintf "prefill: insert %d answered %s" k
             (Store.outcome_name r.Store.outcome)))
    keys

let shutdown = function
  | Sys_service s -> Service.shutdown s
  | Sys_store _ -> ()

(* One set-up: build the system under test (its pool workers included)
   and prefill it, timed from a compacted heap so that no sample pays for
   the garbage of an earlier one or of the measured run. The load clients
   are not part of it: they are the benchmark, not the system. *)
let build w keys =
  Gc.compact ();
  let t0 = now () in
  let sys = create_system w in
  insert_all sys keys;
  (sys, now () - t0)

(* ---- serializability probe ----

   A short logged run on a fresh instance of the same spec, over a small
   key range so that clients conflict, replayed through Serial_check. Point
   operations go through the same entry points as the workload (direct
   store calls, or submit/await with up to 8 outstanding); a committed
   multi logs each sub-operation at its own stamp. Scans are not point
   operations, so they do not enter the history. *)

let probe_bits = 7
let probe_ops = 400

let probe w ~seed =
  let range = 1 lsl probe_bits in
  let initial = prefill_keys ~range w in
  let sys = create_system w in
  insert_all sys initial;
  let logs = Array.make clients [||] in
  let body c () =
    Tm.Thread.with_registered (fun thread ->
        let shard_of =
          match sys with
          | Sys_service s -> Service.shard_of_key s
          | Sys_store _ -> fun _ -> 0
        in
        let gen = generator w ~seed:(seed + 1) ~client:c ~range ~shard_of in
        let log = ref [] in
        let logged op (r : Store.reply) =
          let entry wop key =
            log :=
              {
                Serial_check.op = wop;
                key;
                result = Store.positive r.Store.outcome;
                earliest = r.Store.earliest;
                stamp = r.Store.stamp;
              }
              :: !log
          in
          match op with
          | Store.Get k -> entry Workload.Lookup k
          | Store.Insert k -> entry Workload.Insert k
          | Store.Remove k -> entry Workload.Remove k
          | Store.Scan _ -> ()
        in
        let pending = Queue.create () in
        let redeem svc =
          let op, tk = Queue.pop pending in
          logged op (Service.await svc tk).(0)
        in
        for _ = 1 to probe_ops do
          match (gen (), sys) with
          | Point (Store.Scan _), _ -> ()
          | Point op, Sys_store s -> logged op (Store.exec s ~thread op)
          | Point op, Sys_service svc ->
              Queue.push (op, Service.submit svc ~thread [| op |]) pending;
              if Queue.length pending >= 8 then redeem svc
          | Multi ops, Sys_service svc -> (
              match Service.multi svc ~thread ops with
              | Service.Committed rs -> Array.iteri (fun i op -> logged op rs.(i)) ops
              | Service.Aborted _ -> ())
          | Multi _, Sys_store _ -> assert false
        done;
        (match sys with
        | Sys_service svc ->
            while not (Queue.is_empty pending) do
              redeem svc
            done;
            Service.finalize_thread svc ~thread
        | Sys_store s -> Store.finalize_thread s ~thread);
        logs.(c) <- Array.of_list (List.rev !log))
  in
  let doms = List.init clients (fun c -> Domain.spawn (body c)) in
  List.iter Domain.join doms;
  let check =
    match sys with
    | Sys_service s ->
        Service.shutdown s;
        Service.check s
    | Sys_store s -> Store.check s
  in
  match check with
  | Error e -> Error e
  | Ok () -> Serial_check.check ~initial:(Array.to_list initial) (Array.to_list logs)

(* ---- one workload run ---- *)

type opts = {
  seed : int;
  seconds : float;
  warmup : float;
  setups : int;  (** set-up samples for [setup_s], the measured run's included *)
  traced : bool;
  spans_dir : string;  (** where a traced run writes its spans *)
}

let ns s = int_of_float (s *. 1e9)
let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6

(* A telemetry-histogram percentile, under the same rule as the exact
   ones: [Samples.min_beyond] samples must lie beyond its rank. *)
let hist_us h q =
  let n = Telemetry.Histogram.count h in
  let rank = ((q * n) + 999) / 1000 in
  if n = 0 || n - rank < Samples.min_beyond then (None, Some n)
  else
    ( Some
        (float_of_int (Telemetry.Histogram.quantile h (float_of_int q /. 1000.))
        /. 1000.),
      Some n )

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  (a.((n - 1) / 2) +. a.(n / 2)) /. 2.

(* What a run collected, for [metrics]. Counter and gauge readings are
   taken at the quiescent point before the window and after the clients'
   final drain. *)
type measured = {
  outs : stats list;
  measure_ns : int;
  setups_ns : int list;
  peak_heap_mb : float;
  live_heap_mb : float;
  leaked : int option;
  depth : Samples.t;  (** sampled pool queue depth (traced, pooled) *)
  tm : Telemetry.Report.t;
  counters : (string * int) list * (string * int) list;
  gauges : Telemetry.Gauges.sample list * Telemetry.Gauges.sample list;
}

(* Every metric of [Metrics.all] the run can give, as (name, value, sample
   count); per-layer ones need the traced run. *)
let metrics ~traced m =
  let emitted = ref [] in
  let emit name (v, n) = emitted := (name, v, n) :: !emitted in
  let value v = (Some v, None) in
  let ratio a b = ((if b = 0. then None else Some (a /. b)), None) in
  let layer v = if traced then v else (None, None) in
  let pcts bufs names =
    let ps = Samples.percentiles bufs (List.map fst names) in
    List.iter2
      (fun (_, name) (p : Samples.pct) ->
        emit name
          (Option.map (fun v -> float_of_int v /. 1000.) p.Samples.value, Some p.count))
      names ps
  in
  let all f = List.map f m.outs in
  let sum f = List.fold_left (fun a st -> a + f st) 0 m.outs in
  let fsum f = float_of_int (sum f) in
  let window_s = float_of_int m.measure_ns /. 1e9 in
  let cls c = all (fun st -> st.lat.(c)) in
  let cd name =
    let get l = Option.value ~default:0 (List.assoc_opt name l) in
    float_of_int (get (snd m.counters) - get (fst m.counters))
  in
  let gsum samples group key =
    List.fold_left
      (fun a (g : Telemetry.Gauges.sample) ->
        if g.group = group then
          a +. Option.value ~default:0. (List.assoc_opt key g.values)
        else a)
      0. samples
  in
  let gd group key = gsum (snd m.gauges) group key -. gsum (fst m.gauges) group key in
  let completed =
    fsum (fun st -> Array.fold_left (fun a b -> a + b.Samples.n) 0 st.lat)
  in
  let writes = fsum (fun st -> st.writes) in
  emit "setup_s" (value (median (List.map float_of_int m.setups_ns) /. 1e9));
  emit "live_heap_mb" (value m.live_heap_mb);
  emit "peak_heap_mb" (value m.peak_heap_mb);
  emit "throughput_rps" (value (completed /. window_s));
  pcts (cls c_get) [ (500, "get_p50_us"); (990, "get_p99_us") ];
  pcts (cls c_write) [ (500, "write_p50_us"); (990, "write_p99_us") ];
  pcts (cls c_multi) [ (990, "multi_p99_us") ];
  pcts (cls c_scan) [ (990, "scan_p99_us") ];
  if traced then begin
    pcts (all (fun st -> st.self)) [ (500, "load.client_self_us_p50") ];
    pcts (all (fun st -> st.submit))
      [ (500, "service.submit_us_p50"); (990, "service.submit_us_p99") ];
    pcts (all (fun st -> st.await))
      [ (500, "service.await_us_p50"); (990, "service.await_us_p99") ];
    pcts (all (fun st -> st.multi_call))
      [ (500, "service.multi_us_p50"); (990, "service.multi_us_p99") ];
    pcts (all (fun st -> st.hit_submit)) [ (500, "hotcache.hit_submit_us_p50") ];
    (* queue depths are counts, not nanoseconds *)
    List.iter2
      (fun name (p : Samples.pct) ->
        emit name (Option.map float_of_int p.Samples.value, Some p.count))
      [ "pool.queue_depth_p50"; "pool.queue_depth_p99" ]
      (Samples.percentiles [ m.depth ] [ 500; 990 ])
  end;
  emit "service.multi_abort_ratio" (layer (ratio (cd "multi_aborts") (cd "multis")));
  emit "pool.requests_per_batch"
    (layer (ratio (cd "drained_requests") (cd "drained_batches")));
  emit "pool.batches_per_s" (layer (value (cd "drained_batches" /. window_s)));
  emit "hotcache.hit_ratio"
    (layer (ratio (cd "cache_hits") (cd "cache_hits" +. cd "cache_misses")));
  emit "hotcache.invalidations_per_write"
    (layer (ratio (cd "cache_invalidations") writes));
  let module R = Telemetry.Report in
  let count h = float_of_int (Telemetry.Histogram.count h) in
  let ops = count m.tm.R.ops in
  let aborts cause =
    List.fold_left
      (fun a (e : Telemetry.Attribution.entry) ->
        if e.cause = cause then a +. float_of_int e.count else a)
      0.
      (Telemetry.Attribution.entries m.tm.R.attribution)
  in
  emit "tm.attempts_per_commit" (layer (ratio (count m.tm.R.attempts) ops));
  emit "tm.commits_per_request" (layer (ratio ops completed));
  emit "tm.aborts_read_per_kcommit"
    (layer (ratio (1000. *. aborts "read_invalid") ops));
  emit "tm.aborts_lock_per_kcommit" (layer (ratio (1000. *. aborts "lock_busy") ops));
  emit "tm.serial_per_krequest"
    (layer (ratio (1000. *. count m.tm.R.serial) completed));
  emit "tm.serial_us_p50" (layer (hist_us m.tm.R.serial 500));
  emit "tm.serial_us_p99" (layer (hist_us m.tm.R.serial 990));
  emit "tm.attempt_us_p50" (layer (hist_us m.tm.R.attempts 500));
  emit "tm.attempt_us_p99" (layer (hist_us m.tm.R.attempts 990));
  emit "rr.revokes_per_write" (layer (ratio (gd "rr" "revokes") writes));
  emit "rr.get_miss_ratio" (layer (ratio (gd "rr" "get_misses") (gd "rr" "gets")));
  emit "mempool.allocs_per_write" (layer (ratio (gd "mempool" "allocs") writes));
  emit "mempool.global_ops_ratio"
    (layer
       (ratio (gd "mempool" "global_ops")
          (gd "mempool" "allocs" +. gd "mempool" "freed")));
  emit "mempool.high_water"
    (layer (value (gsum (snd m.gauges) "mempool" "high_water")));
  emit "reclaim.leaked" (value (float_of_int (Option.value ~default:0 m.leaked)));
  List.rev !emitted

(* Run one workload and print its result: [metric NAME VALUE COUNT] lines
   (VALUE [null] when not measured, COUNT [-] when not a percentile),
   [error MESSAGE] lines, and a final [result CORRECT ATTEMPTED FAILED]. *)
let run w o =
  if o.traced then Telemetry.set_enabled true;
  let range = 1 lsl w.key_bits in
  let keys = prefill_keys ~range w in
  let sys, setup_ns = build w keys in
  let env =
    {
      w;
      sys;
      ctl =
        {
          ready = Atomic.make 0;
          go = Atomic.make false;
          parked = Atomic.make 0;
          measure = Atomic.make 0;
        };
      seed = o.seed;
      range;
      traced = o.traced;
      warmup_ns = ns o.warmup;
      measure_ns = ns o.seconds;
    }
  in
  let doms =
    List.init clients (fun c ->
        Domain.spawn
          (match sys with
          | Sys_store s -> store_client env s c
          | Sys_service s -> service_client env s c))
  in
  wait_until (fun () -> Atomic.get env.ctl.ready = clients);
  Atomic.set env.ctl.go true;
  wait_until (fun () -> Atomic.get env.ctl.parked = clients);
  (* every client has drained its warmup requests: the layers are idle *)
  if o.traced then Telemetry.reset_slots ();
  let counters () =
    match sys with Sys_service svc -> Service.counters svc | Sys_store _ -> []
  in
  let gauges () = if o.traced then Telemetry.Gauges.sample () else [] in
  let c_base = counters () and g_base = gauges () in
  let t0 = now () in
  Atomic.set env.ctl.measure t0;
  let depth = Samples.create () in
  (match sys with
  | Sys_service svc when o.traced && Service.pooled svc ->
      let t1 = t0 + env.measure_ns in
      while now () < t1 do
        Samples.add depth (Service.queued svc);
        Unix.sleepf 0.001
      done
  | _ -> ());
  let outs = List.map Domain.join doms in
  let c_end = counters () and g_end = gauges () in
  let tm = Telemetry.Report.snapshot () in
  (* The heap, read while the system under test is still up (on OCaml 5.1
     [top_heap_words] sums each domain's peak, and a pool worker's share
     drops out of it once the worker ends). The live heap after a full
     collection is what the run left behind; it repeats within about 1%,
     where the peak follows the collector's timing. *)
  let peak_heap_mb = mb (Gc.quick_stat ()).Gc.top_heap_words in
  Gc.full_major ();
  let live_heap_mb = mb (Gc.stat ()).Gc.live_words in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let sum f = List.fold_left (fun a st -> a + f st) 0 outs in
  List.iter
    (fun st ->
      if st.wrong > 0 then fail "%d wrong replies, first: %s" st.wrong st.error)
    outs;
  let thread = Tm.Thread.id () in
  let size, check, leaked =
    match sys with
    | Sys_store st ->
        Store.finalize_thread st ~thread;
        Store.drain st;
        (Store.size st, Store.check st, Store.leaked st)
    | Sys_service svc ->
        Service.finalize_thread svc ~thread;
        Service.shutdown svc;
        Service.drain svc;
        (Service.size svc, Service.check svc, Service.leaked svc)
  in
  let expected =
    Array.length keys + sum (fun st -> st.inserted) - sum (fun st -> st.removed)
  in
  if size <> expected then
    fail "final size %d, but the replies imply %d" size expected;
  (match check with Error e -> fail "check after drain: %s" e | Ok () -> ());
  (match leaked with
  | Some n when n <> 0 -> fail "%d nodes leaked after drain" n
  | _ -> ());
  if o.traced then begin
    if not (Sys.file_exists o.spans_dir) then Sys.mkdir o.spans_dir 0o755;
    Spans.write
      (Filename.concat o.spans_dir (w.name ^ ".spans.json"))
      ~workload:w.name
      (Array.of_list (List.filter_map (fun st -> st.spans) outs))
  end;
  (match probe w ~seed:o.seed with
  | Ok () -> ()
  | Error e -> fail "serializability probe: %s" e);
  (* More set-ups, each torn down at once. They come after the heap is
     read: run before the measured run, they raise its peak. *)
  let extra =
    List.init (o.setups - 1) (fun _ ->
        let sys, t = build w keys in
        shutdown sys;
        t)
  in
  List.iter
    (fun (name, v, n) ->
      Printf.printf "metric %s %s %s\n" name
        (match v with Some v -> Printf.sprintf "%.17g" v | None -> "null")
        (match n with Some n -> string_of_int n | None -> "-"))
    (metrics ~traced:o.traced
       {
         outs;
         measure_ns = env.measure_ns;
         setups_ns = setup_ns :: extra;
         peak_heap_mb;
         live_heap_mb;
         leaked;
         depth;
         tm;
         counters = (c_base, c_end);
         gauges = (g_base, g_end);
       });
  List.iter (fun e -> Printf.printf "error %s\n" e) (List.rev !errors);
  Printf.printf "result %d %d %d\n%!"
    (if !errors = [] then 1 else 0)
    (sum (fun st -> st.offered))
    (sum (fun st -> st.wrong_window))
