(* Sustained-load service harness (`main.exe service` / `service-matrix`).

   Drives a sharded Service.t the way a serving system sees traffic
   instead of the paper's fixed-op-count microbenchmarks: open- or
   closed-loop arrivals, Zipfian key skew, a read/write/scan/multi mix,
   a warmup window followed by a steady-state measurement window, and
   per-op-class latency quantiles (p50/p99/p999) taken from
   lib/telemetry histograms. The run emits a [hohtx-load/1] JSON
   artifact; `main.exe service-smoke` runs a miniature probe matrix and
   validates the emitted file against the schema (the
   @service-load-smoke alias).

   Clients issue through the service's async [submit]/[await] path with
   a bounded pipeline of outstanding tickets ([pipeline] = 1 degrades to
   synchronous issue), so the pooled configurations are driven the way
   they are meant to be used: many requests in flight per client, and
   the awaiting clients draining each shard's queue into fused batches
   (combining: no domain beyond the clients runs). Point requests are
   submitted [Low] priority — they are the sheddable class — with their
   sojourn: how late the open-loop client issues them against their
   schedule (a closed loop passes none, so it never sheds). Multis stay
   synchronous (and are implicitly [High]: a multi never sheds).

   The probe matrix ([run_matrix]) sweeps the service knobs over one
   workload: caller-runs baseline, +pool, +pool+hotcache, and
   caller-runs +hotcache under closed loop, then an open-loop pair
   (baseline vs all-on: pool, hotcache and an SLO) at a rate past the
   measured baseline capacity (twice it, capped at the pool+hotcache
   closed-loop capacity), where the baseline must blow through the SLO
   and admission control must keep the served p99 under it. Both
   verdicts are recorded in the document and enforced by schema
   validation — and any failed verdict prints a one-line repro
   command.

   Open-loop latency is coordinated-omission aware: each request has a
   scheduled arrival time on a fixed cadence, and its latency is
   completion minus *scheduled* arrival — a stalled service accumulates
   the backlog delay into every queued request instead of silently
   pausing the clock. Closed-loop measures completion minus issue. *)

open Harness
module Spec = Factories.Spec
module Json = Telemetry.Json
module Hist = Telemetry.Histogram

let schema = "hohtx-load/1"
let default_out = "BENCH_service.json"

type arrival = Open_loop of float  (** target req/s, all threads *) | Closed_loop

type params = {
  spec : Spec.t;  (** per-shard store recipe + shards/fuse knobs *)
  threads : int;
  key_bits : int;
  theta : float;  (** Zipfian skew; 0 = uniform *)
  read_pct : int;
  scan_pct : int;  (** remainder after reads+scans splits insert/remove *)
  multi_pct : int;  (** % of requests issued as cross-shard multis *)
  batch : int;  (** point ops per request (router batches per shard) *)
  pipeline : int;  (** outstanding async submissions per client; 1 = sync *)
  arrival : arrival;
  warmup_s : float;
  measure_s : float;
  seed : int;
  json_stdout : bool;
  out : string;
}

let scan_count = 16

(* ---- request generation ---- *)

type req = Req_batch of Store.op array | Req_multi of Store.op array

let gen_point zipf rng p =
  let key = Workload.Zipf.draw zipf rng in
  let roll = Workload.Rng.int rng 100 in
  if roll < p.read_pct then Store.Get key
  else if roll < p.read_pct + p.scan_pct then
    Store.Scan { low = key; count = scan_count }
  else if (roll - p.read_pct - p.scan_pct) mod 2 = 0 then Store.Insert key
  else Store.Remove key

let gen_req zipf rng p =
  if Workload.Rng.int rng 100 < p.multi_pct then begin
    (* a two-key transfer-shaped multi: remove one key, insert another —
       routed to (usually) different shards *)
    let k1 = Workload.Zipf.draw zipf rng in
    let k2 = Workload.Zipf.draw zipf rng in
    if k1 = k2 then Req_batch [| Store.Get k1 |]
    else Req_multi [| Store.Remove k1; Store.Insert k2 |]
  end
  else Req_batch (Array.init p.batch (fun _ -> gen_point zipf rng p))

(* ---- load workers ---- *)

type phase = Warmup | Measure | Done

type class_hists = {
  h_get : Hist.t;
  h_scan : Hist.t;
  h_write : Hist.t;
  h_multi : Hist.t;
}

let class_hists () =
  {
    h_get = Hist.create ();
    h_scan = Hist.create ();
    h_write = Hist.create ();
    h_multi = Hist.create ();
  }

let reset_class_hists h =
  Hist.reset h.h_get;
  Hist.reset h.h_scan;
  Hist.reset h.h_write;
  Hist.reset h.h_multi

type worker_out = {
  w_hists : class_hists;
  w_reqs : int;  (** requests served in the measurement window *)
  w_sheds : int;  (** requests shed by admission control in the window *)
  w_multi_aborts : int;
  w_behind_ns : int;  (** open loop: worst lag behind the arrival schedule *)
}

(* One in-flight async submission awaiting redemption. *)
type pending = {
  pd_ticket : Service.ticket;
  pd_ops : Store.op array;
  pd_scheduled : int;
}

let worker ~svc ~p ~zipf ~phase d () =
  Tm.Thread.with_registered (fun tid ->
      let rng = Workload.Rng.create ~seed:p.seed ~thread:(d + 1) in
      let hists = class_hists () in
      let interval_ns =
        match p.arrival with
        | Closed_loop -> 0.
        | Open_loop rate -> float_of_int p.threads /. rate *. 1e9
      in
      let base = Telemetry.now_ns () in
      let i = ref 0 in
      let measured = ref 0 in
      let sheds = ref 0 in
      let multi_aborts = ref 0 in
      let behind = ref 0 in
      let measuring = ref false in
      let record h ~scheduled ~completed =
        if !measuring then Hist.record h (completed - scheduled)
      in
      (* Redeem one pending submission and record its per-op latencies.
         A request whose replies are all [Overload] was shed: it counts
         as shed, not served, and stays out of the latency histograms
         (the controller's whole point is that it never ran). *)
      let redeem pd =
        let replies = Service.await svc pd.pd_ticket in
        let completed = Telemetry.now_ns () in
        let shed = ref (Array.length replies > 0) in
        Array.iter
          (fun (r : Store.reply) ->
            if r.Store.outcome <> Store.Overload then shed := false)
          replies;
        if !shed then begin
          if !measuring then incr sheds
        end
        else begin
          Array.iteri
            (fun j op ->
              ignore replies.(j);
              let h =
                match op with
                | Store.Get _ -> hists.h_get
                | Store.Scan _ -> hists.h_scan
                | Store.Insert _ | Store.Remove _ -> hists.h_write
              in
              record h ~scheduled:pd.pd_scheduled ~completed)
            pd.pd_ops;
          if !measuring then incr measured
        end
      in
      (* FIFO window of outstanding submissions, capped at p.pipeline *)
      let pending = Queue.create () in
      let continue = ref true in
      while !continue do
        (match Atomic.get phase with
        | Warmup -> ()
        | Measure ->
            if not !measuring then begin
              (* steady state begins: drop warmup samples *)
              reset_class_hists hists;
              measured := 0;
              sheds := 0;
              multi_aborts := 0;
              measuring := true
            end
        | Done -> continue := false);
        if !continue then begin
          let scheduled =
            match p.arrival with
            | Closed_loop -> Telemetry.now_ns ()
            | Open_loop _ ->
                let s = base + int_of_float (float_of_int !i *. interval_ns) in
                let now = Telemetry.now_ns () in
                if now < s then
                  (* ahead of schedule: spin down to the arrival tick *)
                  while Telemetry.now_ns () < s do
                    Domain.cpu_relax ()
                  done
                else if now - s > !behind then behind := now - s;
                s
          in
          (match gen_req zipf rng p with
          | Req_batch ops ->
              while Queue.length pending >= p.pipeline do
                redeem (Queue.pop pending)
              done;
              (* an open-loop arrival's sojourn is how late it is issued;
                 a closed loop issues on time by definition *)
              let sojourn_ns =
                match p.arrival with
                | Closed_loop -> None
                | Open_loop _ -> Some (max 0 (Telemetry.now_ns () - scheduled))
              in
              let tk =
                Service.submit svc ~thread:tid ~priority:Service.Low
                  ?sojourn_ns ops
              in
              Queue.push { pd_ticket = tk; pd_ops = ops; pd_scheduled = scheduled }
                pending
          | Req_multi ops -> (
              (* multis stay synchronous: [Service.multi] has no queued
                 path *)
              let r = Service.multi svc ~thread:tid ops in
              let completed = Telemetry.now_ns () in
              record hists.h_multi ~scheduled ~completed;
              if !measuring then incr measured;
              match r with
              | Service.Aborted _ -> if !measuring then incr multi_aborts
              | Service.Committed _ -> ()));
          incr i
        end
      done;
      while not (Queue.is_empty pending) do
        redeem (Queue.pop pending)
      done;
      Service.finalize_thread svc ~thread:tid;
      {
        w_hists = hists;
        w_reqs = !measured;
        w_sheds = !sheds;
        w_multi_aborts = !multi_aborts;
        w_behind_ns = !behind;
      })

(* ---- serializability probe ----

   A short fixed-op-count segment with full logging: every point op and
   every multi sub-op is logged with its commit stamp, then the combined
   cross-shard history must replay under Serial_check. This is the
   "cross-shard multis stay serializable" acceptance check,
   run against the same service instance shape as the load loop. *)

let verify_probe ~p ~threads ~ops_per_thread =
  let svc = Service.create p.spec in
  let tid0 = Tm.Thread.id () in
  let key_range = 1 lsl p.key_bits in
  let initial = List.init (key_range / 2) (fun i -> (2 * i) + 1) in
  List.iter
    (fun k -> ignore (Service.exec svc ~thread:tid0 (Store.Insert k)))
    initial;
  let body d ~thread =
    let rng = Workload.Rng.create ~seed:(p.seed + 17) ~thread:(d + 1) in
    fun () ->
      let log = ref [] in
      let logged op r = log := Serial_check.of_reply op r :: !log in
      let exec op = logged op (Service.exec svc ~thread op) in
      for _ = 1 to ops_per_thread do
        let k1 = 1 + Workload.Rng.int rng key_range in
        let k2 = 1 + Workload.Rng.int rng key_range in
        match Workload.Rng.int rng 4 with
        | 0 when k1 <> k2 -> (
            (* cross-shard transfer: one transaction, so both sub-ops
               are logged at its one commit stamp *)
            let ops = [| Store.Remove k1; Store.Insert k2 |] in
            match Service.multi svc ~thread ops with
            | Service.Committed rs -> Array.iteri (fun i -> logged ops.(i)) rs
            | Service.Aborted _ -> ())
        | 1 -> exec (Store.Insert k1)
        | 2 -> exec (Store.Remove k1)
        | _ -> exec (Store.Get k1)
      done;
      Service.finalize_thread svc ~thread;
      Array.of_list (List.rev !log)
  in
  let _, logs = Driver.timed threads body in
  Service.shutdown svc;
  Service.drain svc;
  let ops = List.fold_left (fun a l -> a + Array.length l) 0 logs in
  let verdict =
    match Service.check svc with
    | Error _ as e -> e
    | Ok () -> Serial_check.check ~initial logs
  in
  (ops, verdict)

(* ---- report ---- *)

let quantiles_json name h =
  Json.Obj
    [
      ("class", Json.String name);
      ("count", Json.Int (Hist.count h));
      ("mean_ns", Json.Float (if Hist.is_empty h then 0. else Hist.mean h));
      ("p50_ns", Json.Int (Hist.quantile h 0.5));
      ("p99_ns", Json.Int (Hist.quantile h 0.99));
      ("p999_ns", Json.Int (Hist.quantile h 0.999));
      ("max_ns", Json.Int (Hist.max_value h));
    ]

type load_out = {
  l_label : string;
  l_shards : int;
  l_counters : (string * int) list;
  l_window : (string * int) list;
      (** the counters' growth over the measure window, warm-up excluded *)
  l_measured_s : float;
  l_hists : class_hists;
  l_reqs : int;
  l_sheds : int;
  l_multi_aborts : int;
  l_behind_ns : int;
  l_qdepth : Hist.t;  (** sampled total queue depth over the window *)
  l_hit_rate : float;
  l_check : (unit, string) result;
}

let counter_of counters name =
  Option.value ~default:0 (List.assoc_opt name counters)

let run_load p =
  let svc = Service.create p.spec in
  let tid = Tm.Thread.id () in
  let key_range = 1 lsl p.key_bits in
  (* 50% prefill, odd keys: inserts and removes both start with work *)
  for i = 0 to (key_range / 2) - 1 do
    ignore (Service.exec svc ~thread:tid (Store.Insert ((2 * i) + 1)))
  done;
  let zipf = Workload.Zipf.create ~seed:p.seed ~theta:p.theta key_range in
  let phase = Atomic.make Warmup in
  let domains =
    List.init p.threads (fun d ->
        Domain.spawn (worker ~svc ~p ~zipf ~phase d))
  in
  Unix.sleepf p.warmup_s;
  Atomic.set phase Measure;
  let c0 = Service.counters svc in
  let t0 = Telemetry.now_ns () in
  (* sample the pool's total queue depth through the window (~1ms grain)
     instead of sleeping blind: the report carries depth percentiles *)
  let qdepth = Hist.create () in
  let deadline = t0 + int_of_float (p.measure_s *. 1e9) in
  while Telemetry.now_ns () < deadline do
    Hist.record qdepth (Service.queued svc);
    Unix.sleepf 0.001
  done;
  Atomic.set phase Done;
  let t1 = Telemetry.now_ns () in
  let c1 = Service.counters svc in
  let outs = List.map Domain.join domains in
  Service.shutdown svc;
  Service.drain svc;
  let measured_s = float_of_int (t1 - t0) /. 1e9 in
  let merged = class_hists () in
  List.iter
    (fun o ->
      Hist.merge ~into:merged.h_get o.w_hists.h_get;
      Hist.merge ~into:merged.h_scan o.w_hists.h_scan;
      Hist.merge ~into:merged.h_write o.w_hists.h_write;
      Hist.merge ~into:merged.h_multi o.w_hists.h_multi)
    outs;
  {
    l_label = Service.label svc;
    l_shards = Service.shards svc;
    l_counters = Service.counters svc;
    l_window = List.map (fun (k, v) -> (k, v - counter_of c0 k)) c1;
    l_measured_s = measured_s;
    l_hists = merged;
    l_reqs = List.fold_left (fun a o -> a + o.w_reqs) 0 outs;
    l_sheds = List.fold_left (fun a o -> a + o.w_sheds) 0 outs;
    l_multi_aborts = List.fold_left (fun a o -> a + o.w_multi_aborts) 0 outs;
    l_behind_ns = List.fold_left (fun a o -> max a o.w_behind_ns) 0 outs;
    l_qdepth = qdepth;
    l_hit_rate = Service.cache_hit_rate svc;
    l_check = Service.check svc;
  }

(* One measured configuration: the load window and the serializability
   probe. [summarize] prints it and [run_json] renders it. *)
type run = {
  params : params;
  load : load_out;
  probe_ops : int;
  probe : (unit, string) result;
}

let measure p =
  let load = run_load p in
  let probe_ops, probe =
    verify_probe ~p ~threads:(min p.threads 4) ~ops_per_thread:400
  in
  { params = p; load; probe_ops; probe }

let throughput r = float_of_int r.load.l_reqs /. r.load.l_measured_s
let arrival_name = function Open_loop _ -> "open" | Closed_loop -> "closed"
let verdict_string = function Ok () -> "ok" | Error e -> e

let run_json ?config ~mode r =
  let p = r.params and o = r.load in
  let counters = o.l_counters in
  Json.Obj
    ((match config with Some n -> [ ("config", Json.String n) ] | None -> [])
    @ [
        ("schema", Json.String schema);
        ("bench", Json.String "service");
        ("mode", Json.String mode);
        ("label", Json.String o.l_label);
        ("spec", Spec.to_json p.spec);
        ("shards", Json.Int o.l_shards);
        ("threads", Json.Int p.threads);
        ("arrival", Json.String (arrival_name p.arrival));
        ( "target_rate",
          Json.Float
            (match p.arrival with Open_loop r -> r | Closed_loop -> 0.) );
        ("theta", Json.Float p.theta);
        ("key_bits", Json.Int p.key_bits);
        ( "mix",
          Json.Obj
            [
              ("read_pct", Json.Int p.read_pct);
              ("scan_pct", Json.Int p.scan_pct);
              ("multi_pct", Json.Int p.multi_pct);
              ("batch", Json.Int p.batch);
            ] );
        ("pipeline", Json.Int p.pipeline);
        ("warmup_s", Json.Float p.warmup_s);
        ("measure_s", Json.Float o.l_measured_s);
        ("requests", Json.Int o.l_reqs);
        ("throughput", Json.Float (throughput r));
        ("multi_aborts", Json.Int o.l_multi_aborts);
        ("max_schedule_lag_ns", Json.Int o.l_behind_ns);
        ( "queue_depth",
          Json.Obj
            [
              ("samples", Json.Int (Hist.count o.l_qdepth));
              ("p50", Json.Int (Hist.quantile o.l_qdepth 0.5));
              ("p99", Json.Int (Hist.quantile o.l_qdepth 0.99));
              ("max", Json.Int (Hist.max_value o.l_qdepth));
            ] );
        ( "cache",
          Json.Obj
            [
              ("hit_rate", Json.Float o.l_hit_rate);
              ("hits", Json.Int (counter_of counters "cache_hits"));
              ("misses", Json.Int (counter_of counters "cache_misses"));
              ( "invalidations",
                Json.Int (counter_of counters "cache_invalidations") );
            ] );
        ( "sheds",
          Json.Obj
            [
              ("low", Json.Int (counter_of o.l_window "shed_low"));
              ( "deferred_high",
                Json.Int (counter_of o.l_window "deferred_high") );
              ("shed_requests", Json.Int o.l_sheds);
            ] );
        ( "classes",
          Json.List
            [
              quantiles_json "get" o.l_hists.h_get;
              quantiles_json "scan" o.l_hists.h_scan;
              quantiles_json "write" o.l_hists.h_write;
              quantiles_json "multi" o.l_hists.h_multi;
            ] );
        ( "counters",
          Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counters) );
        ("service_check", Json.String (verdict_string o.l_check));
        ( "serial_check",
          Json.Obj
            [
              ("ops", Json.Int r.probe_ops);
              ("passed", Json.Bool (r.probe = Ok ()));
              ("verdict", Json.String (verdict_string r.probe));
            ] );
      ])

(* ---- schema validation ---- *)

let validate js =
  let open Json in
  let some = Option.some in
  let* () = expect_schema schema js in
  let* _ = field "bench" to_string_opt js in
  let* _ = field "mode" to_string_opt js in
  let* label = field "label" to_string_opt js in
  let* spec_js = field "spec" some js in
  let* spec =
    match Spec.of_json spec_js with
    | Ok sp -> Ok sp
    | Error e -> err "embedded spec: %s" e
  in
  let* shards = field "shards" to_int js in
  let* () = if shards >= 1 then Ok () else err "shards < 1" in
  let* () =
    let expect = Spec.label { spec with Spec.shards = Some shards } in
    if String.equal label expect then Ok ()
    else err "label %S does not match spec label %S" label expect
  in
  let* threads = field "threads" to_int js in
  let* () = if threads >= 1 then Ok () else err "threads < 1" in
  let* arrival = field "arrival" to_string_opt js in
  let* () =
    if arrival = "open" || arrival = "closed" then Ok ()
    else err "arrival %S" arrival
  in
  let* theta = field "theta" to_float js in
  let* () = if theta >= 0. then Ok () else err "negative theta" in
  let* measure = field "measure_s" to_float js in
  let* () = if measure > 0. then Ok () else err "measure_s <= 0" in
  let* reqs = field "requests" to_int js in
  let* () = if reqs > 0 then Ok () else err "no measured requests" in
  let* tput = field "throughput" to_float js in
  let* () = if tput > 0. then Ok () else err "throughput <= 0" in
  let quantiles c =
    let* name = field "class" to_string_opt c in
    let* count = field "count" to_int c in
    let* p50 = field "p50_ns" to_int c in
    let* p99 = field "p99_ns" to_int c in
    let* p999 = field "p999_ns" to_int c in
    let* mx = field "max_ns" to_int c in
    let* _ = field "mean_ns" to_float c in
    if count < 0 then err "class %s: negative count" name
    else if count > 0 && not (p50 <= p99 && p99 <= p999 && p999 <= mx) then
      err "class %s: quantiles not monotone" name
    else Ok ()
  in
  let* classes = each "classes" quantiles js in
  let* () =
    let names = [ "get"; "scan"; "write"; "multi" ] in
    if
      List.length classes = List.length names
      && List.for_all (fun n -> Result.is_ok (find "class" n classes)) names
    then Ok ()
    else err "classes must be exactly get/scan/write/multi"
  in
  let* pipeline = field "pipeline" to_int js in
  let* () = if pipeline >= 1 then Ok () else err "pipeline < 1" in
  let* qd = field "queue_depth" some js in
  let* qd_samples = field "samples" to_int qd in
  let* qd50 = field "p50" to_int qd in
  let* qd99 = field "p99" to_int qd in
  let* qdmax = field "max" to_int qd in
  let* () =
    if qd_samples < 0 then err "queue_depth: negative sample count"
    else if qd_samples > 0 && not (qd50 <= qd99 && qd99 <= qdmax) then
      err "queue_depth: percentiles not monotone"
    else Ok ()
  in
  let* cache = field "cache" some js in
  let* hr = field "hit_rate" to_float cache in
  let* () =
    if hr >= 0. && hr <= 1. then Ok () else err "cache hit_rate %.3f" hr
  in
  let* hits = field "hits" to_int cache in
  let* misses = field "misses" to_int cache in
  let* () =
    if hits >= 0 && misses >= 0 then Ok () else err "negative cache counters"
  in
  let* () =
    (* the embedded spec says whether the cache was on; hits without a
       cache mean the report and the spec disagree *)
    if hits + misses > 0 && spec.Spec.hotcache <> Some true then
      err "cache traffic reported but spec has no hotcache"
    else Ok ()
  in
  let* sheds = field "sheds" some js in
  let* shed_low = field "low" to_int sheds in
  let* shed_reqs = field "shed_requests" to_int sheds in
  let* _ = field "deferred_high" to_int sheds in
  let* () =
    if shed_low < 0 || shed_reqs < 0 then err "negative shed counters"
    else if shed_low > 0 && spec.Spec.slo_us = None then
      err "sheds reported but spec has no SLO"
    else Ok ()
  in
  let* sc = field "service_check" to_string_opt js in
  let* () = if sc = "ok" then Ok () else err "service_check: %s" sc in
  let* probe = field "serial_check" some js in
  let* probe_ops = field "ops" to_int probe in
  let* () = if probe_ops > 0 then Ok () else err "serial_check ran no ops" in
  let* passed = field "passed" to_bool probe in
  if passed then Ok ()
  else
    let* v = field "verdict" to_string_opt probe in
    err "serial_check failed: %s" v

(* ---- entry points ---- *)

let summarize r =
  let o = r.load in
  let us h q =
    Printf.sprintf "%.1fus" (float_of_int (Hist.quantile h q) /. 1e3)
  in
  Printf.printf
    "service %s (%s arrival): %.0f req/s | get p50 %s p99 %s p999 %s | write \
     p50 %s p99 %s | multi p99 %s | checks %s/%s\n\
     %!"
    o.l_label
    (arrival_name r.params.arrival)
    (throughput r) (us o.l_hists.h_get 0.5) (us o.l_hists.h_get 0.99)
    (us o.l_hists.h_get 0.999) (us o.l_hists.h_write 0.5)
    (us o.l_hists.h_write 0.99) (us o.l_hists.h_multi 0.99)
    (verdict_string o.l_check)
    (if r.probe = Ok () then "serial-ok" else "serial-FAIL")

(* One line that re-runs this exact configuration, printed whenever a
   verdict or validation fails so the failure is reproducible without
   archaeology. *)
let repro_line p =
  Printf.sprintf
    "repro: dune exec bench/main.exe -- service --spec '%s' --threads %d \
     --theta %.2f --key-bits %d --seed %d --pipeline %d%s --duration %.2f"
    (Json.to_string (Spec.to_json p.spec))
    p.threads p.theta p.key_bits p.seed p.pipeline
    (match p.arrival with
    | Open_loop r -> Printf.sprintf " --rate %.0f" r
    | Closed_loop -> "")
    p.measure_s

let default_params =
  {
    spec =
      Spec.v ~window:8 ~shards:4 ~fuse:true Spec.Slist
        (Structs.Mode.Rr_kind (module Rr.V));
    threads = 4;
    key_bits = 10;
    theta = 0.99;
    read_pct = 70;
    scan_pct = 5;
    multi_pct = 5;
    batch = 4;
    pipeline = 1;
    arrival = Closed_loop;
    warmup_s = 1.0;
    measure_s = 3.0;
    seed = 0x10ad;
    json_stdout = false;
    out = default_out;
  }

let run p ~mode =
  Printf.printf
    "service load: %s, %d threads, %d shards, theta %.2f, %s arrival, warmup \
     %.1fs + measure %.1fs -> %s\n\
     %!"
    (Spec.label p.spec) p.threads
    (Option.value p.spec.Spec.shards ~default:1)
    p.theta
    (match p.arrival with Open_loop r -> Printf.sprintf "open(%.0f/s)" r
    | Closed_loop -> "closed")
    p.warmup_s p.measure_s p.out;
  let r = measure p in
  let js = run_json ~mode r in
  Json.to_file p.out js;
  if p.json_stdout then print_endline (Json.to_string js);
  summarize r;
  (match validate js with
  | Ok () -> ()
  | Error e ->
      Printf.eprintf "!! %s fails %s validation: %s\n%s\n%!" p.out schema e
        (repro_line p));
  Printf.printf "wrote %s\n%!" p.out

(* ---- probe matrix ----

   The service-knob sweep over one workload: which layer buys what, on
   the record. Closed-loop legs measure capacity (base, +pool,
   +pool+hotcache, +hotcache); then those capacities set an open-loop rate
   that the baseline cannot serve, and the open pair (base vs
   all-on) tests admission control: the baseline must blow through the
   SLO, all-on must shed enough low-priority traffic to keep the served
   get p99 under it. *)

let matrix_slo_us = 20_000

type matrix_cfg = { m_name : string; m_params : params }

let matrix_spec ?pool ?hotcache ?slo_us base_spec =
  { base_spec with Spec.pool; hotcache; slo_us }

let matrix_configs ~p ~rate =
  let closed name spec pipeline =
    { m_name = name; m_params = { p with spec; pipeline } }
  in
  let open_ name spec pipeline =
    {
      m_name = name;
      m_params = { p with spec; pipeline; arrival = Open_loop rate };
    }
  in
  let base = p.spec in
  let all_on =
    matrix_spec ~pool:true ~hotcache:true ~slo_us:matrix_slo_us base
  in
  [
    closed "base" base 1;
    closed "pool" (matrix_spec ~pool:true base) 16;
    closed "pool_cache" (matrix_spec ~pool:true ~hotcache:true base) 16;
    closed "cache" (matrix_spec ~hotcache:true base) 1;
    open_ "open_base" base 1;
    open_ "open_all_on" all_on 16;
  ]

(* The all-on open-loop p99 proves the SLO only over gets it actually
   served: a run that sheds or loses every get reports a p99 of 0, which
   is under any SLO. *)
let matrix_min_gets = 100

(* Every matrix run is measured with the parameters recorded at the top of
   the document: the mode names the command, not a size preset. *)
let matrix_mode = "matrix"

type matrix = {
  rate : float;  (** the open-loop arrival rate, req/s *)
  runs : (matrix_cfg * run) list;
  open_base_p99 : int;  (** get p99 of the open-loop runs, ns *)
  open_all_on_p99 : int;
  open_all_on_gets : int;
  throughput_ok : bool;
  base_violates : bool;
  slo_ok : bool;
}

let named runs name = snd (List.find (fun (c, _) -> c.m_name = name) runs)

let matrix_measure p =
  let measure_cfg c =
    Printf.printf "matrix[%s]: running...\n%!" c.m_name;
    (c, measure c.m_params)
  in
  let is_closed c = c.m_params.arrival = Closed_loop in
  (* the closed-loop runs come first: their capacities calibrate the
     open-loop overload rate *)
  let closed_runs =
    List.map measure_cfg (List.filter is_closed (matrix_configs ~p ~rate:1.))
  in
  (* 2x the caller-runs capacity: far past what the baseline can serve
     (its open-loop lag must blow the SLO). Capped at the pool+hotcache
     closed-loop capacity, the most this client drives through the
     all-on program (a closed loop is never late, so its SLO would shed
     nothing there): above it the client itself falls behind its
     schedule, and the measured lag stops being the service's. That cap
     binds once the caller-runs path outruns the client's own
     per-request cost (DESIGN.md decision 13). *)
  let cap name = throughput (named closed_runs name) in
  let rate =
    Float.max 2_000. (Float.min (2.0 *. cap "base") (cap "pool_cache"))
  in
  let runs =
    closed_runs
    @ List.map measure_cfg
        (List.filter (fun c -> not (is_closed c)) (matrix_configs ~p ~rate))
  in
  let gets name = (named runs name).load.l_hists.h_get in
  let open_base_p99 = Hist.quantile (gets "open_base") 0.99 in
  let open_all_on_p99 = Hist.quantile (gets "open_all_on") 0.99 in
  let open_all_on_gets = Hist.count (gets "open_all_on") in
  let slo_ns = matrix_slo_us * 1_000 in
  let base_violates = open_base_p99 > slo_ns in
  {
    rate;
    runs;
    open_base_p99;
    open_all_on_p99;
    open_all_on_gets;
    throughput_ok =
      throughput (named runs "pool_cache") >= throughput (named runs "base");
    base_violates;
    slo_ok =
      base_violates
      && open_all_on_gets >= matrix_min_gets
      && open_all_on_p99 <= slo_ns;
  }

let matrix_json p m =
  let tput name = Json.Float (throughput (named m.runs name)) in
  Json.Obj
    [
      ("schema", Json.String schema);
      ("bench", Json.String "service");
      ("mode", Json.String matrix_mode);
      ("threads", Json.Int p.threads);
      ("theta", Json.Float p.theta);
      ("warmup_s", Json.Float p.warmup_s);
      ("measure_s", Json.Float p.measure_s);
      ( "runs",
        Json.List
          (List.map
             (fun (c, r) -> run_json ~config:c.m_name ~mode:matrix_mode r)
             m.runs) );
      ( "matrix",
        Json.Obj
          [
            ("slo_us", Json.Int matrix_slo_us);
            ("open_rate", Json.Float m.rate);
            ("throughput_base", tput "base");
            ("throughput_pool", tput "pool");
            ("throughput_pool_cache", tput "pool_cache");
            ("throughput_cache", tput "cache");
            ("throughput_ok", Json.Bool m.throughput_ok);
            ("open_base_get_p99_ns", Json.Int m.open_base_p99);
            ("open_all_on_get_p99_ns", Json.Int m.open_all_on_p99);
            ("open_all_on_gets", Json.Int m.open_all_on_gets);
            ("open_base_violates_slo", Json.Bool m.base_violates);
            ("slo_ok", Json.Bool m.slo_ok);
          ] );
    ]

(* Validate a matrix document: every embedded run must satisfy the
   hohtx-load/1 run schema, and both acceptance verdicts must hold. The
   SLO verdict is re-checked against the all-on open-loop run itself, so
   a document whose run served no gets fails even if it says [slo_ok]. *)
let validate_matrix js =
  let open Json in
  let* () = expect_schema schema js in
  let* mode = field "mode" to_string_opt js in
  let* () =
    if mode = matrix_mode then Ok ()
    else err "mode %S, wanted %S" mode matrix_mode
  in
  let* warmup = field "warmup_s" to_float js in
  let* measure = field "measure_s" to_float js in
  let* () =
    if warmup >= 0. && measure > 0. then Ok ()
    else err "warmup_s < 0 or measure_s <= 0"
  in
  let* runs = each "runs" validate js in
  let* () = if runs = [] then err "empty runs" else Ok () in
  let* m = field "matrix" Option.some js in
  let* throughput_ok = field "throughput_ok" to_bool m in
  let* () =
    if throughput_ok then Ok ()
    else
      let* pool_cache = field "throughput_pool_cache" to_float m in
      let* base = field "throughput_base" to_float m in
      err
        "pooled+cached throughput (%.0f req/s) below caller-runs baseline \
         (%.0f req/s)"
        pool_cache base
  in
  let* violates = field "open_base_violates_slo" to_bool m in
  let* () =
    if violates then Ok ()
    else
      err
        "open-loop baseline did not violate the SLO — the overload rate is \
         miscalibrated, the shedding leg proves nothing"
  in
  let* open_all_on = find "config" "open_all_on" runs in
  let* classes = field "classes" to_list open_all_on in
  let* get = find "class" "get" classes in
  let* gets = field "count" to_int get in
  let* () =
    if gets >= matrix_min_gets then Ok ()
    else
      err
        "open-loop all-on run served %d gets (minimum %d): its get p99 \
         proves nothing about the SLO"
        gets matrix_min_gets
  in
  let* slo_ok = field "slo_ok" to_bool m in
  if slo_ok then Ok ()
  else
    err "all-on open-loop get p99 exceeds the %dus SLO despite admission control"
      matrix_slo_us

let summarize_matrix m =
  List.iter
    (fun (c, r) ->
      Printf.printf "[%-12s] " c.m_name;
      summarize r)
    m.runs;
  let tput name = throughput (named m.runs name) in
  let ok b = if b then "ok" else "FAIL" in
  Printf.printf
    "matrix: throughput base %.0f | pool %.0f | pool+cache %.0f | cache \
     %.0f -> %s\n\
     matrix: open@%.0f/s get p99 base %.1fms vs all-on %.1fms (slo %dms) -> \
     %s\n\
     %!"
    (tput "base") (tput "pool") (tput "pool_cache") (tput "cache")
    (ok m.throughput_ok) m.rate
    (float_of_int m.open_base_p99 /. 1e6)
    (float_of_int m.open_all_on_p99 /. 1e6)
    (matrix_slo_us / 1000) (ok m.slo_ok)

(* Print a repro line per matrix config plus the one-shot matrix command
   itself; called on any failed verdict. *)
let matrix_repro ~p m =
  prerr_endline "repro: dune exec bench/main.exe -- service-matrix";
  List.iter
    (fun c -> prerr_endline ("  [" ^ c.m_name ^ "] " ^ repro_line c.m_params))
    (matrix_configs ~p ~rate:m.rate)

let run_matrix p =
  Printf.printf
    "service probe matrix: %s base, %d threads, theta %.2f, warmup %.1fs + \
     measure %.1fs per config -> %s\n\
     %!"
    (Spec.label p.spec) p.threads p.theta p.warmup_s p.measure_s p.out;
  let m = matrix_measure p in
  let js = matrix_json p m in
  Json.to_file p.out js;
  if p.json_stdout then print_endline (Json.to_string js);
  summarize_matrix m;
  (match validate_matrix js with
  | Ok () -> Printf.printf "matrix verdicts OK\n%!"
  | Error e ->
      Printf.eprintf "!! %s fails %s matrix validation: %s\n%!" p.out schema e;
      matrix_repro ~p m);
  Printf.printf "wrote %s\n%!" p.out

let matrix_params ~threads ~measure_s =
  {
    default_params with
    threads;
    key_bits = 8;
    theta = 1.1;
    read_pct = 96;
    scan_pct = 0;
    multi_pct = 2;
    batch = 1;
    warmup_s = Float.min 0.5 measure_s;
    measure_s;
  }

let smoke () =
  let p = { (matrix_params ~threads:2 ~measure_s:0.4) with warmup_s = 0.2 } in
  (* The SLO legs measure absolute wall-clock lag; concurrent test
     processes on a small box can blow one measurement with a preemption
     burst. One fresh re-measurement before declaring failure — real
     regressions repeat, scheduling noise does not. *)
  let attempts = 2 in
  let attempt_once () =
    let m = matrix_measure p in
    (m, Json.round_trip ~out:p.out validate_matrix (matrix_json p m))
  in
  let rec go attempt =
    match attempt_once () with
    | m, Ok _ ->
        summarize_matrix m;
        Printf.printf "service-smoke OK: %s matrix validates against %s\n"
          p.out schema
    | _, Error e when attempt < attempts ->
        Printf.eprintf
          "service-smoke: %s -- retrying (%d/%d), suspecting scheduling \
           noise\n\
           %!"
          e (attempt + 1) attempts;
        go (attempt + 1)
    | m, Error e ->
        prerr_endline ("service-smoke: " ^ e);
        matrix_repro ~p m;
        exit 1
  in
  go 1
