type result = {
  impl : string;
  spec : Workload.spec;
  elapsed_s : float;
  total_ops : int;
  throughput : float;
  tm : Tm.Stats.t;
  size_after : int;
  verdict : (unit, string) Stdlib.result;
  pool_live : int option;
  max_backlog : int option;
  leaked : int option;
  telemetry : Telemetry.Report.t option;
  san : (string * int) list option;
}

(* Two-phase start barrier. A single shared countdown would let workers
   start operating as soon as the last arrival decrements it — including
   while the main domain is still descheduled and has yet to sample t0, so
   on an oversubscribed box the timed window could miss an arbitrary chunk
   of the run (the 1-thread smoke point used to report hundreds of Mops/s
   this way). Instead workers check in and then spin on a flag that main
   sets only after it has observed full attendance and taken t0: no
   operation can begin before the clock is running. Monotonic, not wall,
   time: an NTP step mid-run would corrupt the throughput denominator. *)
let timed n work =
  let ready = Atomic.make n and go = Atomic.make false in
  let domains =
    List.init n (fun d ->
        Domain.spawn (fun () ->
            Tm.Thread.with_registered (fun thread ->
                let run = work d ~thread in
                Atomic.decr ready;
                while not (Atomic.get go) do
                  Domain.cpu_relax ()
                done;
                run ())))
  in
  while Atomic.get ready > 0 do
    Domain.cpu_relax ()
  done;
  let t0 = Telemetry.now_ns () in
  Atomic.set go true;
  let outs = List.map Domain.join domains in
  (float_of_int (Telemetry.now_ns () - t0) /. 1e9, outs)

type worker_out = {
  log : Serial_check.logged array;
  w_ins : int;
  w_rem : int;
  w_stats : Tm.Stats.t;
}

let dummy_log =
  {
    Serial_check.op = Workload.Lookup;
    key = 0;
    result = false;
    earliest = 0;
    stamp = 0;
  }

let worker ~spec ~store ~verify d ~thread =
  let rng = Workload.Rng.create ~seed:spec.Workload.seed ~thread:(d + 1) in
  let n = spec.Workload.ops_per_thread in
  let log = if verify then Array.make n dummy_log else [||] in
  let ins = ref 0 and rem = ref 0 in
  Tm.Stats.reset (Tm.Thread.stats ());
  fun () ->
    for i = 0 to n - 1 do
      let op, key = Workload.next_op rng spec in
      let reply =
        match op with
        | Workload.Insert ->
            let r = Store.insert store ~thread key in
            if r.Store.outcome = Store.Inserted then incr ins;
            r
        | Workload.Remove ->
            let r = Store.remove store ~thread key in
            if r.Store.outcome = Store.Removed then incr rem;
            r
        | Workload.Lookup -> Store.get store ~thread key
      in
      let result = Store.positive reply.Store.outcome in
      let earliest = reply.Store.earliest and stamp = reply.Store.stamp in
      if verify then
        log.(i) <- { Serial_check.op; key; result; earliest; stamp }
    done;
    Store.finalize_thread store ~thread;
    {
      log;
      w_ins = !ins;
      w_rem = !rem;
      w_stats = Tm.Stats.copy (Tm.Thread.stats ());
    }

let run ?(verify = true) ?(san = false) spec store =
  (* Count mode for multi-domain runs: a raise inside one worker would tear
     down the run mid-measurement; per-rule counts are reported instead. *)
  if san then begin
    San.reset ();
    San.set_enabled ~mode:San.Count true
  end;
  let tid = Tm.Thread.id () in
  let initial = Workload.prefill_keys spec in
  List.iter
    (fun k ->
      if (Store.insert store ~thread:tid k).Store.outcome <> Store.Inserted
      then failwith "Driver.run: prefill insert failed")
    initial;
  (* Start the measurement window after prefill so the report reflects the
     contended phase only. Gauges are cumulative and keep their registry. *)
  if Telemetry.enabled () then Telemetry.reset_slots ();
  let elapsed, outs =
    timed spec.Workload.threads (worker ~spec ~store ~verify)
  in
  Store.drain store;
  let san_counts =
    if san then begin
      let v = San.violations () in
      San.set_enabled false;
      Some v
    end
    else None
  in
  let total_ops = spec.Workload.threads * spec.Workload.ops_per_thread in
  let tm = Tm.Stats.create () in
  List.iter (fun o -> Tm.Stats.add tm o.w_stats) outs;
  let ins = List.fold_left (fun a o -> a + o.w_ins) 0 outs in
  let rem = List.fold_left (fun a o -> a + o.w_rem) 0 outs in
  let size_after = Store.size store in
  let expected = List.length initial + ins - rem in
  let verdict =
    if size_after <> expected then
      Error
        (Printf.sprintf "size accounting: found %d, expected %d" size_after
           expected)
    else
      match Store.check store with
      | Error _ as e -> e
      | Ok () ->
          if verify && Store.stamped store then
            Serial_check.check ~initial (List.map (fun o -> o.log) outs)
          else Ok ()
  in
  {
    impl = Store.name store;
    spec;
    elapsed_s = elapsed;
    total_ops;
    throughput = float_of_int total_ops /. elapsed;
    tm;
    size_after;
    verdict;
    pool_live = Store.pool_live store;
    max_backlog = Store.max_backlog store;
    leaked = Store.leaked store;
    telemetry =
      (if Telemetry.enabled () then
         Some
           (Telemetry.Report.snapshot ~label:(Store.name store) ~counters:tm
              ())
       else None);
    san = san_counts;
  }

let abort_rate r =
  if Tm.Stats.started r.tm = 0 then 0.
  else
    float_of_int (Tm.Stats.total_aborts r.tm)
    /. float_of_int (Tm.Stats.started r.tm)

let pp_result ppf r =
  Format.fprintf ppf
    "%-10s %a: %.0f ops/s (%.2fs), aborts/attempt %.3f, fallbacks %d, %s"
    r.impl Workload.pp_spec r.spec r.throughput r.elapsed_s (abort_rate r)
    (Tm.Stats.fallbacks r.tm)
    (match r.verdict with Ok () -> "OK" | Error e -> "FAIL: " ^ e);
  match r.san with
  | None -> ()
  | Some counts ->
      let total = List.fold_left (fun a (_, n) -> a + n) 0 counts in
      if total = 0 then Format.fprintf ppf "@ [san: clean]"
      else
        Format.fprintf ppf "@ [san: %a]"
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
             (fun ppf (rule, n) -> Format.fprintf ppf "%s=%d" rule n))
          (List.filter (fun (_, n) -> n > 0) counts)
