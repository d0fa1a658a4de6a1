(* Telemetry demonstration (`main.exe telemetry`) and schema smoke test
   (`main.exe telemetry-smoke`, run from the @telemetry-smoke dune alias).

   Both enable the global switch, build structures *afterwards* (gauge
   providers register at construction time), drive a deliberately contended
   workload so abort attribution has something to show, and emit the
   post-quiescence report. *)

open Harness

(* Small key range + write-heavy mix + tiny windows: plenty of conflicts
   between the two domains, so read_invalid/lock_busy attribution rows
   appear even on a single core. *)
let contended_run ~ops () =
  let spec =
    Workload.spec ~key_bits:5 ~lookup_pct:10 ~threads:2 ~ops_per_thread:ops ()
  in
  let factory =
    Factories.make
      (Factories.Spec.v ~window:2 Factories.Spec.Slist
         (Structs.Mode.Rr_kind (module Rr.Xo)))
  in
  let handle = factory.Factories.make () in
  Driver.run ~verify:false spec handle

let report_of_run r =
  match r.Driver.telemetry with
  | Some rep -> rep
  | None -> failwith "telemetry run produced no report (switch off?)"

let run ~json () =
  Telemetry.set_enabled true;
  Telemetry.Gauges.clear ();
  let r = contended_run ~ops:20_000 () in
  let rep = report_of_run r in
  if json then
    print_endline (Telemetry.Json.to_string (Telemetry.Report.to_json rep))
  else begin
    Format.printf "%a@." Driver.pp_result r;
    Format.printf "%a" Telemetry.Report.pp rep
  end

(* Schema smoke: micro-benchmarks run under telemetry (hot-path
   instrumentation must not crash or skew bechamel into nonsense), then a
   contended run's report must serialize to JSON that parses back and
   validates, with the gauge groups the tentpole promises. *)
let smoke () =
  Telemetry.set_enabled true;
  Telemetry.Gauges.clear ();
  Bench_micro.run ~smoke:true ();
  let r = contended_run ~ops:5_000 () in
  let rep = report_of_run r in
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("telemetry-smoke: " ^ m); exit 1) fmt in
  let text =
    match
      Telemetry.Json.round_trip Telemetry.Report.validate
        (Telemetry.Report.to_json rep)
    with
    | Ok text -> text
    | Error e -> fail "%s" e
  in
  let groups =
    List.sort_uniq compare
      (List.map
         (fun s -> s.Telemetry.Gauges.group)
         rep.Telemetry.Report.gauges)
  in
  List.iter
    (fun g ->
      if not (List.mem g groups) then
        fail "missing gauge group %S (have: %s)" g (String.concat ", " groups))
    [ "mempool"; "rr" ];
  if Telemetry.Histogram.count rep.Telemetry.Report.attempts = 0 then
    fail "attempt histogram is empty";
  Printf.printf
    "telemetry-smoke OK: %d-byte report, %d attribution rows, gauges: %s\n"
    (String.length text)
    (List.length (Telemetry.Attribution.entries rep.Telemetry.Report.attribution))
    (String.concat ", " groups)
