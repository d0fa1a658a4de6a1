let schema = "hohtx-telemetry/1"

type t = {
  label : string;
  counters : Tel_counters.t option;
  attempts : Tel_hist.t;
  ops : Tel_hist.t;
  serial : Tel_hist.t;
  attribution : Tel_attr.t;
  gauges : Tel_gauges.sample list;
}

let snapshot ?(label = "") ?counters () =
  let attempts = Tel_hist.create ()
  and ops = Tel_hist.create ()
  and serial = Tel_hist.create ()
  and attribution = Tel_attr.create () in
  Tel_state.iter_slots (fun s ->
      Tel_hist.merge ~into:attempts s.Tel_state.attempts;
      Tel_hist.merge ~into:ops s.Tel_state.ops;
      Tel_hist.merge ~into:serial s.Tel_state.serial;
      Tel_attr.merge ~into:attribution s.Tel_state.attr);
  {
    label;
    counters;
    attempts;
    ops;
    serial;
    attribution;
    gauges = Tel_gauges.sample ();
  }

let to_json t =
  Tel_json.Obj
    [
      ("schema", Tel_json.String schema);
      ("label", Tel_json.String t.label);
      ( "tm",
        match t.counters with
        | Some c -> Tel_counters.to_json c
        | None -> Tel_json.Null );
      ( "latency_ns",
        Tel_json.Obj
          [
            ("attempt", Tel_hist.to_json t.attempts);
            ("op", Tel_hist.to_json t.ops);
            ("serial_fallback", Tel_hist.to_json t.serial);
          ] );
      ("aborts", Tel_attr.to_json t.attribution);
      ("gauges", Tel_gauges.to_json t.gauges);
    ]

(* Schema validation for smoke tests: the report must carry the current
   schema tag and every top-level section with the right shape. *)
let validate json =
  let open Tel_json in
  let some = Option.some in
  let hist lat name =
    let* h = field name some lat in
    let* _ = field "count" to_int h in
    let* _ = field "sum" to_int h in
    let* _ = field "p50" to_int h in
    let* _ = field "p99" to_int h in
    let* _ = field "buckets" to_list h in
    Ok ()
  in
  let* () = expect_schema schema json in
  let* lat = field "latency_ns" some json in
  let* () = hist lat "attempt" in
  let* () = hist lat "op" in
  let* () = hist lat "serial_fallback" in
  let* _ =
    each "aborts"
      (fun e ->
        let* _ = field "site" some e in
        let* _ = field "cause" some e in
        let* _ = field "count" to_int e in
        let* _ = field "tvars" some e in
        Ok ())
      json
  in
  let* _ =
    each "gauges"
      (fun g ->
        let* _ = field "group" some g in
        let* _ = field "name" some g in
        let* _ = field "values" (function Obj _ as v -> Some v | _ -> None) g in
        Ok ())
      json
  in
  Ok ()

let pp_hist_row ppf name h =
  Format.fprintf ppf "  %-18s %a@." name Tel_hist.pp h

let pp ppf t =
  Format.fprintf ppf "== telemetry report%s ==@."
    (if t.label = "" then "" else " [" ^ t.label ^ "]");
  (match t.counters with
  | Some c -> Format.fprintf ppf "tm: %a@." Tel_counters.pp c
  | None -> ());
  Format.fprintf ppf "latency (ns):@.";
  pp_hist_row ppf "attempt" t.attempts;
  pp_hist_row ppf "op" t.ops;
  pp_hist_row ppf "serial fallback" t.serial;
  Format.fprintf ppf "abort attribution (site, cause, count, top tvars):@.";
  Tel_attr.pp ppf t.attribution;
  Format.fprintf ppf "gauges:@.";
  Tel_gauges.pp ppf t.gauges
