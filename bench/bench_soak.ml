(* Adversarial soak harness (`main.exe soak`).

   One run = a scripted churn pass over the spec (then a second pass
   routed through the sharded service, and a third
   with the pool and hot cache on, every op through the async
   submit/await path), then the two DST adversaries: the stalled-reader
   backlog contrast (EBR vs RR on the same schedule) and the crash
   scenarios (kill mid-commit, kill mid-multi). The run emits a
   [hohtx-soak/1] JSON artifact;
   `main.exe soak-smoke` runs a miniature, checks determinism of the
   adversary trajectory under the fixed seed, and validates the emitted
   file against the schema (the @soak-smoke alias).

   Every oracle failure — churn verdicts, stall accounting, crash
   outcomes — carries a one-line `main.exe soak ...` reproduction
   command; `run` prints them and exits nonzero. *)

open Harness
module Spec = Factories.Spec
module Json = Telemetry.Json

let schema = "hohtx-soak/1"
let default_out = "BENCH_soak.json"
let rr_v : Structs.Mode.kind = Structs.Mode.Rr_kind (module Rr.V)

type params = {
  spec : Spec.t;
  phases : Soak.phase list;
  key_bits : int;
  seed : int;
  slo_us : int;
  json_stdout : bool;
  out : string;
}

let default_phases =
  match
    Soak.parse_phases "grow:4x400,storm:4x600@0.99,shrink:4x400,mix:2x400@50"
  with
  | Ok ps -> ps
  | Error e -> invalid_arg e

let default_params =
  {
    spec = Spec.v ~window:4 Spec.Slist rr_v;
    phases = default_phases;
    key_bits = 8;
    seed = 0x50ac;
    slo_us = 1000;
    json_stdout = false;
    out = default_out;
  }

(* ---- collected results ---- *)

type results = {
  r_churn : (bool * Soak.churn_result) list;  (** service flag, result *)
  r_stall_rr : Soak.stall_result;
  r_stall_ebr : Soak.stall_result;
  r_crashes : Soak.crash_result list;
}

let collect p =
  (* the churn passes run real domains and must finish before the DST
     scenarios reset the thread-id space *)
  let churn spec =
    Soak.run_churn ~slo_us:p.slo_us ~seed:p.seed ~key_bits:p.key_bits
      ~phases:p.phases spec
  in
  let plain = churn p.spec in
  let svc_spec =
    { p.spec with Spec.shards = Some 2; fuse = Some true }
  in
  let sharded = churn svc_spec in
  (* third pass: same sharded spec with the pool and hot cache on;
     run_churn routes every op through submit/await, so the async
     queues, the clients' fused drains and cache invalidation churn for
     whole phases under real domains, then must survive shutdown with
     zero leaks *)
  let pooled_spec =
    { svc_spec with Spec.pool = Some true; hotcache = Some true }
  in
  let pooled = churn pooled_spec in
  let stall kind =
    Soak.stalled_reader ~seed:p.seed (Spec.v p.spec.Spec.structure kind)
  in
  let stall_rr = stall rr_v in
  let stall_ebr = stall Structs.Mode.Ebr in
  let crash1 =
    Soak.crash_mid_commit ~seed:p.seed (Spec.v p.spec.Spec.structure rr_v)
  in
  let crash2 =
    Soak.crash_mid_multi ~seed:p.seed
      (Spec.v ~window:4 ~shards:2 ~fuse:true Spec.Slist rr_v)
  in
  {
    r_churn = [ (false, plain); (true, sharded); (true, pooled) ];
    r_stall_rr = stall_rr;
    r_stall_ebr = stall_ebr;
    r_crashes = [ crash1; crash2 ];
  }

let failures r =
  List.filter_map (fun (_, c) -> Soak.churn_failed c) r.r_churn
  @ List.filter_map
      (fun (s : Soak.stall_result) -> s.Soak.s_error)
      [ r.r_stall_rr; r.r_stall_ebr ]
  @ (if r.r_stall_ebr.Soak.s_hwm <= r.r_stall_rr.Soak.s_hwm then
       [
         Printf.sprintf
           "EBR backlog hwm %d not above RR hwm %d under a stalled reader\n\
           \  repro: %s"
           r.r_stall_ebr.Soak.s_hwm r.r_stall_rr.Soak.s_hwm
           r.r_stall_ebr.Soak.s_repro;
       ]
     else [])
  @ List.filter_map (fun (k : Soak.crash_result) -> k.Soak.k_error) r.r_crashes

(* ---- report ---- *)

let verdict_json = function
  | Ok () -> Json.String "ok"
  | Error e -> Json.String e

let phase_json (r : Soak.phase_result) =
  Json.Obj
    [
      ("phase", Json.String r.Soak.p_shape);
      ("threads", Json.Int r.Soak.p_threads);
      ("ops", Json.Int r.Soak.p_ops);
      ("elapsed_s", Json.Float r.Soak.p_elapsed_s);
      ("throughput", Json.Float r.Soak.p_throughput);
      ("slo_violations", Json.Int r.Soak.p_slo_violations);
      ("live_hwm", Json.Int r.Soak.p_live_hwm);
      ("backlog", Json.Int r.Soak.p_backlog);
    ]

let churn_json (service, (c : Soak.churn_result)) =
  Json.Obj
    [
      ("label", Json.String c.Soak.c_label);
      ("service", Json.Bool service);
      ("phases", Json.List (List.map phase_json c.Soak.c_phases));
      ("san", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) c.Soak.c_san));
      ( "serial",
        match c.Soak.c_serial with
        | None -> Json.String "skipped"
        | Some v -> verdict_json v );
      ("check", verdict_json c.Soak.c_check);
      ("leaked", Json.Int c.Soak.c_leaked);
      ("repro", Json.String c.Soak.c_repro);
    ]

let stall_json (s : Soak.stall_result) =
  Json.Obj
    [
      ("label", Json.String s.Soak.s_label);
      ( "samples",
        Json.List
          (Array.to_list (Array.map (fun v -> Json.Int v) s.Soak.s_samples)) );
      ("hwm", Json.Int s.Soak.s_hwm);
      ("final_backlog", Json.Int s.Soak.s_final_backlog);
      ("error", Json.String (Option.value s.Soak.s_error ~default:"ok"));
      ("repro", Json.String s.Soak.s_repro);
    ]

let crash_json (k : Soak.crash_result) =
  Json.Obj
    [
      ("label", Json.String k.Soak.k_label);
      ("scenario", Json.String k.Soak.k_scenario);
      ("serial_ok", Json.Bool k.Soak.k_serial_ok);
      ("leaked", Json.Int k.Soak.k_leaked);
      ("error", Json.String (Option.value k.Soak.k_error ~default:"ok"));
      ("repro", Json.String k.Soak.k_repro);
    ]

let report_json p ~mode r =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("bench", Json.String "soak");
      ("mode", Json.String mode);
      ("seed", Json.Int p.seed);
      ("key_bits", Json.Int p.key_bits);
      ("slo_us", Json.Int p.slo_us);
      ("phases", Json.String (Soak.print_phases p.phases));
      ("spec", Spec.to_json p.spec);
      ( "repro",
        Json.String
          (Soak.repro ~scenario:"churn" ~seed:p.seed ~key_bits:p.key_bits
             ~phases:p.phases p.spec) );
      ("churn", Json.List (List.map churn_json r.r_churn));
      ( "stalled_reader",
        Json.Obj
          [
            ("rr", stall_json r.r_stall_rr);
            ("ebr", stall_json r.r_stall_ebr);
            ( "contrast_ok",
              Json.Bool (r.r_stall_ebr.Soak.s_hwm > r.r_stall_rr.Soak.s_hwm) );
          ] );
      ("crashes", Json.List (List.map crash_json r.r_crashes));
    ]

(* ---- schema validation ---- *)

let validate js =
  let open Json in
  let some = Option.some in
  let* () = expect_schema schema js in
  let* b = field "bench" to_string_opt js in
  let* () = if b = "soak" then Ok () else err "bench %S" b in
  let* _ = field "mode" to_string_opt js in
  let* _ = field "seed" to_int js in
  let* kb = field "key_bits" to_int js in
  let* () = if kb >= 1 then Ok () else err "key_bits < 1" in
  let* slo = field "slo_us" to_int js in
  let* () = if slo >= 1 then Ok () else err "slo_us < 1" in
  let* phases_s = field "phases" to_string_opt js in
  let* () =
    match Soak.parse_phases phases_s with
    | Error e -> err "phase script: %s" e
    | Ok ps ->
        if Soak.print_phases ps = phases_s then Ok ()
        else err "phase script %S does not round-trip" phases_s
  in
  let* spec_js = field "spec" some js in
  let* _ =
    match Spec.of_json spec_js with
    | Ok sp -> Ok sp
    | Error e -> err "embedded spec: %s" e
  in
  let* repro = field "repro" to_string_opt js in
  let* () =
    if String.length repro > 0 then Ok () else err "empty repro command"
  in
  let phase ph =
    let* ops = field "ops" to_int ph in
    let* tput = field "throughput" to_float ph in
    let* slo_v = field "slo_violations" to_int ph in
    let* hwm = field "live_hwm" to_int ph in
    let* backlog = field "backlog" to_int ph in
    if ops <= 0 then err "phase ran no ops"
    else if tput <= 0. then err "throughput <= 0"
    else if slo_v < 0 || hwm < 0 || backlog < 0 then
      err "negative phase counter"
    else Ok ()
  in
  let churn c =
    let* label = field "label" to_string_opt c in
    let* check = field "check" to_string_opt c in
    let* serial = field "serial" to_string_opt c in
    let* leaked = field "leaked" to_int c in
    let* _ = field "repro" to_string_opt c in
    let* phases = each "phases" phase c in
    if phases = [] then err "churn %s: no phases" label
    else if check <> "ok" then err "churn %s: check: %s" label check
    else if serial <> "ok" && serial <> "skipped" then
      err "churn %s: serial: %s" label serial
    else if leaked <> 0 then err "churn %s: %d slots leaked" label leaked
    else Ok ()
  in
  let* churns = each "churn" churn js in
  let* () = if churns <> [] then Ok () else err "no churn runs" in
  let* stall = field "stalled_reader" some js in
  let stall_side name =
    let* side = field name some stall in
    let* e = field "error" to_string_opt side in
    let* () = if e = "ok" then Ok () else err "stall %s: %s" name e in
    let* hwm = field "hwm" to_int side in
    let* fb = field "final_backlog" to_int side in
    let* samples = field "samples" to_list side in
    let* () =
      if samples <> [] then Ok () else err "stall %s: no samples" name
    in
    Ok (hwm, fb)
  in
  let* rr_hwm, rr_fb = stall_side "rr" in
  let* ebr_hwm, ebr_fb = stall_side "ebr" in
  let* contrast = field "contrast_ok" to_bool stall in
  let* () =
    if not contrast then err "stalled-reader contrast flagged failed"
    else if ebr_hwm <= rr_hwm then
      err "EBR backlog hwm %d not above RR hwm %d" ebr_hwm rr_hwm
    else if rr_fb <> 0 then err "RR left %d slots to the final drain" rr_fb
    else if ebr_fb <= 0 then err "EBR final drain reclaimed nothing (%d)" ebr_fb
    else Ok ()
  in
  let crash k =
    let* scenario = field "scenario" to_string_opt k in
    let* e = field "error" to_string_opt k in
    let* serial_ok = field "serial_ok" to_bool k in
    let* leaked = field "leaked" to_int k in
    if e <> "ok" then err "%s: %s" scenario e
    else if not serial_ok then err "%s: history not serializable" scenario
    else if leaked <> 0 then err "%s: %d slots leaked" scenario leaked
    else Ok ()
  in
  let* crashes = each "crashes" crash js in
  if crashes <> [] then Ok () else err "no crash scenarios"

(* ---- entry points ---- *)

let summarize r =
  List.iter
    (fun (service, (c : Soak.churn_result)) ->
      let ops =
        List.fold_left (fun a p -> a + p.Soak.p_ops) 0 c.Soak.c_phases
      in
      let slo =
        List.fold_left
          (fun a p -> a + p.Soak.p_slo_violations)
          0 c.Soak.c_phases
      in
      Printf.printf
        "soak churn %s%s: %d ops over %d phases | slo violations %d | checks \
         %s/%s | leaked %d\n\
         %!"
        c.Soak.c_label
        (if service then " (service)" else "")
        ops
        (List.length c.Soak.c_phases)
        slo
        (match c.Soak.c_check with Ok () -> "ok" | Error _ -> "FAIL")
        (match c.Soak.c_serial with
        | Some (Ok ()) -> "serial-ok"
        | Some (Error _) -> "serial-FAIL"
        | None -> "serial-skipped")
        c.Soak.c_leaked)
    r.r_churn;
  Printf.printf
    "soak stalled-reader: EBR backlog hwm %d vs RR hwm %d (final drain freed \
     %d vs %d)\n\
     %!"
    r.r_stall_ebr.Soak.s_hwm r.r_stall_rr.Soak.s_hwm
    r.r_stall_ebr.Soak.s_final_backlog r.r_stall_rr.Soak.s_final_backlog;
  List.iter
    (fun (k : Soak.crash_result) ->
      Printf.printf
        "soak %s on %s: serial %s | leaked %d | %s\n%!"
        k.Soak.k_scenario k.Soak.k_label
        (if k.Soak.k_serial_ok then "ok" else "FAIL")
        k.Soak.k_leaked
        (match k.Soak.k_error with None -> "ok" | Some _ -> "FAIL"))
    r.r_crashes

let run p ~mode =
  Printf.printf "soak: %s, phases %s, %d-bit keys, seed %#x -> %s\n%!"
    (Spec.label p.spec)
    (Soak.print_phases p.phases)
    p.key_bits p.seed p.out;
  let r = collect p in
  let js = report_json p ~mode r in
  Json.to_file p.out js;
  if p.json_stdout then print_endline (Json.to_string js);
  summarize r;
  (match validate js with
  | Ok () -> ()
  | Error e -> Printf.eprintf "!! %s fails %s validation: %s\n%!" p.out schema e);
  match failures r with
  | [] -> Printf.printf "wrote %s\n%!" p.out
  | fs ->
      List.iter (fun m -> Printf.eprintf "soak: FAIL: %s\n%!" m) fs;
      exit 1

let run_scenario ~scenario ~seed spec =
  let finish label err =
    match err with
    | None -> Printf.printf "%s %s: OK\n%!" scenario label
    | Some m ->
        Printf.eprintf "%s %s: FAIL: %s\n%!" scenario label m;
        exit 1
  in
  match scenario with
  | "stalled-reader" ->
      let r = Soak.stalled_reader ~seed spec in
      Printf.printf "%s backlog trajectory: [%s] hwm %d, final drain freed %d\n"
        r.Soak.s_label
        (String.concat ";"
           (Array.to_list (Array.map string_of_int r.Soak.s_samples)))
        r.Soak.s_hwm r.Soak.s_final_backlog;
      finish r.Soak.s_label r.Soak.s_error
  | "crash-commit" ->
      let r = Soak.crash_mid_commit ~seed spec in
      finish r.Soak.k_label r.Soak.k_error
  | "crash-multi" ->
      let r = Soak.crash_mid_multi ~seed spec in
      finish r.Soak.k_label r.Soak.k_error
  | s ->
      Printf.eprintf
        "unknown scenario %S (stalled-reader|crash-commit|crash-multi)\n" s;
      exit 2

let smoke () =
  let p =
    {
      default_params with
      phases =
        (match
           Soak.parse_phases "grow:2x150,storm:2x200@0.99,shrink:2x150,mix:2x150@50"
         with
        | Ok ps -> ps
        | Error e -> invalid_arg e);
      key_bits = 7;
      out = default_out;
    }
  in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        prerr_endline ("soak-smoke: " ^ m);
        exit 1)
      fmt
  in
  let r = collect p in
  (match failures r with
  | [] -> ()
  | fs -> fail "oracle failures:\n%s" (String.concat "\n" fs));
  (* the adversary trajectory must replay exactly under the fixed seed *)
  let again =
    Soak.stalled_reader ~seed:p.seed (Spec.v p.spec.Spec.structure rr_v)
  in
  if again.Soak.s_samples <> r.r_stall_rr.Soak.s_samples then
    fail "stalled-reader trajectory not deterministic under seed %d\n  repro: %s"
      p.seed again.Soak.s_repro;
  (match
     Json.round_trip ~out:p.out validate (report_json p ~mode:"smoke" r)
   with
  | Ok _ -> ()
  | Error e -> fail "%s" e);
  summarize r;
  Printf.printf "soak-smoke OK: %s validates against %s\n" p.out schema
