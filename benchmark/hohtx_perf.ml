(* hohtx_perf: the repository's end-to-end and per-layer benchmark.

     hohtx_perf run [--workload NAME] [--seed N] [--trace 0|1] [--spans DIR]
                    [--seconds 15]
     hohtx_perf smoke BENCHMARK.json

   [run] measures each named workload (all of them by default) in a child
   process of its own, so every workload starts with a fresh heap, fresh
   TM thread ids and fresh telemetry slots. With [--trace 0] it reports
   the end-to-end metrics of an untraced run. With [--trace 1] it runs the
   workload untraced and then traced, and reports the per-layer metrics:
   the end-to-end measures that carry no bound (see [Metrics]) from the
   untraced run, the rest from the traced run, plus its tracing overhead.
   The traced run writes its bench-side spans to DIR/<workload>.spans.json
   (DIR defaults to perf-trace). Output is one [workload metric value
   unit] line per metric and, per workload, one JSON object {correct,
   attempted, failed, metrics}. The exit code is non-zero when any check
   fails.

   The measure window is fixed, so that any two runs compare. [--seconds]
   exists because the benchmark's runner passes the run length from
   BENCHMARK.json; it must equal the window.

   [smoke] is the @perf-smoke gate: every workload with a 0.3 s measure
   window, untraced and traced, asserting that every metric BENCHMARK.json
   declares is emitted with its unit, that every span nests inside its
   request, and that every check passes. *)

let default_seed = 1
let measure_s = 15.
let warmup_s = 2.

(* set-up samples per untraced run; [setup_s] is their median *)
let setups = 7

(* ---- children ---- *)

type child = {
  values : (string * (float option * int option)) list;
  errors : string list;
  correct : bool;
  attempted : int;
  failed : int;
}

let run_child w ~seed ~seconds ~warmup ~setups ~traced ~spans_dir =
  let exe = Sys.executable_name in
  let args =
    [ exe; "child"; w; string_of_int seed; Printf.sprintf "%h" seconds;
      Printf.sprintf "%h" warmup; string_of_int setups;
      (if traced then "1" else "0"); spans_dir ]
  in
  let ic = Unix.open_process_args_in exe (Array.of_list args) in
  let values = ref [] and errors = ref [] and result = ref None in
  (try
     while true do
       let line = input_line ic in
       match String.split_on_char ' ' line with
       | [ "metric"; name; v; n ] ->
           let v = if v = "null" then None else Some (float_of_string v) in
           let n = if n = "-" then None else Some (int_of_string n) in
           values := (name, (v, n)) :: !values
       | "error" :: msg -> errors := String.concat " " msg :: !errors
       | [ "result"; c; a; f ] ->
           result := Some (c = "1", int_of_string a, int_of_string f)
       | _ -> print_endline line
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let errors = List.rev !errors in
  match (status, !result) with
  | Unix.WEXITED 0, Some (correct, attempted, failed) ->
      { values = List.rev !values; errors; correct; attempted; failed }
  | _ ->
      {
        values = [];
        errors = errors @ [ Printf.sprintf "%s: child process failed" w ];
        correct = false;
        attempted = 0;
        failed = 0;
      }

(* ---- one workload, as reported ---- *)

type report = {
  workload : string;
  metrics : (Metrics.t * float option * int option) list;
  ok : bool;
  attempted : int;
  failed : int;
  problems : string list;
}

let throughput c =
  match List.assoc_opt "throughput_rps" c.values with
  | Some (Some v, _) -> Some v
  | _ -> None

(* The metrics of each scope in [parts], valued from the values beside it,
   and the checks of [children]. An end-to-end metric must have a value:
   the result JSON would write it as 0. *)
let report_of ~workload parts children =
  let metrics =
    List.concat_map
      (fun (scope, values) ->
        List.map
          (fun (m : Metrics.t) -> (m, List.assoc_opt m.name values))
          (Metrics.of_scope scope))
      parts
  in
  let problems =
    List.concat_map (fun c -> c.errors) children
    @ List.filter_map
        (fun ((m : Metrics.t), v) ->
          match v with
          | None -> Some (m.name ^ " was not emitted")
          | Some (None, _) when m.scope = Metrics.End_to_end ->
              Some (m.name ^ " has no value")
          | Some _ -> None)
        metrics
  in
  let sum f = List.fold_left (fun a c -> a + f c) 0 children in
  {
    workload;
    metrics =
      List.map
        (fun (m, v) ->
          match v with Some (v, n) -> (m, v, n) | None -> (m, None, None))
        metrics;
    ok = List.for_all (fun c -> c.correct) children && problems = [];
    attempted = sum (fun c -> c.attempted);
    failed = sum (fun c -> c.failed);
    problems;
  }

(* The end-to-end report of an untraced child and, with [trace], the
   per-layer report of that child and a traced child run after it. *)
let measure ~seed ~seconds ~warmup ~trace ~spans_dir (w : Load.workload) =
  let child ~traced ~setups =
    run_child w.name ~seed ~seconds ~warmup ~setups ~traced ~spans_dir
  in
  let base = child ~traced:false ~setups:(if trace then 1 else setups) in
  let e2e = report_of ~workload:w.name [ (Metrics.End_to_end, base.values) ] [ base ] in
  if not trace then (e2e, None)
  else
    let t = child ~traced:true ~setups:1 in
    let overhead =
      match (throughput base, throughput t) with
      | Some b, Some tr when tr > 0. -> Some (b /. tr)
      | _ -> None
    in
    ( e2e,
      Some
        (report_of ~workload:w.name
           [
             (Metrics.Unbounded, base.values);
             (Metrics.Per_layer, ("trace.overhead_ratio", (overhead, None)) :: t.values);
           ]
           [ base; t ]) )

(* the shortest decimal that reads back as the same float *)
let float_repr v =
  let rec go p =
    let s = Printf.sprintf "%.*g" p v in
    if p >= 17 || float_of_string s = v then s else go (p + 1)
  in
  go 15

let print_report r =
  List.iter
    (fun ((m : Metrics.t), v, n) ->
      Printf.printf "%s %s %s %s%s\n" r.workload m.name
        (match v with Some v -> float_repr v | None -> "null")
        m.unit_
        (match n with Some n -> Printf.sprintf " n=%d" n | None -> ""))
    r.metrics;
  List.iter (fun p -> Printf.eprintf "%s: %s\n" r.workload p) r.problems;
  (* the result object: a metric with no value (a layer the workload does
     not exercise, or too few samples) is written as 0 *)
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.ok (max 1 r.attempted) r.failed
    (String.concat ", "
       (List.map
          (fun ((m : Metrics.t), v, _) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
              (float_repr (Option.value ~default:0. v))
              m.unit_)
          r.metrics))

(* ---- command line ---- *)

let usage () =
  prerr_endline
    "usage: hohtx_perf run [--workload NAME] [--seed N] [--trace 0|1] [--spans \
     DIR] [--seconds 15]\n\
    \       hohtx_perf smoke BENCHMARK.json";
  exit 2

let run_cmd args =
  let workload = ref None and seed = ref default_seed in
  let trace = ref false in
  let spans_dir = ref "perf-trace" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := Some v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--seconds" :: v :: rest ->
        if float_of_string v <> measure_s then begin
          Printf.eprintf "--seconds: the measure window is fixed at %g s\n" measure_s;
          exit 2
        end;
        parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := v = "1";
        parse rest
    | "--spans" :: v :: rest ->
        spans_dir := v;
        parse rest
    | _ -> usage ()
  in
  (try parse args with Failure _ -> usage ());
  let ws =
    match !workload with
    | None -> Load.workloads
    | Some name -> (
        match Load.find name with
        | Some w -> [ w ]
        | None ->
            Printf.eprintf "unknown workload %S\n" name;
            exit 2)
  in
  let reports =
    List.map
      (fun w ->
        let r =
          match
            measure ~seed:!seed ~seconds:measure_s ~warmup:warmup_s ~trace:!trace
              ~spans_dir:!spans_dir w
          with
          | _, Some layer -> layer
          | e2e, None -> e2e
        in
        print_report r;
        r)
      ws
  in
  exit (if List.for_all (fun r -> r.ok) reports then 0 else 1)

(* ---- @perf-smoke ---- *)

let smoke path =
  let module J = Telemetry.Json in
  let ic = open_in_bin path in
  let doc = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let doc =
    match J.of_string doc with
    | Ok d -> d
    | Error e -> failwith (path ^ ": " ^ e)
  in
  let list key = Option.value ~default:[] (Option.bind (J.member key doc) J.to_list) in
  let str key o = Option.value ~default:"" (Option.bind (J.member key o) J.to_string_opt) in
  let declared key = List.map (fun o -> (str "name" o, str "unit" o)) (list key) in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let names = List.map (str "name") (list "workloads") in
  List.iter
    (fun name ->
      if Load.find name = None then problem "BENCHMARK.json names unknown workload %s" name)
    names;
  List.iter
    (fun (w : Load.workload) ->
      if not (List.mem w.name names) then problem "BENCHMARK.json leaves out %s" w.name)
    Load.workloads;
  let spans_dir = "perf-smoke-trace" in
  let check_declared w key (r : report) =
    List.iter
      (fun (name, unit_) ->
        match List.find_opt (fun ((m : Metrics.t), _, _) -> m.name = name) r.metrics with
        | None -> problem "%s: %s is declared but not emitted" w name
        | Some (m, _, _) ->
            if m.unit_ <> unit_ then
              problem "%s: %s is emitted in %s, declared in %s" w name m.unit_ unit_)
      (declared key)
  in
  List.iter
    (fun (w : Load.workload) ->
      (match
         measure ~seed:default_seed ~seconds:0.3 ~warmup:0.1 ~trace:true ~spans_dir w
       with
      | e2e, Some layer ->
          check_declared w.name "end_to_end" e2e;
          check_declared w.name "per_layer" layer;
          (* the per-layer report carries the untraced child's errors too *)
          List.iter
            (fun p -> problem "%s: %s" w.name p)
            (List.sort_uniq compare (e2e.problems @ layer.problems));
          if not (e2e.ok && layer.ok) then problem "%s: a check failed" w.name
      | _, None -> assert false);
      match Spans.check_file (Filename.concat spans_dir (w.name ^ ".spans.json")) with
      | Ok n -> Printf.printf "perf-smoke %s: %d spans nest in their requests\n%!" w.name n
      | Error e -> problem "%s spans: %s" w.name e)
    Load.workloads;
  match !problems with
  | [] -> print_endline "perf-smoke OK"
  | ps ->
      List.iter (fun p -> prerr_endline ("perf-smoke: " ^ p)) (List.rev ps);
      exit 1

let child_cmd = function
  | [ w; seed; seconds; warmup; setups; traced; spans_dir ] ->
      let w = match Load.find w with Some w -> w | None -> usage () in
      let seconds = float_of_string seconds and warmup = float_of_string warmup in
      (* a wedged run must not outlive the caller's time limit *)
      ignore (Unix.alarm (int_of_float (2. *. (seconds +. warmup)) + 40));
      Load.run w
        {
          Load.seed = int_of_string seed;
          seconds;
          warmup;
          setups = int_of_string setups;
          traced = traced = "1";
          spans_dir;
        }
  | _ -> usage ()

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> run_cmd args
  | [ _; "smoke"; path ] -> smoke path
  | _ :: "child" :: args -> child_cmd args
  | _ -> usage ()
