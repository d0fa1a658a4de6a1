(* Benchmark entry point. Default run: every figure in quick mode plus the
   reclamation and micro benches, printed as text tables. See README for
   the figure-to-paper mapping; EXPERIMENTS.md records a reference run. *)

let parse_threads s =
  try
    let ts = String.split_on_char ',' s |> List.map int_of_string in
    if ts = [] || List.exists (fun t -> t < 1) ts then None else Some ts
  with Failure _ -> None

let usage () =
  print_string
    "usage: main.exe [command] [options]\n\n\
     commands:\n\
    \  all            every figure + reclaim + ablation + micro (default)\n\
    \  figure N       regenerate Figure N of the paper (N in 2..7, or 'all')\n\
    \  reclaim        reclamation footprint comparison\n\
    \  ablation       design-choice ablations (scatter, split unlink, ...)\n\
    \  micro          Bechamel per-operation latency benchmarks\n\
    \  telemetry      contended run with telemetry on; report as table,\n\
    \                 or as JSON with --json\n\
    \  telemetry-smoke  micro + contended run under telemetry; validate\n\
    \                 the emitted JSON schema (used by @telemetry-smoke)\n\
    \  scaling        thread-sweep scalability baseline; writes\n\
    \                 BENCH_scaling.json (schema hohtx-bench/1)\n\
    \  scaling-smoke  tiny 2-thread sweep + schema validation of the\n\
    \                 emitted file (used by @bench-smoke)\n\
    \  service        sustained-load run against the sharded service;\n\
    \                 writes BENCH_service.json (schema hohtx-load/1)\n\
    \  service-matrix service-knob probe matrix: caller-runs baseline,\n\
    \                 +pool, +pool+hotcache, +hotcache, plus an open-loop\n\
    \                 overload pair asserting SLO shedding; writes\n\
    \                 BENCH_service.json (schema hohtx-load/1, matrix doc)\n\
    \  service-smoke  miniature probe matrix + schema/verdict validation\n\
    \                 of the emitted file (used by @service-load-smoke)\n\
    \  soak           adversarial soak: scripted churn phases + stalled-\n\
    \                 reader and crash adversaries; writes BENCH_soak.json\n\
    \                 (schema hohtx-soak/1); with --scenario, replay one\n\
    \                 DST adversary (stalled-reader|crash-commit|crash-multi)\n\
    \  soak-smoke     miniature deterministic soak + schema validation of\n\
    \                 the emitted file (used by @soak-smoke)\n\n\
     options:\n\
    \  --json         emit the report as JSON on stdout too (telemetry,\n\
    \                 scaling)\n\
    \  --full         paper-scale parameters (50k ops/thread, 21-bit trees)\n\
    \  --quick        reduced parameters (default)\n\
    \  --verify       run the serialization checker on every benchmark run\n\
    \  --aborts       also print abort-rate tables per panel\n\
    \  --threads LIST comma-separated thread counts (default 1,2,4,8)\n\
    \  --csv DIR      also write CSV series under DIR\n\
    \  --out FILE     output path for the scaling/service report\n\
    \                 (default BENCH_scaling.json / BENCH_service.json)\n\
    \  --shards N     service: shard count (default 4)\n\
    \  --theta F      service: Zipfian skew exponent (default 0.99)\n\
    \  --rate R       service: open-loop arrival rate in req/s\n\
    \                 (default: closed loop)\n\
    \  --duration S   service: steady-state window seconds (default 3)\n\
    \  --pipeline N   service: outstanding async submissions per client\n\
    \                 (default 1 = synchronous issue)\n\
    \  --seed N       soak/service: deterministic seed\n\
    \  --key-bits N   soak/service: key-range exponent (default 8/10)\n\
    \  --phases S     soak: churn script, e.g. grow:4x400,storm:4x600@0.99\n\
    \  --spec JSON    soak/service: full spec document (as emitted in\n\
    \                 reports; service: includes pool/hotcache/slo knobs)\n\
    \  --scenario S   soak: run one DST adversary instead of the churn run\n\
    \  --slo-us N     soak: per-op latency SLO in microseconds (default 1000)\n"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = ref true in
  let verify = ref false in
  let aborts = ref false in
  let json = ref false in
  let csv_dir = ref None in
  let out = ref None in
  let threads = ref [ 1; 2; 4; 8 ] in
  let shards = ref 4 in
  let theta = ref 0.99 in
  let rate = ref None in
  let duration = ref 3.0 in
  let seed = ref None in
  let key_bits = ref None in
  let phases = ref None in
  let spec = ref None in
  let scenario = ref None in
  let slo_us = ref None in
  let pipeline = ref None in
  let command = ref [] in
  let rec parse = function
    | [] -> ()
    | "--full" :: rest ->
        quick := false;
        parse rest
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--verify" :: rest ->
        verify := true;
        parse rest
    | "--aborts" :: rest ->
        aborts := true;
        parse rest
    | "--json" :: rest ->
        json := true;
        parse rest
    | "--csv" :: dir :: rest ->
        csv_dir := Some dir;
        parse rest
    | "--out" :: path :: rest ->
        out := Some path;
        parse rest
    | "--shards" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            shards := n;
            parse rest
        | _ ->
            prerr_endline "bad --shards";
            exit 2)
    | "--theta" :: f :: rest -> (
        match float_of_string_opt f with
        | Some f when f >= 0. ->
            theta := f;
            parse rest
        | _ ->
            prerr_endline "bad --theta";
            exit 2)
    | "--rate" :: r :: rest -> (
        match float_of_string_opt r with
        | Some r when r > 0. ->
            rate := Some r;
            parse rest
        | _ ->
            prerr_endline "bad --rate";
            exit 2)
    | "--duration" :: s :: rest -> (
        match float_of_string_opt s with
        | Some s when s > 0. ->
            duration := s;
            parse rest
        | _ ->
            prerr_endline "bad --duration";
            exit 2)
    | "--threads" :: ts :: rest -> (
        match parse_threads ts with
        | Some ts ->
            threads := ts;
            parse rest
        | None ->
            prerr_endline "bad --threads";
            exit 2)
    | "--seed" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n ->
            seed := Some n;
            parse rest
        | None ->
            prerr_endline "bad --seed";
            exit 2)
    | "--key-bits" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 && n <= 20 ->
            key_bits := Some n;
            parse rest
        | _ ->
            prerr_endline "bad --key-bits";
            exit 2)
    | "--phases" :: s :: rest -> (
        match Soak.parse_phases s with
        | Ok ps ->
            phases := Some ps;
            parse rest
        | Error e ->
            prerr_endline ("bad --phases: " ^ e);
            exit 2)
    | "--spec" :: s :: rest -> (
        match
          Result.bind (Telemetry.Json.of_string s)
            Harness.Factories.Spec.of_json
        with
        | Ok sp ->
            spec := Some sp;
            parse rest
        | Error e ->
            prerr_endline ("bad --spec: " ^ e);
            exit 2)
    | "--scenario" :: s :: rest ->
        scenario := Some s;
        parse rest
    | "--pipeline" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            pipeline := Some n;
            parse rest
        | _ ->
            prerr_endline "bad --pipeline";
            exit 2)
    | "--slo-us" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            slo_us := Some n;
            parse rest
        | _ ->
            prerr_endline "bad --slo-us";
            exit 2)
    | ("--help" | "-h") :: _ ->
        usage ();
        exit 0
    | arg :: rest ->
        command := !command @ [ arg ];
        parse rest
  in
  parse args;
  let p =
    {
      Bench_figures.quick = !quick;
      csv_dir = !csv_dir;
      verify = !verify;
      aborts = !aborts;
      threads_list = !threads;
    }
  in
  let figure = function
    | "2" -> Bench_figures.figure_2 p
    | "3" -> Bench_figures.figure_3 p
    | "4" -> Bench_figures.figure_4 p
    | "5" -> Bench_figures.figure_5 p
    | "6" -> Bench_figures.figure_6 p
    | "7" -> Bench_figures.figure_7 p
    | "all" ->
        List.iter
          (fun f -> f p)
          Bench_figures.
            [ figure_2; figure_3; figure_4; figure_5; figure_6; figure_7 ]
    | n ->
        Printf.eprintf "unknown figure %S\n" n;
        exit 2
  in
  Tm.Thread.with_registered (fun _ ->
      match !command with
      | [] | [ "all" ] ->
          Printf.printf
            "hohtx benchmarks (%s mode; threads = %s; 1 run per point)\n"
            (if !quick then "quick" else "full")
            (String.concat "," (List.map string_of_int !threads));
          figure "all";
          Bench_figures.reclaim_bench p;
          Bench_figures.ablation_bench p;
          Bench_micro.run ()
      | [ "figure"; n ] -> figure n
      | [ "reclaim" ] -> Bench_figures.reclaim_bench p
      | [ "ablation" ] -> Bench_figures.ablation_bench p
      | [ "micro" ] -> Bench_micro.run ()
      | [ "telemetry" ] -> Bench_telemetry.run ~json:!json ()
      | [ "telemetry-smoke" ] -> Bench_telemetry.smoke ()
      | [ "scaling" ] ->
          Bench_scaling.run
            {
              Bench_scaling.quick = !quick;
              verify = !verify;
              threads_list = !threads;
              json_stdout = !json;
              out = Option.value !out ~default:Bench_scaling.default_out;
            }
      | [ "scaling-smoke" ] -> Bench_scaling.smoke ()
      | [ "service" ] ->
          let d = Bench_service.default_params in
          Bench_service.run
            {
              d with
              Bench_service.spec =
                (match !spec with
                | Some sp -> sp
                | None ->
                    { d.Bench_service.spec with
                      Harness.Factories.Spec.shards = Some !shards });
              threads = List.fold_left max 1 !threads;
              theta = !theta;
              key_bits =
                Option.value !key_bits ~default:d.Bench_service.key_bits;
              seed = Option.value !seed ~default:d.Bench_service.seed;
              pipeline =
                Option.value !pipeline ~default:d.Bench_service.pipeline;
              arrival =
                (match !rate with
                | Some r -> Bench_service.Open_loop r
                | None -> Bench_service.Closed_loop);
              warmup_s = (if !quick then 0.5 else 1.0);
              measure_s = !duration;
              json_stdout = !json;
              out = Option.value !out ~default:Bench_service.default_out;
            }
            ~mode:(if !quick then "quick" else "full")
      | [ "service-matrix" ] ->
          let threads = List.fold_left max 1 !threads in
          Bench_service.run_matrix
            {
              (Bench_service.matrix_params ~threads ~measure_s:!duration) with
              Bench_service.theta = !theta;
              json_stdout = !json;
              out = Option.value !out ~default:Bench_service.default_out;
            }
      | [ "service-smoke" ] -> Bench_service.smoke ()
      | [ "soak" ] -> (
          let d = Bench_soak.default_params in
          let sp = Option.value !spec ~default:d.Bench_soak.spec in
          let sd = Option.value !seed ~default:d.Bench_soak.seed in
          match !scenario with
          | Some sc -> Bench_soak.run_scenario ~scenario:sc ~seed:sd sp
          | None ->
              Bench_soak.run
                {
                  Bench_soak.spec = sp;
                  phases = Option.value !phases ~default:d.Bench_soak.phases;
                  key_bits =
                    Option.value !key_bits ~default:d.Bench_soak.key_bits;
                  seed = sd;
                  slo_us = Option.value !slo_us ~default:d.Bench_soak.slo_us;
                  json_stdout = !json;
                  out = Option.value !out ~default:Bench_soak.default_out;
                }
                ~mode:(if !quick then "quick" else "full"))
      | [ "soak-smoke" ] -> Bench_soak.smoke ()
      | _ ->
          usage ();
          exit 2)
