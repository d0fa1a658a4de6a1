(* The service matrix verdicts of [Bench_service.validate_matrix], checked
   against the committed matrix document and against copies of it with
   one leg emptied or its run parameters dropped. *)

module Json = Telemetry.Json

let committed () =
  let ic = open_in_bin "../BENCH_service.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.of_string text with
  | Ok js -> js
  | Error e -> Alcotest.failf "BENCH_service.json does not parse: %s" e

(* Replace the fields of a JSON object named in [edits]. *)
let set_fields edits = function
  | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             match List.assoc_opt k edits with
             | Some f -> (k, f v)
             | None -> (k, v))
           fields)
  | js -> js

(* The all-on open-loop run with its get class emptied, as an open-loop
   run that sheds every get reports it: count 0 and every quantile 0. The
   document's own [slo_ok] is left true, as the vacuous verdict set it. *)
let no_gets js =
  let empty_get c =
    if Json.member "class" c = Some (Json.String "get") then
      set_fields
        (List.map
           (fun k -> (k, fun _ -> Json.Int 0))
           [ "count"; "p50_ns"; "p99_ns"; "p999_ns"; "max_ns" ])
        c
    else c
  in
  let empty_run r =
    if Json.member "config" r = Some (Json.String "open_all_on") then
      set_fields
        [
          ( "classes",
            function
            | Json.List cs -> Json.List (List.map empty_get cs)
            | v -> v );
        ]
        r
    else r
  in
  set_fields
    [
      ( "runs",
        function Json.List rs -> Json.List (List.map empty_run rs) | v -> v );
      ( "matrix",
        set_fields
          [
            ("open_all_on_get_p99_ns", fun _ -> Json.Int 0);
            ("slo_ok", fun _ -> Json.Bool true);
          ] );
    ]
    js

let test_committed_validates () =
  match Bench_service.validate_matrix (committed ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "committed matrix rejected: %s" e

let test_no_gets_rejected () =
  match Bench_service.validate_matrix (no_gets (committed ())) with
  | Ok () -> Alcotest.fail "a matrix whose open-loop run served no gets passed"
  | Error e ->
      Alcotest.(check bool)
        ("the error names the served gets: " ^ e)
        true
        (String.starts_with ~prefix:"open-loop all-on run served 0 gets" e)

(* The document says how it was run: mode "matrix" with the warm-up and
   measurement windows. A size-preset mode, as older documents carried, or
   a missing window is rejected. *)
let test_run_parameters_recorded () =
  let js = committed () in
  Alcotest.(check (option string))
    "mode" (Some "matrix")
    (Option.bind (Json.member "mode" js) Json.to_string_opt);
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " recorded") true
        (Option.is_some (Option.bind (Json.member name js) Json.to_float)))
    [ "warmup_s"; "measure_s" ];
  let rejected what doc =
    Alcotest.(check bool)
      (what ^ " is rejected") true
      (Result.is_error (Bench_service.validate_matrix doc))
  in
  rejected "a preset mode"
    (set_fields [ ("mode", fun _ -> Json.String "matrix-quick") ] js);
  rejected "a missing window"
    (match js with
    | Json.Obj fields ->
        Json.Obj (List.filter (fun (k, _) -> k <> "measure_s") fields)
    | js -> js)

(* One run of the committed matrix passes the per-run check; the same run
   with its get p50 raised above its p99 does not. *)
let test_non_monotone_run_rejected () =
  let run =
    match Option.bind (Json.member "runs" (committed ())) Json.to_list with
    | Some (r :: _) -> r
    | _ -> Alcotest.fail "the committed matrix has no runs"
  in
  (match Bench_service.validate run with
  | Ok () -> ()
  | Error e -> Alcotest.failf "committed run rejected: %s" e);
  let raise_p50 c =
    if Json.member "class" c = Some (Json.String "get") then
      match Option.bind (Json.member "p99_ns" c) Json.to_int with
      | Some p99 -> set_fields [ ("p50_ns", fun _ -> Json.Int (p99 + 1)) ] c
      | None -> Alcotest.fail "the get class has no p99_ns"
    else c
  in
  let bad =
    set_fields
      [
        ( "classes",
          function Json.List cs -> Json.List (List.map raise_p50 cs) | v -> v );
      ]
      run
  in
  match Bench_service.validate bad with
  | Ok () -> Alcotest.fail "a run with p50 above p99 passed"
  | Error e ->
      Alcotest.(check string)
        "the error names the class" "classes[0]: class get: quantiles not \
                                     monotone" e

let () =
  Alcotest.run "bench_service"
    [
      ( "matrix",
        [
          Alcotest.test_case "run parameters recorded" `Quick
            test_run_parameters_recorded;
          Alcotest.test_case "committed document validates" `Quick
            test_committed_validates;
          Alcotest.test_case "open-loop run with no gets is rejected" `Quick
            test_no_gets_rejected;
        ] );
      ( "run",
        [
          Alcotest.test_case "non-monotone get quantiles are rejected" `Quick
            test_non_monotone_run_rejected;
        ] );
    ]
