(* Tests for the benchmark harness: workload generation, the serialization
   checker itself, the driver, and reporting. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

open Harness

(* ---- workload ---- *)

let test_workload_determinism () =
  let spec =
    Workload.spec ~key_bits:8 ~lookup_pct:33 ~threads:2 ~ops_per_thread:100 ()
  in
  let draw () =
    let rng = Workload.Rng.create ~seed:spec.Workload.seed ~thread:1 in
    List.init 100 (fun _ -> Workload.next_op rng spec)
  in
  checkb "same seed, same stream" true (draw () = draw ());
  let rng2 = Workload.Rng.create ~seed:spec.Workload.seed ~thread:2 in
  let other = List.init 100 (fun _ -> Workload.next_op rng2 spec) in
  checkb "different thread, different stream" true (other <> draw ())

let test_workload_key_range () =
  let spec =
    Workload.spec ~key_bits:6 ~lookup_pct:0 ~threads:1 ~ops_per_thread:1 ()
  in
  check "range" 64 (Workload.key_range spec);
  let rng = Workload.Rng.create ~seed:1 ~thread:0 in
  for _ = 1 to 1000 do
    let _, k = Workload.next_op rng spec in
    checkb "key within range" true (k >= 1 && k <= 64)
  done

let test_workload_mix () =
  let spec =
    Workload.spec ~key_bits:10 ~lookup_pct:80 ~threads:1 ~ops_per_thread:1 ()
  in
  let rng = Workload.Rng.create ~seed:3 ~thread:0 in
  let counts = Hashtbl.create 3 in
  let bump k =
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  in
  for _ = 1 to 10000 do
    let op, _ = Workload.next_op rng spec in
    bump op
  done;
  (* The stream is fully determined by the pinned seed, so assert the
     exact draw counts rather than a tolerance band: any change to the
     generator shows up as a precise diff instead of an occasional
     borderline failure. The mix matches the requested 80/10/10 split. *)
  let get k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  check "lookups for seed 3" 8000 (get Workload.Lookup);
  check "inserts for seed 3" 1040 (get Workload.Insert);
  check "removes for seed 3" 960 (get Workload.Remove)

let test_prefill () =
  let spec =
    Workload.spec ~key_bits:8 ~lookup_pct:0 ~threads:1 ~ops_per_thread:1 ()
  in
  let keys = Workload.prefill_keys spec in
  check "about half the range" 128 (List.length keys);
  check "distinct" 128 (List.length (List.sort_uniq compare keys));
  List.iter (fun k -> checkb "in range" true (k >= 1 && k <= 256)) keys

let test_invalid_specs () =
  let bad f = match f () with _ -> false | exception Invalid_argument _ -> true in
  checkb "key_bits" true
    (bad (fun () ->
         Workload.spec ~key_bits:0 ~lookup_pct:0 ~threads:1 ~ops_per_thread:1 ()));
  checkb "lookup_pct" true
    (bad (fun () ->
         Workload.spec ~key_bits:4 ~lookup_pct:101 ~threads:1 ~ops_per_thread:1 ()));
  checkb "threads" true
    (bad (fun () ->
         Workload.spec ~key_bits:4 ~lookup_pct:0 ~threads:0 ~ops_per_thread:1 ()))

(* ---- the serialization checker itself ---- *)

let entry ?earliest op key result stamp =
  {
    Serial_check.op;
    key;
    result;
    earliest = Option.value ~default:stamp earliest;
    stamp;
  }

let test_checker_accepts_valid () =
  let log =
    [|
      entry Workload.Insert 1 true 10;
      entry Workload.Lookup 1 true 11;
      entry Workload.Remove 1 true 12;
      entry Workload.Lookup 1 false 13;
      entry Workload.Insert 1 true 14;
    |]
  in
  checkb "valid history accepted" true
    (Serial_check.check ~initial:[] [ log ] = Ok ())

let test_checker_initial_contents () =
  let log = [| entry Workload.Lookup 5 true 1; entry Workload.Remove 5 true 2 |] in
  checkb "prefilled key visible" true
    (Serial_check.check ~initial:[ 5 ] [ log ] = Ok ())

let test_checker_rejects_lost_insert () =
  let log =
    [| entry Workload.Insert 1 true 10; entry Workload.Lookup 1 false 11 |]
  in
  checkb "lost insert detected" true
    (Serial_check.check ~initial:[] [ log ] <> Ok ())

let test_checker_rejects_double_insert () =
  let log =
    [| entry Workload.Insert 1 true 10; entry Workload.Insert 1 true 11 |]
  in
  checkb "double insert detected" true
    (Serial_check.check ~initial:[] [ log ] <> Ok ())

let test_checker_merges_threads_by_stamp () =
  let t1 = [| entry Workload.Insert 1 true 10; entry Workload.Lookup 1 false 30 |] in
  let t2 = [| entry Workload.Remove 1 true 20 |] in
  checkb "cross-thread order derived from stamps" true
    (Serial_check.check ~initial:[] [ t1; t2 ] = Ok ())

let test_checker_reader_after_writer_at_tie () =
  (* reader with stamp = writer's stamp saw that writer's effect *)
  let t1 = [| entry Workload.Insert 1 true 10 |] in
  let t2 = [| entry Workload.Lookup 1 true 10 |] in
  checkb "tie: reader placed after writer" true
    (Serial_check.check ~initial:[] [ t1; t2 ] = Ok ())

let test_checker_flex_remove () =
  (* remove-false with an interval (earliest < stamp) is accepted iff the
     key was absent somewhere inside the interval *)
  let valid =
    [
      [| entry Workload.Remove 1 true 15 |];
      [| entry ~earliest:10 Workload.Remove 1 false 30 |];
      [| entry Workload.Insert 1 true 20 |];
    ]
  in
  checkb "absence inside interval accepted" true
    (Serial_check.check ~initial:[ 1 ] valid = Ok ());
  let invalid =
    [
      [| entry ~earliest:10 Workload.Remove 1 false 30 |];
      (* key present the whole time: last insert before the interval *)
    ]
  in
  checkb "no absence in interval rejected" true
    (Serial_check.check ~initial:[ 1 ] invalid <> Ok ());
  let point =
    [ [| entry Workload.Remove 1 false 30 |] ]
  in
  checkb "point remove-false with key present rejected" true
    (Serial_check.check ~initial:[ 1 ] point <> Ok ())

(* Fuzz the checker: generate a random valid history from a model run,
   check it passes; then corrupt one entry and check it is rejected. *)
let gen_history =
  QCheck.Gen.(
    list_size (int_range 5 60)
      (pair (int_bound 2) (pair (int_bound 7) bool)))

let build_valid_history ops =
  let model = Hashtbl.create 16 in
  let stamp = ref 0 in
  List.map
    (fun (op, (key, _)) ->
      incr stamp;
      let present = Hashtbl.mem model key in
      match op with
      | 0 ->
          if not present then Hashtbl.replace model key ();
          entry Workload.Insert key (not present) !stamp
      | 1 ->
          if present then Hashtbl.remove model key;
          entry Workload.Remove key present !stamp
      | _ -> entry Workload.Lookup key present !stamp)
    ops

let qcheck_checker_fuzz =
  QCheck.Test.make ~name:"checker accepts valid, rejects corrupted" ~count:200
    (QCheck.make gen_history)
    (fun ops ->
      let history = build_valid_history ops in
      let ok = Serial_check.check ~initial:[] [ Array.of_list history ] = Ok () in
      let rejects_corruption =
        match history with
        | [] -> true
        | first :: rest ->
            let corrupted = { first with result = not first.Serial_check.result } in
            (* flipping the first op's result always breaks the history *)
            Serial_check.check ~initial:[] [ Array.of_list (corrupted :: rest) ]
            <> Ok ()
      in
      ok && rejects_corruption)

(* ---- driver end-to-end ---- *)

let test_driver_end_to_end () =
  Tm.Thread.with_registered (fun _ ->
      let spec =
        Workload.spec ~key_bits:6 ~lookup_pct:33 ~threads:2
          ~ops_per_thread:1000 ()
      in
      let h =
        (Factories.make
           (Factories.Spec.v ~window:4 Factories.Spec.Slist
              (Structs.Mode.Rr_kind (module Rr.V))))
          .Factories.make ()
      in
      let r = Driver.run spec h in
      checkb "verdict ok" true (r.Driver.verdict = Ok ());
      check "ops counted" 2000 r.Driver.total_ops;
      checkb "throughput positive" true (r.Driver.throughput > 0.);
      checkb "abort rate sane" true
        (Driver.abort_rate r >= 0. && Driver.abort_rate r < 1.))

(* Serializability must survive the commit-path fast paths: with
   max_attempts = 0 every window transaction goes straight to the serial
   fallback, so this run exercises watermark quiescence (only registered
   ids are polled) and read-set dedup together on every operation, and
   the stamp-order checker must still accept the history. *)
let test_driver_serial_pressure () =
  Tm.Thread.with_registered (fun _ ->
      let spec =
        Workload.spec ~key_bits:5 ~lookup_pct:20 ~threads:4
          ~ops_per_thread:400 ()
      in
      let h =
        (Factories.make
           (Factories.Spec.v ~window:2 ~max_attempts:0 Factories.Spec.Slist
              (Structs.Mode.Rr_kind (module Rr.V))))
          .Factories.make ()
      in
      let r = Driver.run spec h in
      checkb "serializable under serial pressure" true
        (r.Driver.verdict = Ok ());
      checkb "fallbacks actually exercised" true
        (Tm.Stats.fallbacks r.Driver.tm > 0))

let test_driver_catches_bugs () =
  (* a deliberately broken store: get always reports Absent. Wrapping an
     existing packed store in a new module is the Store_intf way to
     interpose on single operations. *)
  Tm.Thread.with_registered (fun _ ->
      let inner =
        (Factories.make (Factories.Spec.v Factories.Spec.Slist Structs.Mode.Htm))
          .Factories.make ()
      in
      let module Broken = struct
        type t = Store.t

        let name _ = "broken"
        let stamped = Store.stamped

        let get st ~thread key =
          let r = Store.get st ~thread key in
          { r with Store.outcome = Store.Absent }

        let insert = Store.insert
        let remove = Store.remove
        let scan st ~thread ~low ~count = Store.scan st ~thread ~low ~count
        let batch st ~thread ~fuse ops = Store.batch ~fuse st ~thread ops
        let stats = Store.stats
        let finalize_thread = Store.finalize_thread
        let drain = Store.drain
        let size = Store.size
        let contents = Store.contents
        let check = Store.check
        let pool_live = Store.pool_live
        let max_backlog = Store.max_backlog
        let leaked = Store.leaked
      end in
      let broken = Store.pack (module Broken) inner in
      let spec =
        Workload.spec ~key_bits:4 ~lookup_pct:50 ~threads:2
          ~ops_per_thread:300 ()
      in
      let r = Driver.run spec broken in
      checkb "broken implementation rejected" true (r.Driver.verdict <> Ok ()))

(* ---- raw-speed spec knobs ---- *)

let opt_spec ?fusion () =
  Factories.Spec.v ?fusion Factories.Spec.Slist
    (Structs.Mode.Rr_kind (module Rr.V))

let test_spec_opt_labels () =
  let label s = Factories.Spec.label s in
  let base = label (opt_spec ()) in
  Alcotest.(check string)
    "fusion suffixes the label" (base ^ "+fuse4")
    (label (opt_spec ~fusion:4 ()));
  Alcotest.(check string)
    "fusion 1 is the off state" base
    (label (opt_spec ~fusion:1 ()))

let test_spec_opt_json_roundtrip () =
  let s = opt_spec ~fusion:4 () in
  let j = Factories.Spec.to_json s in
  (match Factories.Spec.of_json j with
  | Error e -> Alcotest.failf "of_json rejected its own to_json: %s" e
  | Ok s' ->
      checkb "round trip is lossless" true
        (Telemetry.Json.equal j (Factories.Spec.to_json s'));
      Alcotest.(check string)
        "label survives" (Factories.Spec.label s) (Factories.Spec.label s'));
  (* a tampered label must be caught against the recomputed one *)
  let tampered =
    match j with
    | Telemetry.Json.Obj kvs ->
        Telemetry.Json.Obj
          (List.map
             (fun (k, v) ->
               if k = "label" then (k, Telemetry.Json.String "RR-V+fuse2")
               else (k, v))
             kvs)
    | _ -> Alcotest.fail "to_json is not an object"
  in
  checkb "mismatched optimization label rejected" true
    (Result.is_error (Factories.Spec.of_json tampered))

let test_spec_opt_validation () =
  checkb "fusion < 1 rejected" true
    (match opt_spec ~fusion:0 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* A key [to_json] cannot emit is a knob the spec cannot express: a typo
   or a removed option must fail loudly, naming the key, instead of
   running a configuration nobody asked for. *)
let test_spec_unknown_keys_rejected () =
  List.iter
    (fun (key, doc) ->
      let parsed = Telemetry.Json.of_string doc in
      match Result.bind parsed Factories.Spec.of_json with
      | Ok _ -> Alcotest.failf "%s accepted" doc
      | Error e ->
          Alcotest.(check string) ("error names " ^ key)
            (Printf.sprintf "Spec.of_json: unknown key %S" key)
            e)
    [
      ("fusoin", {|{"structure":"slist","kind":"RR-V","fusoin":4}|});
      ("magazines", {|{"structure":"slist","kind":"RR-V","magazines":true}|});
    ]

(* Fusion must reach the structures: driver runs with it on must stay
   serializable. Beyond the plain list this sweeps the
   structures whose window protocols publish state through [Tm.defer]
   (the dlist two-phase remove, the skiplist resume hint) — fused
   windows must treat those as fusion barriers, or the next window runs
   against pre-commit state (a real bug this test caught). *)
let test_driver_all_optimizations_on () =
  Tm.Thread.with_registered (fun _ ->
      let spec =
        Workload.spec ~key_bits:6 ~lookup_pct:33 ~threads:2
          ~ops_per_thread:1000 ()
      in
      List.iter
        (fun structure ->
          let h =
            (Factories.make
               (Factories.Spec.v ~fusion:4 structure
                  (Structs.Mode.Rr_kind (module Rr.V))))
              .Factories.make ()
          in
          let r = Driver.run spec h in
          checkb
            (Factories.Spec.structure_name structure
            ^ " serializable with fuse4")
            true
            (r.Driver.verdict = Ok ());
          check "ops counted" 2000 r.Driver.total_ops)
        [
          Factories.Spec.Slist; Factories.Spec.Dlist; Factories.Spec.Skiplist;
          Factories.Spec.Hashset;
        ])

(* ---- reporting ---- *)

let test_report_csv () =
  let series =
    [
      { Report.label = "A"; points = [ (1, 10.); (2, 20.) ] };
      { Report.label = "B"; points = [ (1, 5.) ] };
    ]
  in
  let dir = Filename.temp_file "hohtx" "" in
  Sys.remove dir;
  let path = Report.save_csv ~dir ~name:"t" ~xlabel:"threads" series in
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Alcotest.(check (list string))
    "csv contents"
    [ "threads,A,B"; "1,10.0,5.0"; "2,20.0," ]
    (List.rev !lines)

let () =
  Alcotest.run "harness"
    [
      ( "workload",
        [
          Alcotest.test_case "determinism" `Quick test_workload_determinism;
          Alcotest.test_case "key range" `Quick test_workload_key_range;
          Alcotest.test_case "mix" `Quick test_workload_mix;
          Alcotest.test_case "prefill" `Quick test_prefill;
          Alcotest.test_case "invalid specs" `Quick test_invalid_specs;
        ] );
      ( "serialization checker",
        [
          Alcotest.test_case "accepts valid" `Quick test_checker_accepts_valid;
          Alcotest.test_case "initial contents" `Quick
            test_checker_initial_contents;
          Alcotest.test_case "rejects lost insert" `Quick
            test_checker_rejects_lost_insert;
          Alcotest.test_case "rejects double insert" `Quick
            test_checker_rejects_double_insert;
          Alcotest.test_case "merges threads" `Quick
            test_checker_merges_threads_by_stamp;
          Alcotest.test_case "reader-writer ties" `Quick
            test_checker_reader_after_writer_at_tie;
          Alcotest.test_case "interval remove" `Quick test_checker_flex_remove;
        ] );
      ( "checker-fuzz", [ QCheck_alcotest.to_alcotest qcheck_checker_fuzz ] );
      ( "driver",
        [
          Alcotest.test_case "end to end" `Slow test_driver_end_to_end;
          Alcotest.test_case "serial pressure" `Slow
            test_driver_serial_pressure;
          Alcotest.test_case "catches bugs" `Slow test_driver_catches_bugs;
        ] );
      ( "spec knobs",
        [
          Alcotest.test_case "labels" `Quick test_spec_opt_labels;
          Alcotest.test_case "json round trip" `Quick
            test_spec_opt_json_roundtrip;
          Alcotest.test_case "validation" `Quick test_spec_opt_validation;
          Alcotest.test_case "unknown keys rejected" `Quick
            test_spec_unknown_keys_rejected;
          Alcotest.test_case "all-on driver run" `Slow
            test_driver_all_optimizations_on;
        ] );
      ("report", [ Alcotest.test_case "csv" `Quick test_report_csv ]);
    ]
