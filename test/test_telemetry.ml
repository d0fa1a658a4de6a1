(* Tests for the telemetry layer: histograms, JSON round-trips, abort
   attribution with forced conflict causes, and the report schema. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let with_tm f = Tm.Thread.with_registered (fun _ -> f ())

let with_telemetry f =
  Telemetry.set_enabled true;
  Telemetry.reset_slots ();
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) f

(* ---- histograms ---- *)

let test_hist_basics () =
  let h = Telemetry.Histogram.create () in
  checkb "fresh is empty" true (Telemetry.Histogram.is_empty h);
  for v = 1 to 1000 do
    Telemetry.Histogram.record h v
  done;
  check "count" 1000 (Telemetry.Histogram.count h);
  check "sum" 500_500 (Telemetry.Histogram.sum h);
  check "min" 1 (Telemetry.Histogram.min_value h);
  check "max" 1000 (Telemetry.Histogram.max_value h);
  (* Quantiles underestimate by at most one sub-bucket (12.5%). *)
  let p50 = Telemetry.Histogram.quantile h 0.5 in
  checkb "p50 within bucket error" true (p50 >= 437 && p50 <= 500);
  let p99 = Telemetry.Histogram.quantile h 0.99 in
  checkb "p99 within bucket error" true (p99 >= 866 && p99 <= 990);
  Telemetry.Histogram.reset h;
  check "reset clears" 0 (Telemetry.Histogram.count h)

let test_hist_buckets () =
  (* lower_bound (index_of v) <= v, and buckets are monotone. *)
  let probes = [ 0; 1; 7; 8; 9; 63; 64; 100; 1023; 1024; 123_456_789 ] in
  List.iter
    (fun v ->
      let i = Telemetry.Histogram.index_of v in
      let lo = Telemetry.Histogram.lower_bound i in
      checkb (Printf.sprintf "lower_bound %d" v) true (lo <= v);
      checkb
        (Printf.sprintf "next bucket above %d" v)
        true
        (Telemetry.Histogram.lower_bound (i + 1) > v))
    probes

let test_hist_merge () =
  let a = Telemetry.Histogram.create ()
  and b = Telemetry.Histogram.create () in
  List.iter (Telemetry.Histogram.record a) [ 5; 10; 20 ];
  List.iter (Telemetry.Histogram.record b) [ 1000; 2000 ];
  Telemetry.Histogram.merge ~into:a b;
  check "merged count" 5 (Telemetry.Histogram.count a);
  check "merged max" 2000 (Telemetry.Histogram.max_value a);
  check "merged min" 5 (Telemetry.Histogram.min_value a)

(* ---- JSON ---- *)

let test_json_roundtrip () =
  let open Telemetry.Json in
  let v =
    Obj
      [
        ("s", String "a \"quoted\"\nstring \t with \x01 control");
        ("i", Int (-42));
        ("f", Float 1.5);
        ("nan", Float Float.nan);
        ("b", Bool true);
        ("n", Null);
        ("l", List [ Int 1; List []; Obj [] ]);
      ]
  in
  let s = to_string v in
  match of_string s with
  | Error e -> Alcotest.fail ("emitted JSON failed to parse: " ^ e)
  | Ok parsed ->
      (* NaN serializes as null; everything else survives. *)
      let expected =
        Obj
          [
            ("s", String "a \"quoted\"\nstring \t with \x01 control");
            ("i", Int (-42));
            ("f", Float 1.5);
            ("nan", Null);
            ("b", Bool true);
            ("n", Null);
            ("l", List [ Int 1; List []; Obj [] ]);
          ]
      in
      checkb "round-trip" true (equal parsed expected)

let test_json_rejects () =
  let bad = [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated" ] in
  List.iter
    (fun s ->
      match Telemetry.Json.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted malformed %S" s))
    bad

(* ---- the checked reader ---- *)

let rejected what expected = function
  | Ok _ -> Alcotest.failf "%s was accepted" what
  | Error e -> Alcotest.(check string) what expected e

let test_reader_missing_field () =
  let open Telemetry.Json in
  let doc = Obj [ ("n", Int 3) ] in
  Alcotest.(check (result int string)) "present" (Ok 3) (field "n" to_int doc);
  rejected "a missing field" "missing or ill-typed field \"m\""
    (field "m" to_int doc);
  rejected "a field of a non-object" "missing or ill-typed field \"n\""
    (field "n" to_int (List [ doc ]))

let test_reader_ill_typed_field () =
  let open Telemetry.Json in
  let doc = Obj [ ("n", String "3"); ("f", Int 2) ] in
  rejected "a string read as an int" "missing or ill-typed field \"n\""
    (field "n" to_int doc);
  Alcotest.(check (result (float 0.) string))
    "an int reads as a float" (Ok 2.) (field "f" to_float doc)

let test_reader_wrong_tag () =
  let open Telemetry.Json in
  let tagged s = Obj [ ("schema", String s) ] in
  Alcotest.(check (result unit string))
    "the wanted tag" (Ok ()) (expect_schema "x/1" (tagged "x/1"));
  rejected "another tag" "schema \"x/2\", wanted \"x/1\""
    (expect_schema "x/1" (tagged "x/2"));
  rejected "no tag" "missing or ill-typed field \"schema\""
    (expect_schema "x/1" (Obj []))

let test_reader_each_names_first_failure () =
  let open Telemetry.Json in
  let doc =
    Obj
      [
        ( "xs",
          List
            [
              Obj [ ("name", String "a"); ("n", Int 1) ];
              Obj [ ("name", String "b") ];
              Obj [ ("name", String "c"); ("n", String "3") ];
            ] );
      ]
  in
  let checked = ref 0 in
  let has_n x =
    incr checked;
    Result.map ignore (field "n" to_int x)
  in
  rejected "the second element" "xs[1]: missing or ill-typed field \"n\""
    (each "xs" has_n doc);
  check "stops at the first failure" 2 !checked;
  (match each "xs" (fun _ -> Ok ()) doc with
  | Ok xs ->
      Alcotest.(check (result string string))
        "find by name" (Ok "c")
        (Result.bind (find "name" "c" xs) (field "name" to_string_opt));
      rejected "an absent name" "no name \"d\"" (find "name" "d" xs)
  | Error e -> Alcotest.fail e);
  rejected "a missing list" "missing or ill-typed field \"ys\""
    (each "ys" has_n doc)

(* ---- counters (the re-homed Tm_stats backend) ---- *)

let test_counters () =
  let c = Tm.Stats.create () in
  Tm.Stats.incr_started c;
  Tm.Stats.incr_started c;
  Tm.Stats.incr_commits c;
  Tm.Stats.incr_aborts_lock c;
  check "started" 2 (Tm.Stats.started c);
  check "commits" 1 (Tm.Stats.commits c);
  check "total aborts" 1 (Tm.Stats.total_aborts c);
  let d = Tm.Stats.copy c in
  Tm.Stats.add d c;
  check "add doubles" 4 (Tm.Stats.started d);
  match Tm.Stats.to_json c with
  | Telemetry.Json.Obj fields ->
      checkb "json has started" true
        (List.mem_assoc "started" fields)
  | _ -> Alcotest.fail "Stats.to_json is not an object"

(* ---- attribution ---- *)

let test_attribution_overflow () =
  let a = Telemetry.Attribution.create () in
  for uid = 0 to 99 do
    Telemetry.Attribution.record a ~site:"s" ~cause:"read_invalid" ~uid
  done;
  check "all recorded" 100
    (Telemetry.Attribution.count a ~site:"s" ~cause:"read_invalid");
  (* Distinct uids are capped; the overflow pseudo-uid absorbs the rest. *)
  let e = List.hd (Telemetry.Attribution.entries a) in
  let total =
    List.fold_left (fun acc (_, n) -> acc + n) 0 e.Telemetry.Attribution.top_tvars
  in
  checkb "top tvars bounded" true (List.length e.Telemetry.Attribution.top_tvars <= 8);
  checkb "tvar counts don't exceed total" true (total <= 100)

(* ---- forced abort causes, with attribution (tentpole test) ---- *)

(* Single-domain Read_invalid: poke both an already-read tvar and a
   yet-to-be-read one mid-transaction. The pokes advance the global clock
   past the transaction's read version, so the subsequent read of [b]
   attempts a timestamp extension — which fails, because [a] in the read
   set also changed — and the abort is attributed to [b]. (Poking only [b]
   would no longer abort at all: the extension would rescue the read.) *)
let test_forced_read_invalid () =
  with_telemetry (fun () ->
      with_tm (fun () ->
          Tm.Stats.reset (Tm.Thread.stats ());
          let a = Tm.tvar 0 and b = Tm.tvar 0 in
          let first = ref true in
          let seen =
            Tm.atomic ~site:"test.read_invalid" (fun txn ->
                let _ = Tm.read txn a in
                if !first then begin
                  first := false;
                  Tm.poke a 1;
                  Tm.poke b 7
                end;
                Tm.read txn b)
          in
          check "eventually reads poked value" 7 seen;
          let st = Tm.Thread.stats () in
          check "one read abort" 1 (Tm.Stats.aborts_read st);
          check "the failed extension was counted" 1 (Tm.Stats.ext_fails st);
          let rep = Telemetry.Report.snapshot () in
          let attr = rep.Telemetry.Report.attribution in
          check "attributed to site+cause" 1
            (Telemetry.Attribution.count attr ~site:"test.read_invalid"
               ~cause:"read_invalid");
          let e =
            List.find
              (fun e -> e.Telemetry.Attribution.site = "test.read_invalid")
              (Telemetry.Attribution.entries attr)
          in
          checkb "conflicting tvar identified" true
            (List.mem_assoc (Tm.tvar_id b) e.Telemetry.Attribution.top_tvars)))

(* Two-domain Read_invalid: domain A reads v and then waits for domain B to
   commit a write to v; A's re-read of v must observe the newer version and
   abort, attributing the conflict to v. Handshake makes it deterministic. *)
let test_two_domain_conflict () =
  with_telemetry (fun () ->
      let v = Tm.tvar 0 in
      let a_read = Atomic.make false and b_wrote = Atomic.make false in
      let writer =
        Domain.spawn (fun () ->
            Tm.Thread.with_registered (fun _ ->
                while not (Atomic.get a_read) do
                  Domain.cpu_relax ()
                done;
                Tm.atomic ~site:"test.writer" (fun txn -> Tm.write txn v 1);
                Atomic.set b_wrote true))
      in
      with_tm (fun () ->
          Tm.Stats.reset (Tm.Thread.stats ());
          let attempts = ref 0 in
          let r =
            Tm.atomic_stamped ~site:"test.reader" (fun txn ->
                incr attempts;
                let x = Tm.read txn v in
                if !attempts = 1 then begin
                  Atomic.set a_read true;
                  while not (Atomic.get b_wrote) do
                    Domain.cpu_relax ()
                  done
                end;
                ignore x;
                Tm.read txn v)
          in
          Domain.join writer;
          check "reader sees committed write" 1 r.Tm.value;
          check "two attempts" 2 r.Tm.attempts;
          let st = Tm.Thread.stats () in
          check "one read abort" 1 (Tm.Stats.aborts_read st);
          let rep = Telemetry.Report.snapshot () in
          let attr = rep.Telemetry.Report.attribution in
          check "abort attributed to reader site" 1
            (Telemetry.Attribution.count attr ~site:"test.reader"
               ~cause:"read_invalid");
          let e =
            List.find
              (fun e -> e.Telemetry.Attribution.site = "test.reader")
              (Telemetry.Attribution.entries attr)
          in
          checkb "conflict attributed to v" true
            (List.mem_assoc (Tm.tvar_id v) e.Telemetry.Attribution.top_tvars)))

(* Forced Lock_busy via the public white-box exception: the uid is unknown
   (-1) but the (site, cause) cell must still be recorded. *)
let test_forced_lock_busy () =
  with_telemetry (fun () ->
      with_tm (fun () ->
          Tm.Stats.reset (Tm.Thread.stats ());
          let first = ref true in
          Tm.atomic ~site:"test.lock_busy" (fun _txn ->
              if !first then begin
                first := false;
                raise (Tm.Abort Tm.Lock_busy)
              end);
          let st = Tm.Thread.stats () in
          check "one lock abort" 1 (Tm.Stats.aborts_lock st);
          let rep = Telemetry.Report.snapshot () in
          check "attributed" 1
            (Telemetry.Attribution.count rep.Telemetry.Report.attribution
               ~site:"test.lock_busy" ~cause:"lock_busy")))

(* Forced serial fallback: one attempt budget and an attempt that always
   aborts speculatively forces the serial path, which must be recorded in
   the fallback counter and the serial-latency histogram. *)
let test_forced_serial_fallback () =
  with_telemetry (fun () ->
      with_tm (fun () ->
          Tm.Stats.reset (Tm.Thread.stats ());
          let v = Tm.tvar 0 in
          let r =
            Tm.atomic_stamped ~site:"test.serial" ~max_attempts:1 (fun txn ->
                if not (Tm.is_serial txn) then raise (Tm.Abort Tm.Read_invalid);
                Tm.write txn v 9;
                Tm.read txn v)
          in
          check "serial result" 9 r.Tm.value;
          checkb "ran serially" true r.Tm.serial;
          let st = Tm.Thread.stats () in
          check "one fallback" 1 (Tm.Stats.fallbacks st);
          let rep = Telemetry.Report.snapshot () in
          check "serial latency recorded" 1
            (Telemetry.Histogram.count rep.Telemetry.Report.serial);
          check "speculative abort attributed" 1
            (Telemetry.Attribution.count rep.Telemetry.Report.attribution
               ~site:"test.serial" ~cause:"read_invalid")))

(* ---- gauges ---- *)

(* The window engine releases a window's reservation only through
   [release_all], so the [rr] gauge must count that call: every hand-off
   releases and reserves, and every operation's last window releases once
   more. One thread without scatter: no attempt aborts and every window
   boundary is fixed. *)
let test_rr_gauge_counts_release_all () =
  with_telemetry (fun () ->
      Tm.Thread.with_registered (fun thread ->
          Telemetry.Gauges.clear ();
          let l =
            Structs.Hoh_list.create
              ~mode:(Structs.Mode.Rr_kind (module Rr.V))
              ~window:4 ~scatter:false ()
          in
          let ops = ref 0 in
          let run op k =
            incr ops;
            ignore (op l ~thread k)
          in
          for k = 1 to 24 do
            run Structs.Hoh_list.insert k
          done;
          List.iter (run Structs.Hoh_list.lookup) [ 22; 13; 25 ];
          run Structs.Hoh_list.remove 18;
          let g =
            List.find
              (fun s -> s.Telemetry.Gauges.group = "rr")
              (Telemetry.Gauges.sample ())
          in
          let v k = int_of_float (List.assoc k g.Telemetry.Gauges.values) in
          checkb "the operations hand off" true (v "reserves" > !ops);
          check "releases = reserves + operations"
            (v "reserves" + !ops)
            (v "releases");
          Telemetry.Gauges.clear ()))

(* ---- report ---- *)

let test_report_roundtrip () =
  with_telemetry (fun () ->
      with_tm (fun () ->
          Telemetry.Gauges.clear ();
          Telemetry.Gauges.register ~group:"test" ~name:"g" (fun () ->
              [ ("x", 1.5); ("y", 0.) ]);
          let v = Tm.tvar 0 in
          for i = 1 to 100 do
            Tm.atomic ~site:"test.report" (fun txn -> Tm.write txn v i)
          done;
          let rep =
            Telemetry.Report.snapshot ~label:"unit"
              ~counters:(Tm.Stats.copy (Tm.Thread.stats ()))
              ()
          in
          checkb "attempts recorded" true
            (Telemetry.Histogram.count rep.Telemetry.Report.attempts >= 100);
          let js = Telemetry.Report.to_json rep in
          let s = Telemetry.Json.to_string js in
          (match Telemetry.Json.of_string s with
          | Error e -> Alcotest.fail ("report JSON does not parse: " ^ e)
          | Ok parsed ->
              checkb "report JSON round-trips" true
                (Telemetry.Json.equal parsed js);
              (match Telemetry.Report.validate parsed with
              | Ok () -> ()
              | Error e -> Alcotest.fail ("schema: " ^ e)));
          Telemetry.Gauges.clear ()))

(* A report's JSON with [edit] applied to its top-level fields. *)
let edited_report edit =
  match Telemetry.Report.to_json (Telemetry.Report.snapshot ()) with
  | Telemetry.Json.Obj fields -> Telemetry.Json.Obj (List.map edit fields)
  | _ -> Alcotest.fail "a report is not an object"

let test_report_rejects_wrong_tag () =
  let js =
    edited_report (function
      | "schema", _ -> ("schema", Telemetry.Json.String "hohtx-telemetry/0")
      | kv -> kv)
  in
  rejected "a report tagged hohtx-telemetry/0"
    "schema \"hohtx-telemetry/0\", wanted \"hohtx-telemetry/1\""
    (Telemetry.Report.validate js)

let test_report_rejects_hist_without_p99 () =
  let open Telemetry.Json in
  let drop_p99 = function
    | "op", Obj kvs -> ("op", Obj (List.remove_assoc "p99" kvs))
    | kv -> kv
  in
  let js =
    edited_report (function
      | "latency_ns", Obj hists -> ("latency_ns", Obj (List.map drop_p99 hists))
      | kv -> kv)
  in
  Alcotest.(check (result unit string))
    "the unedited report validates" (Ok ())
    (Telemetry.Report.validate (edited_report Fun.id));
  rejected "an op histogram without p99" "missing or ill-typed field \"p99\""
    (Telemetry.Report.validate js)

let test_disabled_is_silent () =
  (* With the switch off, runs must not accumulate telemetry state. *)
  Telemetry.set_enabled false;
  Telemetry.reset_slots ();
  with_tm (fun () ->
      let v = Tm.tvar 0 in
      for i = 1 to 50 do
        Tm.atomic ~site:"test.silent" (fun txn -> Tm.write txn v i)
      done;
      let rep = Telemetry.Report.snapshot () in
      check "no attempts recorded" 0
        (Telemetry.Histogram.count rep.Telemetry.Report.attempts);
      checkb "no attribution" true
        (Telemetry.Attribution.is_empty rep.Telemetry.Report.attribution))

let () =
  Alcotest.run "telemetry"
    [
      ( "histogram",
        [
          Alcotest.test_case "basics" `Quick test_hist_basics;
          Alcotest.test_case "bucket bounds" `Quick test_hist_buckets;
          Alcotest.test_case "merge" `Quick test_hist_merge;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_json_rejects;
          Alcotest.test_case "reader: missing field" `Quick
            test_reader_missing_field;
          Alcotest.test_case "reader: ill-typed field" `Quick
            test_reader_ill_typed_field;
          Alcotest.test_case "reader: wrong schema tag" `Quick
            test_reader_wrong_tag;
          Alcotest.test_case "reader: each names the first failure" `Quick
            test_reader_each_names_first_failure;
        ] );
      ( "counters",
        [ Alcotest.test_case "incr/accessors/json" `Quick test_counters ] );
      ( "attribution",
        [ Alcotest.test_case "uid cap" `Quick test_attribution_overflow ] );
      ( "abort causes",
        [
          Alcotest.test_case "forced read_invalid" `Quick
            test_forced_read_invalid;
          Alcotest.test_case "two-domain conflict" `Quick
            test_two_domain_conflict;
          Alcotest.test_case "forced lock_busy" `Quick test_forced_lock_busy;
          Alcotest.test_case "forced serial fallback" `Quick
            test_forced_serial_fallback;
        ] );
      ( "gauges",
        [
          Alcotest.test_case "rr: release_all counts as a release" `Quick
            test_rr_gauge_counts_release_all;
        ] );
      ( "report",
        [
          Alcotest.test_case "json round-trip + schema" `Quick
            test_report_roundtrip;
          Alcotest.test_case "disabled is silent" `Quick
            test_disabled_is_silent;
          Alcotest.test_case "validate rejects a wrong tag" `Quick
            test_report_rejects_wrong_tag;
          Alcotest.test_case "validate rejects a histogram without p99" `Quick
            test_report_rejects_hist_without_p99;
        ] );
    ]
