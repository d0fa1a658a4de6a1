(* The soak harness: churn-phase grammar round trip, determinism of the
   generated op scripts (the property that makes @soak-smoke replays
   exact), a miniature churn run with all oracles on, and unit runs of
   the DST adversaries (stalled reader, kill mid-commit, kill mid-2PC). *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

module Spec = Harness.Factories.Spec

let rr_v : Structs.Mode.kind = Structs.Mode.Rr_kind (module Rr.V)

(* ---- phase grammar ---- *)

let test_phase_grammar_round_trip () =
  let script = "grow:4x500,storm:2x800@0.99,shrink:1x10,mix:2x400@50" in
  match Soak.parse_phases script with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok ps ->
      Alcotest.(check string) "print inverts parse" script (Soak.print_phases ps);
      check "four phases" 4 (List.length ps)

let test_phase_grammar_rejects () =
  let bad s =
    checkb (Printf.sprintf "%S rejected" s) true
      (Result.is_error (Soak.parse_phases s))
  in
  bad "";
  bad "bogus:2x2";
  bad "grow:0x5";
  bad "grow:2x5@3";
  bad "storm:2x5@nope";
  bad "mix:2x5@140";
  bad "grow:5"

(* ---- determinism of the op generator ---- *)

let gen_params =
  QCheck.Gen.(
    map
      (fun ((seed, key_bits), ((phase_index, thread), ((tag, arg), (threads, ops)))) ->
        let shape =
          match tag with
          | 0 -> Soak.Grow
          | 1 -> Soak.Shrink
          | 2 -> Soak.Storm (float_of_int arg /. 100.)
          | _ -> Soak.Mix (min arg 100)
        in
        (seed, key_bits, phase_index, thread, { Soak.shape; threads; ops }))
      (pair
         (pair (int_bound 1_000_000) (int_range 4 8))
         (pair
            (pair (int_bound 7) (int_bound 7))
            (pair (pair (int_bound 3) (int_bound 120)) (pair (int_range 1 4) (int_range 1 64))))))

let qcheck_gen_ops_deterministic =
  QCheck.Test.make ~name:"gen_ops is a pure function of its inputs" ~count:200
    (QCheck.make gen_params)
    (fun (seed, key_bits, phase_index, thread, phase) ->
      let a = Soak.gen_ops ~seed ~key_bits ~phase_index ~thread phase in
      let b = Soak.gen_ops ~seed ~key_bits ~phase_index ~thread phase in
      a = b && Array.length a = phase.Soak.ops)

let qcheck_phase_print_parse =
  QCheck.Test.make ~name:"phase scripts round-trip" ~count:200
    (QCheck.make
       (QCheck.Gen.list_size (QCheck.Gen.int_range 1 5)
          (QCheck.Gen.map
             (fun (seed, key_bits, phase_index, thread, phase) ->
               ignore (seed, key_bits, phase_index, thread);
               phase)
             gen_params)))
    (fun ps -> Soak.parse_phases (Soak.print_phases ps) = Ok ps)

(* ---- miniature churn run, all oracles on ---- *)

let test_churn_mini () =
  let phases =
    match Soak.parse_phases "grow:2x80,shrink:2x80" with
    | Ok ps -> ps
    | Error e -> failwith e
  in
  let r =
    Soak.run_churn ~seed:11 ~key_bits:6 ~phases (Spec.v ~window:4 Spec.Slist rr_v)
  in
  (match Soak.churn_failed r with
  | None -> ()
  | Some m -> Alcotest.failf "churn: %s" m);
  check "one result per phase" 2 (List.length r.Soak.c_phases);
  checkb "serializability was checked" true (r.Soak.c_serial = Some (Ok ()));
  checkb "repro names the soak command" true
    (String.length r.Soak.c_repro > 0
    && String.sub r.Soak.c_repro 0 14 = "main.exe soak ")

(* ---- DST adversaries ---- *)

let test_stalled_reader_deterministic () =
  let run () = Soak.stalled_reader ~rounds:12 ~seed:3 (Spec.v Spec.Slist rr_v) in
  let a = run () and b = run () in
  (match a.Soak.s_error with
  | None -> ()
  | Some e -> Alcotest.failf "stalled reader: %s" e);
  checkb "same seed, same trajectory" true (a.Soak.s_samples = b.Soak.s_samples);
  check "one sample per churn round" 12 (Array.length a.Soak.s_samples)

let test_crash_mid_commit () =
  let r = Soak.crash_mid_commit ~seed:5 (Spec.v Spec.Slist rr_v) in
  (match r.Soak.k_error with
  | None -> ()
  | Some e -> Alcotest.failf "crash-commit: %s" e);
  checkb "survivor history serializable" true r.Soak.k_serial_ok;
  check "no slots leaked" 0 r.Soak.k_leaked

let test_crash_mid_2pc () =
  let r =
    Soak.crash_mid_2pc ~seed:5
      (Spec.v ~window:4 ~shards:2 ~fuse:true Spec.Slist rr_v)
  in
  (match r.Soak.k_error with
  | None -> ()
  | Some e -> Alcotest.failf "crash-2pc: %s" e);
  check "one intent resolved" 1 r.Soak.k_recovered;
  checkb "contents all-or-nothing" true r.Soak.k_serial_ok;
  check "no slots leaked" 0 r.Soak.k_leaked

let () =
  Alcotest.run "soak"
    [
      ( "grammar",
        [
          Alcotest.test_case "round trip" `Quick test_phase_grammar_round_trip;
          Alcotest.test_case "rejects malformed" `Quick
            test_phase_grammar_rejects;
          QCheck_alcotest.to_alcotest qcheck_phase_print_parse;
        ] );
      ( "determinism",
        [ QCheck_alcotest.to_alcotest qcheck_gen_ops_deterministic ] );
      ( "churn", [ Alcotest.test_case "mini run" `Quick test_churn_mini ] );
      ( "adversaries",
        [
          Alcotest.test_case "stalled reader replays" `Quick
            test_stalled_reader_deterministic;
          Alcotest.test_case "kill mid-commit" `Quick test_crash_mid_commit;
          Alcotest.test_case "kill mid-2PC" `Quick test_crash_mid_2pc;
        ] );
    ]
