(* Bechamel micro-benchmarks: per-operation latency of the six revocable-
   reservation implementations (Reserve+Release cycles, Get, Revoke), the
   asymptotic story behind Figures 2-7: O(T) revokes for the strict
   implementations versus O(1)/O(A) for the relaxed ones. *)

open Bechamel
open Toolkit

(* Give Revoke real work: pre-register a handful of ghost threads (RR-FA
   traverses one node per registered thread). *)
let populate rr =
  (* Hold all ghost registrations simultaneously (a barrier) so thread-id
     recycling cannot hand two ghosts the same per-thread slot. *)
  let barrier = Atomic.make 7 in
  let doms =
    List.init 7 (fun i ->
        Domain.spawn (fun () ->
            Tm.Thread.with_registered (fun _ ->
                Tm.atomic ~site:"bench.populate" (fun txn ->
                    rr.Rr.register txn;
                    rr.Rr.reserve txn (1000 + i));
                Atomic.decr barrier;
                while Atomic.get barrier > 0 do
                  Domain.cpu_relax ()
                done)))
  in
  List.iter Domain.join doms

let rr_tests () =
  List.concat_map
    (fun (name, m) ->
      let rr = Rr.instantiate m ~hash:(fun r -> r) ~equal:Int.equal () in
      populate rr;
      Tm.atomic ~site:"bench.rr_tests" (fun txn -> rr.Rr.register txn);
      [
        Test.make
          ~name:(name ^ "/reserve+release")
          (Staged.stage (fun () ->
               Tm.atomic ~site:"bench.rr_tests" (fun txn ->
                   rr.Rr.reserve txn 1;
                   rr.Rr.release txn 1)));
        Test.make ~name:(name ^ "/get")
          (Staged.stage (fun () ->
               Tm.atomic ~site:"bench.rr_tests"
                 (fun txn -> ignore (rr.Rr.get txn 1))));
        Test.make ~name:(name ^ "/revoke")
          (Staged.stage (fun () ->
               Tm.atomic ~site:"bench.rr_tests"
                 (fun txn -> rr.Rr.revoke txn 2)));
      ])
    Rr.all

let tm_tests () =
  let v = Tm.tvar 0 in
  [
    Test.make ~name:"tm/read-only txn"
      (Staged.stage (fun () -> Tm.atomic ~site:"bench.tm_tests"
                                 (fun txn -> Tm.read txn v)));
    Test.make ~name:"tm/writer txn"
      (Staged.stage (fun () ->
           Tm.atomic ~site:"bench.tm_tests"
             (fun txn -> Tm.write txn v (Tm.read txn v + 1))));
  ]

let run ?(smoke = false) () =
  Tm.Thread.with_registered (fun _ ->
      let tests =
        Test.make_grouped ~name:"micro" ~fmt:"%s %s" (tm_tests () @ rr_tests ())
      in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
      in
      let instances = Instance.[ monotonic_clock ] in
      (* Smoke mode only needs to exercise every instrumented path once or
         twice for schema validation, not to produce stable estimates. *)
      let cfg =
        if smoke then
          Benchmark.cfg ~limit:50 ~quota:(Time.second 0.01) ~kde:None ()
        else
          Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000)
            ()
      in
      let raw = Benchmark.all cfg instances tests in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Printf.printf "\n== Micro-benchmarks: per-transaction latency (ns) ==\n";
      let rows =
        Hashtbl.fold
          (fun name ols acc ->
            let est =
              match Analyze.OLS.estimates ols with
              | Some [ e ] -> e
              | _ -> nan
            in
            (name, est) :: acc)
          results []
        |> List.sort compare
      in
      List.iter
        (fun (name, est) -> Printf.printf "%-32s %12.0f ns/txn\n" name est)
        rows;
      print_newline ())
