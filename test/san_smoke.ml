(* TxSan under DST: replay the pinned minimized schedules of the three
   DESIGN.md injected bugs with the sanitizer armed in [Raise] mode, and
   assert that TxSan names the violated rule at the faulting access —
   instead of (or before) the structural corruption the scenarios' own
   checks would eventually notice. The fixed code must replay the same
   adversarial schedules clean with the sanitizer still on. Wired to the
   [san-smoke] dune alias (and from there into [runtest] and CI). *)

let failures = ref 0

let expect what ok =
  if ok then Printf.printf "san-smoke: %-52s ok\n%!" what
  else begin
    incr failures;
    Printf.printf "san-smoke: %-52s FAILED\n%!" what
  end

(* Arm the sanitizer per attempt, after the scenario builder has cleared
   injection flags and thread ids, so every replay starts from virgin
   shadow state. *)
let san_case mk () =
  let case = mk () in
  San.reset ();
  San.set_enabled ~mode:San.Raise true;
  case

let violation out =
  match out.Dst.Sched.failure with
  | Some (Dst.Sched.Thread_raised { exn = San.Violation r; _ }) -> Some r
  | _ -> None

let caught name mk sched ~rule ?site () =
  let out = Dst.Explore.replay (san_case mk) sched in
  match violation out with
  | Some r ->
      let id = San.rule_id r.San.rule in
      expect
        (Printf.sprintf "%s names %s" name rule)
        (id = rule);
      (match site with
      | None -> ()
      | Some s ->
          expect
            (Printf.sprintf "%s faults at site %s" name s)
            (r.San.site = s))
  | None ->
      expect (Printf.sprintf "%s names %s" name rule) false;
      Option.iter
        (fun s -> expect (Printf.sprintf "%s faults at site %s" name s) false)
        site

let clean name mk sched =
  let out = Dst.Explore.replay (san_case mk) sched in
  expect name (not (Dst.Sched.failed out))

let () =
  let open Dst_scenarios in
  (* bug #1: the reader's snapshot straddles the in-flight serial writer.
     The faulting read is in the scenario's own transaction
     ("dst.straddle"), not a structure operation, so no site is pinned. *)
  caught "bug #1 straddle" (straddle ~bug:true) sched_bug1 ~rule:"stale-read"
    ();
  (* bug #2: the read-only reserving transaction commits against a
     snapshot in which B freed (and recycled) the node. Delivered at A's
     lookup commit — the access that publishes the doomed hazard. *)
  caught "bug #2 ro-publication" (ro_publication ~bug:true) sched_bug2
    ~rule:"use-after-free" ~site:"slist.lookup" ();
  (* bug #3: the recycled skiplist hint is dereferenced with only the
     deletion re-check — an unrevalidated carried pointer. *)
  caught "bug #3 stale-hint" (stale_hint ~bug:true) sched_bug3
    ~rule:"unchecked-carry" ~site:"skiplist.remove" ();
  (* the fixed protocol survives the same adversarial schedules with the
     sanitizer still armed: no violation, no structural failure *)
  clean "bug #1 fixed replays clean under TxSan" (straddle ~bug:false)
    sched_bug1;
  clean "bug #2 fixed replays clean under TxSan" (ro_publication ~bug:false)
    sched_bug2;
  clean "bug #3 fixed replays clean under TxSan" (stale_hint ~bug:false)
    sched_bug3;
  San.set_enabled false;
  San.reset ();
  Dst.Inject.clear ();
  if !failures > 0 then exit 1
