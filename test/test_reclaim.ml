(* Tests for the deferred-reclamation baselines: hazard pointers, epochs,
   transactional reference counts. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

type obj = { id : int; mutable freed : bool }

let make_hazard ?slots_per_thread ?scan_threshold () =
  let freed = ref [] in
  let h =
    Reclaim.Hazard.create ?slots_per_thread ?scan_threshold
      ~free:(fun ~thread:_ o ->
        o.freed <- true;
        freed := o :: !freed)
      ~node_id:(fun o -> o.id)
      ()
  in
  (h, freed)

let obj id = { id; freed = false }

(* ---- hazard pointers ---- *)

let test_hp_protect_blocks_free () =
  let h, _ = make_hazard ~scan_threshold:1 () in
  let a = obj 1 in
  Reclaim.Hazard.protect h ~thread:0 ~slot:0 a;
  Reclaim.Hazard.retire h ~thread:1 a;
  Reclaim.Hazard.scan h ~thread:1;
  checkb "protected node survives scans" false a.freed;
  Reclaim.Hazard.clear h ~thread:0 ~slot:0;
  Reclaim.Hazard.scan h ~thread:1;
  checkb "freed once unprotected" true a.freed

let test_hp_unprotected_freed_at_threshold () =
  let h, freed = make_hazard ~scan_threshold:4 () in
  for i = 1 to 3 do
    Reclaim.Hazard.retire h ~thread:0 (obj i)
  done;
  check "below threshold: nothing freed" 0 (List.length !freed);
  Reclaim.Hazard.retire h ~thread:0 (obj 4);
  check "threshold triggers scan" 4 (List.length !freed)

let test_hp_per_thread_lists () =
  let h, freed = make_hazard ~scan_threshold:100 () in
  Reclaim.Hazard.retire h ~thread:0 (obj 1);
  Reclaim.Hazard.retire h ~thread:1 (obj 2);
  Reclaim.Hazard.scan h ~thread:0;
  check "scan only drains caller's list" 1 (List.length !freed);
  Reclaim.Hazard.drain h;
  check "drain empties all" 2 (List.length !freed)

let test_hp_slot_independence () =
  let h, _ = make_hazard ~slots_per_thread:3 ~scan_threshold:1 () in
  let a = obj 1 and b = obj 2 in
  Reclaim.Hazard.protect h ~thread:0 ~slot:0 a;
  Reclaim.Hazard.protect h ~thread:0 ~slot:1 b;
  Reclaim.Hazard.clear h ~thread:0 ~slot:0;
  Reclaim.Hazard.retire h ~thread:1 a;
  Reclaim.Hazard.retire h ~thread:1 b;
  Reclaim.Hazard.scan h ~thread:1;
  checkb "a freed (slot cleared)" true a.freed;
  checkb "b survives (slot 1 held)" false b.freed;
  Reclaim.Hazard.clear_all h ~thread:0;
  Reclaim.Hazard.drain h;
  checkb "b freed after clear_all" true b.freed

let test_hp_metrics () =
  let h, _ = make_hazard ~scan_threshold:2 () in
  let a = obj 1 in
  Reclaim.Hazard.protect h ~thread:0 ~slot:0 a;
  Reclaim.Hazard.retire h ~thread:1 a;
  Reclaim.Hazard.retire h ~thread:1 (obj 2);
  let m = Reclaim.Hazard.metrics h in
  check "retired" 2 m.Reclaim.Hazard.retired_total;
  check "freed" 1 m.Reclaim.Hazard.freed_total;
  check "backlog" 1 m.Reclaim.Hazard.backlog;
  checkb "max backlog >= 2" true (m.Reclaim.Hazard.max_backlog >= 2);
  checkb "delay recorded" true (m.Reclaim.Hazard.delay_max_s >= 0.)

let test_hp_bad_slot () =
  let h, _ = make_hazard ~slots_per_thread:2 () in
  Alcotest.check_raises "slot out of range"
    (Invalid_argument "Hazard: slot") (fun () ->
      Reclaim.Hazard.protect h ~thread:0 ~slot:2 (obj 1))

(* ---- epochs ---- *)

let make_epoch ?advance_threshold () =
  let freed = ref [] in
  let e =
    Reclaim.Epoch.create ?advance_threshold
      ~free:(fun ~thread:_ o ->
        o.freed <- true;
        freed := o :: !freed)
      ()
  in
  (e, freed)

let test_epoch_basic_reclaim () =
  let e, freed = make_epoch ~advance_threshold:1 () in
  let a = obj 1 in
  Reclaim.Epoch.retire e ~thread:0 a;
  (* no active threads: epoch advances freely; after a few retires the bag
     from two epochs ago is freed *)
  Reclaim.Epoch.retire e ~thread:0 (obj 2);
  Reclaim.Epoch.retire e ~thread:0 (obj 3);
  Reclaim.Epoch.drain e;
  checkb "eventually freed" true a.freed;
  check "all freed after drain" 3 (List.length !freed)

let test_epoch_blocked_by_active_thread () =
  let e, _ = make_epoch ~advance_threshold:1 () in
  let start = Reclaim.Epoch.current_epoch e in
  Reclaim.Epoch.enter e ~thread:1;
  (* thread 1 is active in [start]; retiring from thread 0 cannot advance *)
  let a = obj 1 in
  Reclaim.Epoch.retire e ~thread:0 a;
  for i = 2 to 10 do
    Reclaim.Epoch.retire e ~thread:0 (obj i)
  done;
  (* The epoch may advance once (all active threads are at [start]) but can
     never advance twice past a stalled reader, so nothing retired at or
     after [start] becomes freeable. *)
  checkb "epoch advances at most once past a stalled reader" true
    (Reclaim.Epoch.current_epoch e <= start + 1);
  checkb "nothing freed while blocked" false a.freed;
  Reclaim.Epoch.leave e ~thread:1;
  Reclaim.Epoch.drain e;
  checkb "freed after quiescence" true a.freed

let test_epoch_metrics () =
  let e, _ = make_epoch ~advance_threshold:1 () in
  for i = 1 to 5 do
    Reclaim.Epoch.retire e ~thread:0 (obj i)
  done;
  let m = Reclaim.Epoch.metrics e in
  check "retired" 5 m.Reclaim.Epoch.retired_total;
  checkb "some advances" true (m.Reclaim.Epoch.advances > 0);
  Reclaim.Epoch.drain e;
  let m = Reclaim.Epoch.metrics e in
  check "drained backlog" 0 m.Reclaim.Epoch.backlog;
  check "all freed" 5 m.Reclaim.Epoch.freed_total

(* ---- transactional refcounts ---- *)

let test_rc () =
  Tm.Thread.with_registered (fun _ ->
      let rc = Reclaim.Rc.make 0 in
      Tm.atomic ~site:"test.rc" (fun txn ->
          Reclaim.Rc.incr txn rc;
          Reclaim.Rc.incr txn rc);
      check "two increments" 2 (Reclaim.Rc.peek rc);
      let n = Tm.atomic ~site:"test.rc" (fun txn -> Reclaim.Rc.decr txn rc) in
      check "decr returns new count" 1 n;
      check "peek agrees" 1 (Reclaim.Rc.peek rc))

let test_rc_rollback () =
  Tm.Thread.with_registered (fun _ ->
      let rc = Reclaim.Rc.make 1 in
      (try
         Tm.atomic ~site:"test.rc_rollback" (fun txn ->
             Reclaim.Rc.incr txn rc;
             failwith "abort")
       with Failure _ -> ());
      check "increment rolled back" 1 (Reclaim.Rc.peek rc))

let test_rc_negative () =
  Tm.Thread.with_registered (fun _ ->
      let rc = Reclaim.Rc.make 0 in
      Alcotest.check_raises "negative refcount"
        (Invalid_argument "Rc.decr: negative refcount") (fun () ->
          Tm.atomic ~site:"test.rc_negative"
            (fun txn -> ignore (Reclaim.Rc.decr txn rc))))

(* concurrent hazard stress: retired nodes are freed exactly once and only
   when unprotected *)
let test_hp_concurrent () =
  Tm.Thread.with_registered (fun _ ->
      let free_count = Atomic.make 0 in
      let h =
        Reclaim.Hazard.create ~slots_per_thread:1 ~scan_threshold:8
          ~free:(fun ~thread:_ o ->
            if o.freed then failwith "double free by hazard domain";
            o.freed <- true;
            Atomic.incr free_count)
          ~node_id:(fun o -> o.id)
          ()
      in
      let next_id = Atomic.make 0 in
      let workers =
        List.init 4 (fun _ ->
            Domain.spawn (fun () ->
                Tm.Thread.with_registered (fun tid ->
                    for _ = 1 to 2000 do
                      let o = obj (Atomic.fetch_and_add next_id 1) in
                      Reclaim.Hazard.protect h ~thread:tid ~slot:0 o;
                      Reclaim.Hazard.clear h ~thread:tid ~slot:0;
                      Reclaim.Hazard.retire h ~thread:tid o
                    done;
                    Reclaim.Hazard.scan h ~thread:tid)))
      in
      List.iter Domain.join workers;
      Reclaim.Hazard.drain h;
      let m = Reclaim.Hazard.metrics h in
      check "everything retired" 8000 m.Reclaim.Hazard.retired_total;
      check "everything freed" 8000 (Atomic.get free_count);
      check "no backlog" 0 m.Reclaim.Hazard.backlog)

(* ---- stalled-reader backlog contrast (regression pin) ----

   The soak adversary parks a reader mid-traversal and measures the
   reclamation backlog per churn round. This pins the paper's headline
   asymmetry as a regression test: EBR's deferred frees grow monotonically
   once the parked reader wedges the epoch, while RR's precise frees keep
   the backlog at the baseline no matter how long the reader stalls. *)

let test_stalled_reader_backlog_contrast () =
  let rounds = 16 in
  let run kind =
    Soak.stalled_reader ~rounds ~seed:7
      (Harness.Factories.Spec.v Harness.Factories.Spec.Slist kind)
  in
  let rr = run (Structs.Mode.Rr_kind (module Rr.V)) in
  let ebr = run Structs.Mode.Ebr in
  (match rr.Soak.s_error with
  | None -> ()
  | Some e -> Alcotest.failf "RR scenario: %s" e);
  (match ebr.Soak.s_error with
  | None -> ()
  | Some e -> Alcotest.failf "EBR scenario: %s" e);
  let samples = ebr.Soak.s_samples in
  let n = Array.length samples in
  checkb "EBR backlog grows past threshold" true
    (ebr.Soak.s_hwm >= rounds / 2);
  checkb "EBR growth never reverses while the reader is parked" true
    (n > 0 && samples.(n - 1) = ebr.Soak.s_hwm);
  (* once the trajectory clears the noise floor the growth is monotone *)
  let wedged = ref false and monotone = ref true in
  Array.iteri
    (fun i v ->
      if v > 2 then wedged := true;
      if !wedged && i > 0 && v < samples.(i - 1) then monotone := false)
    samples;
  checkb "EBR backlog monotone once wedged" true !monotone;
  checkb "RR backlog stays bounded" true (rr.Soak.s_hwm <= 2);
  checkb "EBR high-water strictly above RR" true
    (ebr.Soak.s_hwm > rr.Soak.s_hwm)

let () =
  Alcotest.run "reclaim"
    [
      ( "hazard",
        [
          Alcotest.test_case "protect blocks free" `Quick
            test_hp_protect_blocks_free;
          Alcotest.test_case "threshold scan" `Quick
            test_hp_unprotected_freed_at_threshold;
          Alcotest.test_case "per-thread retire lists" `Quick
            test_hp_per_thread_lists;
          Alcotest.test_case "slot independence" `Quick
            test_hp_slot_independence;
          Alcotest.test_case "metrics" `Quick test_hp_metrics;
          Alcotest.test_case "bad slot" `Quick test_hp_bad_slot;
          Alcotest.test_case "concurrent" `Quick test_hp_concurrent;
        ] );
      ( "epoch",
        [
          Alcotest.test_case "basic reclaim" `Quick test_epoch_basic_reclaim;
          Alcotest.test_case "blocked by reader" `Quick
            test_epoch_blocked_by_active_thread;
          Alcotest.test_case "metrics" `Quick test_epoch_metrics;
        ] );
      ( "refcount",
        [
          Alcotest.test_case "incr/decr" `Quick test_rc;
          Alcotest.test_case "rollback" `Quick test_rc_rollback;
          Alcotest.test_case "negative" `Quick test_rc_negative;
        ] );
      (* last: the scenario resets the TM thread-id space *)
      ( "soak backlog",
        [
          Alcotest.test_case "stalled reader: EBR grows, RR bounded" `Quick
            test_stalled_reader_backlog_contrast;
        ] );
    ]
