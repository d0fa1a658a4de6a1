(* The three DESIGN.md concurrency bugs as deterministic-schedule-testing
   scenarios. Each builder re-arms the corresponding [Dst.Inject] flag (or
   clears it, for the control/fixed variants) and constructs fresh state,
   so every attempt of a search starts identically; the pinned schedules
   are the minimized traces the seeded searches produced, committed as
   regression inputs.

   Shared between the alcotest suite (test_dst.ml) and the capped
   [@dst-smoke] runner (dst_smoke.ml). *)

open Structs

(* ---- bug #1: serial-straddle torn snapshot ---- *)

(* A writer forced straight into the serial-irrevocable fallback
   ([max_attempts:0]) updates x then y; a reader snapshots both in one
   transaction. If [sample_rv] does not re-check the serial token after
   sampling the clock (the injected bug), the reader can sample the
   already-bumped serial [wv], accept the writer's first direct write as
   old enough, and commit the torn pair (1,0). *)
let straddle ~bug () =
  Dst.Inject.clear ();
  Dst.Inject.set_bug Dst.Inject.Snapshot_straddle bug;
  Tm.Thread.reset_ids_for_testing ();
  let x = Tm.tvar 0 and y = Tm.tvar 0 in
  let observed = ref (0, 0) in
  let writer () =
    Tm.Thread.with_registered (fun _ ->
        Tm.atomic ~site:"dst.straddle" ~max_attempts:0 (fun txn ->
            Tm.write txn x 1;
            Tm.write txn y 1))
  in
  let reader () =
    Tm.Thread.with_registered (fun _ ->
        observed := Tm.atomic ~site:"dst.straddle"
                      (fun txn -> (Tm.read txn x, Tm.read txn y)))
  in
  {
    Dst.Explore.init = None;
    threads = [ writer; reader ];
    check =
      (fun () ->
        match !observed with
        | (0, 0) | (1, 1) -> ()
        | (a, b) -> failwith (Printf.sprintf "torn snapshot (%d,%d)" a b));
  }

(* ---- bug #2: read-only hazard publication race ---- *)

(* TMHP list, window 1, immediate retire-scan. Thread A's hand-off
   transaction is paused between deciding to reserve a node and storing
   the hazard slot; thread B removes that node (retire + scan frees it:
   nothing protects it yet) and recycles it as the tail key 5. Without
   forced commit validation on the otherwise read-only reserving
   transaction (the injected bug), A's hand-off commits against a stale
   snapshot and A resumes its lookup of 4 from what is now the key-5
   tail -- returning false for a key that was never removed. *)
let ro_publication ~bug () =
  Dst.Inject.clear ();
  Dst.Inject.set_bug Dst.Inject.Ro_publication bug;
  Tm.Thread.reset_ids_for_testing ();
  let l =
    Hoh_list.create ~mode:Mode.Tmhp ~window:1 ~scatter:false ~hp_threshold:1 ()
  in
  let looked = ref true and removed = ref false and inserted = ref false in
  let init () =
    Tm.Thread.with_registered (fun thread ->
        List.iter (fun k -> ignore (Hoh_list.insert l ~thread k)) [ 1; 2; 3; 4 ])
  in
  let a () =
    Tm.Thread.with_registered (fun thread ->
        looked := Hoh_list.lookup l ~thread 4;
        Hoh_list.finalize_thread l ~thread)
  in
  let b () =
    Tm.Thread.with_registered (fun thread ->
        removed := Hoh_list.remove l ~thread 2;
        inserted := Hoh_list.insert l ~thread 5;
        Hoh_list.finalize_thread l ~thread)
  in
  {
    Dst.Explore.init = Some init;
    threads = [ a; b ];
    check =
      (fun () ->
        if not !removed then failwith "remove 2 failed";
        if not !inserted then failwith "insert 5 failed";
        if not !looked then failwith "lookup 4 = false (4 was never removed)";
        (match Hoh_list.check l with Ok () -> () | Error e -> failwith e);
        let got = Hoh_list.to_list l in
        if got <> [ 1; 3; 4; 5 ] then
          failwith ("contents " ^ String.concat ";" (List.map string_of_int got)));
  }

(* ---- bug #3: stale skiplist hint accepted after recycling ---- *)

(* Precise RR-FA skiplist, window 1, seed 305 chosen so the prefill
   towers are 10:1, 20:2, 30:1, 40:2 and the recycled node re-enters at
   height 1 (heights are a hash of the key, so any thread builds them). Thread A removes 40 and pauses at the hand-off holding a
   reservation on 30, with preds[1] still pointing at node 20. Thread B
   removes 20 (freed immediately: precise reclamation) and inserts 25,
   which recycles the node under a new key and a shorter tower. A
   resumes; checking only the deletion mark on the hint (the injected bug)
   accepts the recycled node as a level-1 predecessor and the level-1
   unlink walks off the level-1 list entirely. *)
let stale_hint ~bug () =
  Dst.Inject.clear ();
  Dst.Inject.set_bug Dst.Inject.Stale_hint bug;
  Tm.Thread.reset_ids_for_testing ();
  let sl =
    Hoh_skiplist.create
      ~mode:(Mode.Rr_kind (module Rr.Fa))
      ~window:1 ~scatter:false ~seed:305 ()
  in
  let r40 = ref false and r20 = ref false and i25 = ref false in
  let init () =
    Tm.Thread.with_registered (fun thread ->
        List.iter
          (fun k -> ignore (Hoh_skiplist.insert sl ~thread k))
          [ 10; 20; 30; 40 ])
  in
  let a () =
    Tm.Thread.with_registered (fun thread ->
        r40 := Hoh_skiplist.remove sl ~thread 40)
  in
  let b () =
    Tm.Thread.with_registered (fun thread ->
        r20 := Hoh_skiplist.remove sl ~thread 20;
        i25 := Hoh_skiplist.insert sl ~thread 25)
  in
  {
    Dst.Explore.init = Some init;
    threads = [ a; b ];
    check =
      (fun () ->
        if not (!r40 && !r20 && !i25) then failwith "an operation failed";
        (match Hoh_skiplist.check sl with Ok () -> () | Error e -> failwith e);
        let got = Hoh_skiplist.to_list sl in
          if got <> [ 10; 25; 30 ] then
            failwith
              ("contents " ^ String.concat ";" (List.map string_of_int got)));
  }

(* ---- a recycled skiplist hint between its two validating reads ---- *)

(* The bug #3 set-up, run at the moment the fixed code is exposed. A plain
   key and level are loaded between two reads of the hint's top link: the
   deletion check before and [Snode.spans]'s read after. A carried hint
   was reached through no link in the current window's read set, so only
   that pair stops a recycling commit from pairing the old key and level
   with the new links. The pinned schedule ([sched_recycled_hint]) parks
   A after its deletion check on node 20 at level 1 and lets B remove 20
   and insert 25, which recycles the node at height 1; A's re-read then
   fails its timestamp extension, and the retried window refuses the
   hint and descends again. [a_ext_fails] counts A's failed
   extensions. *)
let recycled_hint ~a_ext_fails () =
  Dst.Inject.clear ();
  Tm.Thread.reset_ids_for_testing ();
  let sl =
    Hoh_skiplist.create
      ~mode:(Mode.Rr_kind (module Rr.Fa))
      ~window:1 ~scatter:false ~seed:305 ()
  in
  let r40 = ref false and r20 = ref false and i25 = ref false in
  let init () =
    Tm.Thread.with_registered (fun thread ->
        List.iter
          (fun k -> ignore (Hoh_skiplist.insert sl ~thread k))
          [ 10; 20; 30; 40 ])
  in
  let a () =
    Tm.Thread.with_registered (fun thread ->
        let stats = Tm.Thread.stats () in
        let before = Tm.Stats.ext_fails stats in
        r40 := Hoh_skiplist.remove sl ~thread 40;
        a_ext_fails := Tm.Stats.ext_fails stats - before)
  in
  let b () =
    Tm.Thread.with_registered (fun thread ->
        r20 := Hoh_skiplist.remove sl ~thread 20;
        i25 := Hoh_skiplist.insert sl ~thread 25)
  in
  {
    Dst.Explore.init = Some init;
    threads = [ a; b ];
    check =
      (fun () ->
        if not (!r40 && !r20 && !i25) then failwith "an operation failed";
        (match Hoh_skiplist.check sl with Ok () -> () | Error e -> failwith e);
        let got = Hoh_skiplist.to_list sl in
        if got <> [ 10; 25; 30 ] then
          failwith
            ("contents " ^ String.concat ";" (List.map string_of_int got)));
  }

(* ---- timestamp extension under a concurrent commit ---- *)

(* No injected bug here: these scenarios pin the extension protocol's
   behavior. A reader snapshots x then y while a writer commits between
   the two reads. In [extend_success] the writer touches only y, so the
   reader's stale read of y revalidates its intact read set {x}, extends
   rv, and completes in a single attempt; in [extend_fail] the writer
   updates both, the revalidation finds x changed, and the reader must
   abort and retry exactly as it did before extensions existed.

   [expect] selects the check:
   - [`Opaque]   opacity only — must hold on {e every} schedule; the
                 searches over these are the oracle runs proving the
                 extension never lets a torn pair commit;
   - [`Probe]    inverted: {e fail} when the extension fired — used once
                 to discover the pinned schedules below (the minimized
                 "failure" is precisely a schedule that drives the
                 protocol through the extension path);
   - [`Strong]   the full deterministic claim, for pinned replays. *)
let extend_scenario ~writes_x ~expect () =
  Dst.Inject.clear ();
  Tm.Thread.reset_ids_for_testing ();
  let x = Tm.tvar 0 and y = Tm.tvar 0 in
  let observed = ref (-1, -1) in
  let attempts = ref 0 and extensions = ref 0 and ext_fails = ref 0 in
  let writer () =
    Tm.Thread.with_registered (fun _ ->
        Tm.atomic ~site:"dst.extend_scenario" (fun txn ->
            if writes_x then Tm.write txn x 1;
            Tm.write txn y 1))
  in
  let reader () =
    Tm.Thread.with_registered (fun _ ->
        let st = Tm.Thread.stats () in
        Tm.Stats.reset st;
        let r =
          Tm.atomic_stamped ~site:"dst.extend_scenario" (fun txn ->
              let vx = Tm.read txn x in
              let vy = Tm.read txn y in
              (vx, vy))
        in
        observed := r.Tm.value;
        attempts := r.Tm.attempts;
        extensions := Tm.Stats.extensions st;
        ext_fails := Tm.Stats.ext_fails st)
  in
  let opaque () =
    match (writes_x, !observed) with
    | _, ((0, 0) | (1, 1)) | false, (0, 1) -> ()
    | _, (a, b) -> failwith (Printf.sprintf "torn snapshot (%d,%d)" a b)
  in
  {
    Dst.Explore.init = None;
    threads = [ writer; reader ];
    check =
      (fun () ->
        opaque ();
        match expect with
        | `Opaque -> ()
        | `Probe ->
            if (if writes_x then !ext_fails else !extensions) > 0 then
              failwith "extension path taken"
        | `Strong ->
            if writes_x then begin
              if !observed <> (1, 1) then
                failwith "writer did not commit mid-snapshot";
              if !attempts <> 2 then
                failwith (Printf.sprintf "%d attempts, wanted 2" !attempts);
              if !ext_fails < 1 then failwith "no failed extension recorded"
            end
            else begin
              if !observed <> (0, 1) then
                failwith "writer did not commit mid-snapshot";
              if !attempts <> 1 then
                failwith
                  (Printf.sprintf "%d attempts (aborted instead of extending)"
                     !attempts);
              if !extensions < 1 then failwith "no extension recorded"
            end);
  }

let extend_success ~expect = extend_scenario ~writes_x:false ~expect
let extend_fail ~expect = extend_scenario ~writes_x:true ~expect

(* ---- the read-phase hint under a paused committer ---- *)

(* A read-phase reader that hits a locked word must wait the (bounded)
   writeback section out rather than abort: on {e every} schedule —
   including those pausing the writer between its lock acquisition and
   writeback — the reader completes with zero [Lock_busy] aborts and
   never escalates to the serial fallback. *)
let read_phase_wait () =
  Dst.Inject.clear ();
  Tm.Thread.reset_ids_for_testing ();
  let x = Tm.tvar 0 in
  let seen = ref (-1) and lock_aborts = ref 0 and serial = ref true in
  let writer () =
    Tm.Thread.with_registered (fun _ ->
        Tm.atomic ~site:"dst.read_phase_wait" (fun txn -> Tm.write txn x 1))
  in
  let reader () =
    Tm.Thread.with_registered (fun _ ->
        let st = Tm.Thread.stats () in
        Tm.Stats.reset st;
        let r =
          Tm.atomic_stamped ~site:"dst.read_phase_wait"
            ~max_attempts:1 ~read_phase:true (fun txn ->
              Tm.read txn x)
        in
        seen := r.Tm.value;
        serial := r.Tm.serial;
        lock_aborts := Tm.Stats.aborts_lock st)
  in
  {
    Dst.Explore.init = None;
    threads = [ writer; reader ];
    check =
      (fun () ->
        if !seen <> 0 && !seen <> 1 then
          failwith (Printf.sprintf "read %d" !seen);
        if !lock_aborts > 0 then
          failwith
            (Printf.sprintf "%d Lock_busy aborts under read_phase"
               !lock_aborts);
        if !serial then failwith "read-phase transaction went serial");
  }

(* ---- window fusion: multiplicative shrink on a contended commit ---- *)

(* Fusion-4 list, window 1: thread A's lookups fuse up to 4 one-node
   windows per transaction, doubling the per-thread fuse budget on each
   clean commit; thread B's scripted updates conflict with a fused
   traversal, and the contended commit must halve the budget. Both logs
   feed the stamp-order serializability oracle, so the fused windows also
   prove they linearize correctly under fire.

   [expect]: [`Safe] (every schedule: structure invariants + the
   serializability oracle), [`Probe] (inverted — fail once the final fuse
   budget shrank below the ceiling; the discovery run), [`Strong] (pinned:
   the shrink deterministically happened). *)
let fusion_shrink ~expect () =
  Dst.Inject.clear ();
  Tm.Thread.reset_ids_for_testing ();
  let l =
    Hoh_list.create
      ~mode:(Mode.Rr_kind (module Rr.V))
      ~window:1 ~scatter:false ~fusion:4 ()
  in
  let initial = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let init () =
    Tm.Thread.with_registered (fun thread ->
        List.iter (fun k -> ignore (Hoh_list.insert l ~thread k)) initial)
  in
  let logs = Array.make 2 [] in
  let a_thread = ref 0 in
  let entry op key (result, stamp) =
    { Harness.Serial_check.op; key; result; earliest = stamp; stamp }
  in
  let scripted i script () =
    Tm.Thread.with_registered (fun thread ->
        if i = 0 then a_thread := thread;
        logs.(i) <-
          List.map
            (fun (op, key) ->
              match op with
              | `I ->
                  entry Harness.Workload.Insert key
                    (Hoh_list.insert_s l ~thread key)
              | `R ->
                  let r, _, s = Hoh_list.remove_s l ~thread key in
                  entry Harness.Workload.Remove key (r, s)
              | `L ->
                  entry Harness.Workload.Lookup key
                    (Hoh_list.lookup_s l ~thread key))
            script)
  in
  let a = scripted 0 [ (`L, 8); (`L, 8) ] in
  let b = scripted 1 [ (`R, 6); (`I, 9) ] in
  {
    Dst.Explore.init = Some init;
    threads = [ a; b ];
    check =
      (fun () ->
        (match Hoh_list.check l with Ok () -> () | Error e -> failwith e);
        (match
           Harness.Serial_check.check ~initial
             [ Array.of_list logs.(0); Array.of_list logs.(1) ]
         with
        | Ok () -> ()
        | Error e -> failwith e);
        let budget = Hoh_list.fuse_budget l ~thread:!a_thread in
        match expect with
        | `Safe -> ()
        | `Probe -> if budget < 4 then failwith "fuse budget shrank"
        | `Strong ->
            if budget >= 4 then
              failwith
                (Printf.sprintf "fuse budget %d did not shrink on abort"
                   budget));
  }

(* ---- pinned minimized schedules and documented search budgets ---- *)

(* bug #1, random search (budget 500, <= 2000 runs; found at seed 6 in 19
   runs): reader pauses at the clock sample, writer runs its serial
   commit past the first direct write, reader resumes. *)
let sched_bug1 = [| 1; 0; 0; 1; 1 |]

(* bug #2, PCT depth 2 (budget 300, <= 6000 runs; found at seed 18 in 87
   runs): A walks to its second hand-off and pauses at the hazard
   publication; B runs remove 2 + insert 5 to completion. *)
let sched_bug2 = Array.concat [ Array.make 10 0; Array.make 50 1 ]

(* bug #3, PCT depth 2 (budget 400, <= 6000 runs; found at seed 50 in 278
   runs): A walks to the hand-off reserving node 30; B runs remove 20 +
   insert 25 to completion; A's resumed level-1 unlink trips. *)
let sched_bug3 = Array.concat [ Array.make 53 0; Array.make 140 1 ]

(* recycled hint, found by stepping the park point of A through the run:
   A runs until it has loaded node 20's key and level in [Snode.spans]
   and is about to re-read the top link; B then removes 20 and inserts
   25 to completion. *)
let sched_recycled_hint = Array.concat [ Array.make 69 0; Array.make 142 1 ]

(* extension success, random probe search over [extend_success ~expect:`Probe]
   (budget 300, <= 4000 runs; found at seed 24 in 34 runs): the reader
   runs through its clock sample and the read of x, the exhausted
   schedule hands the rest of the run to the writer (lowest-numbered
   runnable thread), which commits y; the reader's resumed read of y is
   stale, revalidates {x}, and extends. *)
let sched_extend_ok = [| 1; 1 |]

(* extension failure, random probe search over [extend_fail ~expect:`Probe]
   (budget 300, <= 4000 runs; found at seed 43 in 55 runs): same shape
   one yield deeper; the writer's commit covers x as well, so the
   reader's revalidation finds its read set changed, the extension
   fails, and the second attempt snapshots (1,1). *)
let sched_extend_fail = [| 1; 1; 1 |]

(* fusion shrink, PCT depth 2 over [fusion_shrink ~expect:`Probe] (budget
   400, <= 6000 runs; found at seed 56 in 188 runs): A runs both lookups
   until its final fused transaction is in flight with a grown budget,
   then B's remove 6 + insert 9 commit under it; the contended commit
   halves A's fuse budget below the ceiling. *)
let sched_fusion = Array.concat [ Array.make 44 0; Array.make 73 1 ]
