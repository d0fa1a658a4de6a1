(* The sharded service layer: deterministic routing, same-shard batch
   fusing, cross-shard multis as one transaction (commit, precondition
   abort, fault and kill paths), the Spec JSON round trip that configures
   it, and the service packed as a Store driving the existing benchmark
   driver.

   The multi failure paths run under the DST scheduler: an injected
   allocation fault inside a multi, a multi that fails a precondition in
   the serial fallback, and a thread killed inside a multi must each
   leave the initial contents with the mempool accounting intact, with
   no recovery step. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

open Harness

let spec ?(shards = 4) ?(structure = Factories.Spec.Slist) () =
  Factories.Spec.v ~window:4 ~scatter:false ~shards ~fuse:true structure
    (Structs.Mode.Rr_kind (module Rr.V))

let with_thread f = Tm.Thread.with_registered (fun thread -> f ~thread)

(* A key in [1..bound] (fresh w.r.t. [avoid]) that routes to [shard]. *)
let key_in_shard svc ~shard ~avoid =
  let rec go k =
    if k > 100_000 then failwith "no key found for shard"
    else if Service.shard_of_key svc k = shard && not (List.mem k avoid) then k
    else go (k + 1)
  in
  go 1

(* ---------------------------------------------------------------- *)
(* Routing                                                           *)
(* ---------------------------------------------------------------- *)

let test_routing_deterministic () =
  let a = Service.create (spec ()) and b = Service.create (spec ()) in
  check "shard count from the spec knob" 4 (Service.shards a);
  let population = Array.make 4 0 in
  for k = 1 to 4096 do
    let s = Service.shard_of_key a k in
    checkb "in range" true (s >= 0 && s < 4);
    check "deterministic across instances" s (Service.shard_of_key b k);
    population.(s) <- population.(s) + 1
  done;
  (* the mixer must spread the keyspace, not stripe or clump it *)
  Array.iteri
    (fun s n ->
      if n < 512 || n > 1536 then
        Alcotest.failf "shard %d holds %d of 4096 keys" s n)
    population

let test_create_validates () =
  checkb "shards = 0 rejected" true
    (match spec ~shards:0 () with
    | _ -> false
    | exception Invalid_argument _ -> true);
  checkb "shards = 0 rejected past Spec.v" true
    (match Service.create { (spec ()) with Factories.Spec.shards = Some 0 } with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check "shard count from the spec" 2
    (Service.shards (Service.create (spec ~shards:2 ())))

(* ---------------------------------------------------------------- *)
(* Spec JSON round trip                                              *)
(* ---------------------------------------------------------------- *)

let test_spec_json_roundtrip () =
  let s = spec () in
  let j = Factories.Spec.to_json s in
  match Factories.Spec.of_json j with
  | Error e -> Alcotest.failf "of_json rejected its own to_json: %s" e
  | Ok s' ->
      checkb "round trip is lossless" true
        (Telemetry.Json.equal j (Factories.Spec.to_json s'));
      Alcotest.(check string)
        "label survives" (Factories.Spec.label s) (Factories.Spec.label s')

let test_spec_json_label_checked () =
  let tampered =
    match Factories.Spec.to_json (spec ()) with
    | Telemetry.Json.Obj kvs ->
        Telemetry.Json.Obj
          (List.map
             (fun (k, v) ->
               if k = "label" then (k, Telemetry.Json.String "RR-FA/x9")
               else (k, v))
             kvs)
    | _ -> Alcotest.fail "to_json is not an object"
  in
  checkb "mismatched label rejected" true
    (Result.is_error (Factories.Spec.of_json tampered))

let test_spec_label_sharding_suffix () =
  let base = Factories.Spec.label (spec ~shards:1 ()) in
  Alcotest.(check string)
    "x4 suffix"
    (base ^ "/x4")
    (Factories.Spec.label (spec ~shards:4 ()));
  checkb "no suffix for one shard" true
    (not (String.contains base '/'))

(* ---------------------------------------------------------------- *)
(* Single-key traffic, scans, batches                                *)
(* ---------------------------------------------------------------- *)

let test_basics () =
  let svc = Service.create (spec ()) in
  with_thread @@ fun ~thread ->
  let keys = List.init 64 (fun i -> (i * 7) + 1) in
  List.iter
    (fun k ->
      checkb "fresh insert" true
        ((Service.exec svc ~thread (Store.Insert k)).Store.outcome
        = Store.Inserted))
    keys;
  checkb "duplicate insert" true
    ((Service.exec svc ~thread (Store.Insert 8)).Store.outcome
    = Store.Duplicate);
  checkb "present get" true
    ((Service.exec svc ~thread (Store.Get 8)).Store.outcome = Store.Found);
  checkb "absent get" true
    ((Service.exec svc ~thread (Store.Get 2)).Store.outcome = Store.Absent);
  checkb "remove present" true
    ((Service.exec svc ~thread (Store.Remove 8)).Store.outcome = Store.Removed);
  checkb "remove absent" true
    ((Service.exec svc ~thread (Store.Remove 8)).Store.outcome = Store.Missing);
  check "size sums the shards" 63 (Service.size svc);
  checkb "contents merge sorted" true
    (Service.contents svc = List.sort compare (List.filter (( <> ) 8) keys));
  (match Service.check svc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "service check: %s" e);
  Service.finalize_thread svc ~thread;
  Service.drain svc

let test_scan_spans_shards () =
  let svc = Service.create (spec ()) in
  with_thread @@ fun ~thread ->
  let keys = [ 3; 4; 7; 11; 12; 19; 23 ] in
  List.iter (fun k -> ignore (Service.exec svc ~thread (Store.Insert k))) keys;
  let r = Service.exec svc ~thread (Store.Scan { low = 4; count = 16 }) in
  (match r.Store.outcome with
  | Store.Keys ks ->
      checkb "hits merged in key order" true (ks = [ 4; 7; 11; 12; 19 ])
  | _ -> Alcotest.fail "scan did not return Keys");
  checkb "interval is well-formed" true (r.Store.earliest <= r.Store.stamp)

let test_batch_fuses_per_shard () =
  let svc = Service.create (spec ()) in
  with_thread @@ fun ~thread ->
  (* three fresh keys on one shard: fused into a single transaction, so
     every reply carries the same commit stamp *)
  let k1 = key_in_shard svc ~shard:2 ~avoid:[] in
  let k2 = key_in_shard svc ~shard:2 ~avoid:[ k1 ] in
  let k3 = key_in_shard svc ~shard:2 ~avoid:[ k1; k2 ] in
  let rs =
    Service.exec_batch svc ~thread
      [| Store.Insert k1; Store.Insert k2; Store.Get k1; Store.Remove k3 |]
  in
  checkb "replies in request order" true
    (Array.map (fun r -> r.Store.outcome) rs
    = [| Store.Inserted; Store.Inserted; Store.Found; Store.Missing |]);
  let s0 = rs.(0).Store.stamp in
  Array.iter
    (fun r ->
      check "one stamp for the fused sub-batch" s0 r.Store.stamp;
      check "fused replies are points" s0 r.Store.earliest)
    rs;
  (* a cross-shard batch scatters per-shard replies back in order *)
  let other = key_in_shard svc ~shard:0 ~avoid:[ k1; k2; k3 ] in
  let rs =
    Service.exec_batch svc ~thread
      [| Store.Get k1; Store.Insert other; Store.Get k2 |]
  in
  checkb "cross-shard batch order" true
    (Array.map (fun r -> r.Store.outcome) rs
    = [| Store.Found; Store.Inserted; Store.Found |])

(* ---------------------------------------------------------------- *)
(* Cross-shard multis (one transaction)                              *)
(* ---------------------------------------------------------------- *)

(* A multi's operations run nested in its one transaction, so each
   structure's own state across its windows (the dlist remove's phase,
   the skiplist's resume level, a consumed spare) must be visible to the
   rest of the transaction before it commits. *)
let test_multi_commits_across_shards structure =
  let name = Factories.Spec.structure_name structure in
  let svc = Service.create (spec ~structure ()) in
  with_thread @@ fun ~thread ->
  let a = key_in_shard svc ~shard:0 ~avoid:[] in
  let b = key_in_shard svc ~shard:3 ~avoid:[ a ] in
  ignore (Service.exec svc ~thread (Store.Insert b));
  (match
     Service.multi svc ~thread [| Store.Insert a; Store.Remove b; Store.Get a |]
   with
  | Service.Committed rs ->
      checkb (name ^ ": insert applied") true
        (rs.(0).Store.outcome = Store.Inserted);
      checkb (name ^ ": remove applied") true
        (rs.(1).Store.outcome = Store.Removed);
      (* the Get runs after the writes, in the same transaction *)
      checkb (name ^ ": get sees the multi's insert") true
        (rs.(2).Store.outcome = Store.Found);
      Array.iter
        (fun r ->
          check (name ^ ": one commit stamp") rs.(0).Store.stamp r.Store.stamp;
          check (name ^ ": replies are points") r.Store.stamp r.Store.earliest)
        rs
  | Service.Aborted i -> Alcotest.failf "%s: unexpected abort at %d" name i);
  checkb (name ^ ": multi effects visible") true (Service.contents svc = [ a ]);
  check (name ^ ": counter") 1 (List.assoc "multis" (Service.counters svc));
  match Service.check svc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: service check after the multi: %s" name e

let test_multi_aborts_without_effect () =
  let svc = Service.create (spec ()) in
  with_thread @@ fun ~thread ->
  let a = key_in_shard svc ~shard:0 ~avoid:[] in
  let b = key_in_shard svc ~shard:1 ~avoid:[ a ] in
  ignore (Service.exec svc ~thread (Store.Insert b));
  (* precondition of op 1 fails (b present); op 0 must not apply *)
  (match Service.multi svc ~thread [| Store.Insert a; Store.Insert b |] with
  | Service.Aborted i -> check "failing index reported" 1 i
  | Service.Committed _ -> Alcotest.fail "expected abort");
  checkb "no effect applied" true (Service.contents svc = [ b ]);
  check "abort counter" 1 (List.assoc "multi_aborts" (Service.counters svc));
  match Service.check svc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "service check after the abort: %s" e

(* An abandoned multi must not keep its thread announced in an EBR
   epoch: its nested removes entered the epoch inside the transaction,
   and only [Tm.on_abort] can leave it again. A thread left announced
   would hold back the epoch, and the removes committed before the failed
   multis would never be freed. *)
let test_multi_aborts_release_ebr () =
  let svc =
    Service.create
      (Factories.Spec.v ~window:2 ~scatter:false ~shards:2 ~fuse:true
         Factories.Spec.Slist Structs.Mode.Ebr)
  in
  with_thread (fun ~thread ->
      for k = 1 to 40 do
        ignore (Service.exec svc ~thread (Store.Insert (2 * k)))
      done;
      for k = 30 to 40 do
        ignore (Service.exec svc ~thread (Store.Remove (2 * k)))
      done;
      for k = 1 to 20 do
        (* the remove walks several windows, then the insert of a present
           key fails its precondition *)
        match
          Service.multi svc ~thread
            [| Store.Remove (2 * k); Store.Insert (2 * ((k mod 20) + 1)) |]
        with
        | Service.Aborted i -> check "the insert failed" 1 i
        | Service.Committed _ -> Alcotest.fail "expected an abort"
      done;
      Service.finalize_thread svc ~thread);
  Service.drain svc;
  check "pool live = contents after the drain" (Service.size svc)
    (Option.value (Service.pool_live svc) ~default:(-1))

let test_multi_rejects_bad_shapes () =
  let svc = Service.create (spec ()) in
  with_thread @@ fun ~thread ->
  checkb "scan rejected" true
    (match Service.multi svc ~thread [| Store.Scan { low = 1; count = 4 } |] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  checkb "duplicate write key rejected" true
    (match Service.multi svc ~thread [| Store.Insert 5; Store.Remove 5 |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------------------------------------------------------------- *)
(* The service as a store: the benchmark driver runs it unchanged    *)
(* ---------------------------------------------------------------- *)

let test_driver_drives_service () =
  let svc = Service.create (spec ()) in
  let w =
    Workload.spec ~key_bits:6 ~lookup_pct:40 ~threads:2 ~ops_per_thread:1500 ()
  in
  let r = Driver.run ~verify:true w (Service.as_store svc) in
  (match r.Driver.verdict with
  | Ok () -> ()
  | Error e -> Alcotest.failf "driver verdict: %s" e);
  checkb "sharded label" true
    (String.length (Service.label svc) > 3
    && String.sub (Service.label svc) (String.length (Service.label svc) - 3) 3
       = "/x4")

(* ---------------------------------------------------------------- *)
(* DST: multi failure paths                                          *)
(* ---------------------------------------------------------------- *)

(* Build a fresh 2-shard service; [fresh] routes to a different shard
   than [kept], so the multi [Remove kept; Insert fresh] spans both and
   allocates (the insert's spare) only after its remove has run. *)
let svc_and_keys () =
  Dst.Inject.clear ();
  Tm.Thread.reset_ids_for_testing ();
  let svc = Service.create (spec ~shards:2 ()) in
  let kept = key_in_shard svc ~shard:0 ~avoid:[] in
  let fresh = key_in_shard svc ~shard:1 ~avoid:[ kept ] in
  (svc, kept, fresh)

(* Exact reclamation: after a full drain the live pool slots, summed over
   the shards, equal the contents. *)
let check_accounting svc ~expect =
  (match Service.check svc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "service check: %s" e);
  checkb "contents are the initial set" true (Service.contents svc = expect);
  Service.drain svc;
  match Service.pool_live svc with
  | Some live -> check "pool live = contents" (List.length expect) live
  | None -> Alcotest.fail "expected pool accounting"

(* Injected allocation failure inside the multi: the remove that ran first
   is discarded with the transaction, so the service lands back on
   exactly the initial contents. *)
let fault_case () =
  let svc, kept, fresh = svc_and_keys () in
  let init () =
    with_thread (fun ~thread ->
        ignore (Service.exec svc ~thread (Store.Insert kept)))
  in
  let saw_fault = ref false in
  let body () =
    with_thread (fun ~thread ->
        Dst.Inject.arm Dst.Mp_alloc Dst.Inject.Fail;
        match
          Service.multi svc ~thread [| Store.Remove kept; Store.Insert fresh |]
        with
        | _ -> failwith "armed allocation unexpectedly succeeded"
        | exception Dst.Injected Dst.Mp_alloc -> saw_fault := true)
  in
  {
    Dst.Explore.init = Some init;
    threads = [ body ];
    check =
      (fun () ->
        if not !saw_fault then failwith "fault did not fire";
        (match Service.check svc with
        | Ok () -> ()
        | Error e -> failwith e);
        if Service.contents svc <> [ kept ] then
          failwith "the faulted multi left a partial write");
  }

let test_apply_fault_rolls_back () =
  let c = fault_case () in
  let o =
    Dst.Sched.run ?init:c.Dst.Explore.init ~check:c.Dst.Explore.check
      (Dst.Sched.Random 1) c.Dst.Explore.threads
  in
  checkb "the fault discarded the remove" false (Dst.Sched.failed o);
  Dst.Inject.clear ()

(* Every speculative read of the multi is made to fail, so it falls back
   to a serial run; there its insert lands in place and the second
   insert fails its precondition. The serial run must undo the first
   insert and return its node through [Tm.on_abort]. *)
let test_serial_multi_aborts_without_effect () =
  let svc, kept, fresh = svc_and_keys () in
  let init () =
    with_thread (fun ~thread ->
        ignore (Service.exec svc ~thread (Store.Insert kept)))
  in
  let result = ref None and fallbacks = ref 0 in
  let body () =
    with_thread (fun ~thread ->
        Dst.Inject.arm ~times:1_000 Dst.Tm_read Dst.Inject.Fail;
        let stats = Tm.Thread.stats () in
        let f0 = Tm.Stats.fallbacks stats in
        result :=
          Some
            (Service.multi svc ~thread
               [| Store.Insert fresh; Store.Insert kept |]);
        fallbacks := Tm.Stats.fallbacks stats - f0)
  in
  let o = Dst.Sched.run ~init (Dst.Sched.Random 1) [ body ] in
  Dst.Inject.clear ();
  checkb "run completed" false (Dst.Sched.failed o || o.Dst.Sched.hung);
  check "the multi ran serially" 1 !fallbacks;
  (match !result with
  | Some (Service.Aborted i) -> check "failing index reported" 1 i
  | Some (Service.Committed _) -> Alcotest.fail "expected an abort"
  | None -> Alcotest.fail "the multi did not return");
  check_accounting svc ~expect:[ kept ]

(* A thread killed inside a multi, after its remove ran and while its
   insert allocates: the transaction never published, so with no
   recovery step the contents are the initial set, the service check
   passes and no pool slot leaks. [finalize] also runs the dead thread's
   quiescence hook first, which must not change the count. *)
let kill_mid_multi ~finalize () =
  let svc, kept, fresh = svc_and_keys () in
  let init () =
    with_thread (fun ~thread ->
        ignore (Service.exec svc ~thread (Store.Insert kept)))
  in
  let victim_tid = ref (-1) in
  let victim () =
    with_thread (fun ~thread ->
        victim_tid := thread;
        Dst.Inject.arm Dst.Mp_alloc (Dst.Inject.Delay 1_000_000);
        ignore
          (Service.multi svc ~thread
             [| Store.Remove kept; Store.Insert fresh |]))
  in
  let o = Dst.Sched.run ~budget:5_000 ~init (Dst.Sched.Random 1) [ victim ] in
  Dst.Inject.clear ();
  checkb "run hung at the parked allocation" true o.Dst.Sched.hung;
  checkb "hang is not a failure" false (Dst.Sched.failed o);
  (match Service.pool_live svc with
  | Some live -> check "pool live exact right after the kill" 1 live
  | None -> Alcotest.fail "expected pool accounting");
  if finalize then
    with_thread (fun ~thread:_ ->
        Service.finalize_thread svc ~thread:!victim_tid);
  check_accounting svc ~expect:[ kept ]

let test_kill_mid_multi = kill_mid_multi ~finalize:false
let test_kill_mid_multi_finalize = kill_mid_multi ~finalize:true

(* ---------------------------------------------------------------- *)
(* DST: serializability of mixed single/multi traffic                *)
(* ---------------------------------------------------------------- *)

(* One thread runs scripted singles, another scripted multis, on
   overlapping keys; every committed operation is logged at its commit
   stamp and the merged history must replay against the sequential set
   model. A multi's operations share one stamp, writers before readers
   (DESIGN.md, decision 10). *)
let serial_oracle_case () =
  Dst.Inject.clear ();
  Tm.Thread.reset_ids_for_testing ();
  let svc = Service.create (spec ~shards:2 ()) in
  let initial = [ 2; 4; 6; 8 ] in
  let init () =
    with_thread (fun ~thread ->
        List.iter
          (fun k -> ignore (Service.exec svc ~thread (Store.Insert k)))
          initial)
  in
  let logs = Array.make 2 [] in
  let singles () =
    with_thread (fun ~thread ->
        logs.(0) <-
          List.map
            (fun op -> Serial_check.of_reply op (Service.exec svc ~thread op))
            Store.
              [ Insert 1; Remove 4; Get 2; Insert 5; Remove 1; Get 6 ])
  in
  let multis () =
    with_thread (fun ~thread ->
        let log_multi ops =
          match Service.multi svc ~thread ops with
          | Service.Aborted _ -> ()
          | Service.Committed rs ->
              Array.iteri
                (fun i r ->
                  logs.(1) <- Serial_check.of_reply ops.(i) r :: logs.(1))
                rs
        in
        log_multi [| Store.Remove 2; Store.Insert 3; Store.Get 4 |];
        log_multi [| Store.Insert 1; Store.Remove 6 |];
        log_multi [| Store.Remove 8; Store.Insert 9 |];
        logs.(1) <- List.rev logs.(1))
  in
  {
    Dst.Explore.init = Some init;
    threads = [ singles; multis ];
    check =
      (fun () ->
        (match Service.check svc with
        | Ok () -> ()
        | Error e -> failwith e);
        match
          Serial_check.check ~initial
            [ Array.of_list logs.(0); Array.of_list logs.(1) ]
        with
        | Ok () -> ()
        | Error e -> failwith e);
  }

let test_serial_oracle () =
  for seed = 1 to 15 do
    let c = serial_oracle_case () in
    let o =
      Dst.Sched.run ?init:c.Dst.Explore.init ~check:c.Dst.Explore.check
        (Dst.Sched.Random seed) c.Dst.Explore.threads
    in
    if Dst.Sched.failed o then
      Alcotest.failf "seed %d: %s" seed
        (match o.Dst.Sched.failure with
        | Some f -> Format.asprintf "%a" Dst.Sched.pp_failure f
        | None -> "?");
    checkb "completed" false o.Dst.Sched.hung
  done

(* ---------------------------------------------------------------- *)
(* Spec knobs for the front layers                                   *)
(* ---------------------------------------------------------------- *)

let layered_spec ?pool ?hotcache ?slo_us ?(shards = 2) () =
  Factories.Spec.v ~window:4 ~scatter:false ~shards ~fuse:true ?pool ?hotcache
    ?slo_us Factories.Spec.Slist
    (Structs.Mode.Rr_kind (module Rr.V))

let contains_sub s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_spec_layer_knobs () =
  let s = layered_spec ~pool:true ~hotcache:true ~slo_us:5000 () in
  let l = Factories.Spec.label s in
  checkb "+pool in the label" true (contains_sub l "+pool");
  checkb "+hotcache in the label" true (contains_sub l "+hotcache");
  checkb "+slo in the label" true (contains_sub l "+slo5000");
  checkb "knobs precede the shard suffix" true
    (String.length l > 3 && String.sub l (String.length l - 3) 3 = "/x2");
  (match Factories.Spec.of_json (Factories.Spec.to_json s) with
  | Error e -> Alcotest.failf "of_json rejected layered to_json: %s" e
  | Ok s' ->
      checkb "layered round trip is lossless" true
        (Telemetry.Json.equal (Factories.Spec.to_json s)
           (Factories.Spec.to_json s')));
  (* an SLO is judged on the caller's path: it needs no pool *)
  let unpooled = layered_spec ~slo_us:5000 () in
  let l = Factories.Spec.label unpooled in
  checkb "+slo without +pool in the label" true
    (contains_sub l "+slo5000" && not (contains_sub l "+pool"));
  (match Factories.Spec.of_json (Factories.Spec.to_json unpooled) with
  | Error e -> Alcotest.failf "of_json rejected slo without pool: %s" e
  | Ok s' ->
      checkb "slo without pool round-trips" true
        (Telemetry.Json.equal
           (Factories.Spec.to_json unpooled)
           (Factories.Spec.to_json s')));
  checkb "slo_us = 0 rejected" true
    (match layered_spec ~pool:true ~slo_us:0 () with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let svc =
    Service.create { (layered_spec ()) with Factories.Spec.slo_us = Some 5000 }
  in
  checkb "create takes slo without pool" false (Service.pooled svc)

(* ---------------------------------------------------------------- *)
(* Admission: each Low arrival judged by its own sojourn             *)
(* ---------------------------------------------------------------- *)

(* A 1 ms SLO, so the target is a twentieth of it: 50 us. *)
let admission_slo_us = 1_000
let target_ns = admission_slo_us * 1_000 / 20

(* Run [f] on a pooled and on a caller-runs service under the SLO: the
   check comes before the choice of path, so both must answer alike. *)
let on_both_paths f =
  List.iter
    (fun pool ->
      Dst.Inject.clear ();
      Tm.Thread.reset_ids_for_testing ();
      let svc =
        Service.create (layered_spec ~pool ~slo_us:admission_slo_us ())
      in
      let path = if pool then "pooled" else "caller-runs" in
      with_thread (fun ~thread ->
          f svc ~thread ~path;
          Service.shutdown svc;
          Service.finalize_thread svc ~thread;
          Service.drain svc;
          match Service.check svc with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: service check: %s" path e))
    [ true; false ]

let counter svc name = List.assoc name (Service.counters svc)

let outcome svc tk path =
  match Service.await svc tk with
  | [| r |] -> r.Store.outcome
  | rs -> Alcotest.failf "%s: %d replies to one op" path (Array.length rs)

let test_admission_sheds_late_low () =
  on_both_paths @@ fun svc ~thread ~path ->
  let k = key_in_shard svc ~shard:0 ~avoid:[] in
  let tk =
    Service.submit svc ~thread ~priority:Service.Low
      ~sojourn_ns:(target_ns + 1)
      [| Store.Insert k; Store.Get k |]
  in
  (match tk with
  | Service.Shed n -> check (path ^ ": shed covers the group") 2 n
  | _ -> Alcotest.failf "%s: a late low arrival must shed" path);
  let rs = Service.await svc tk in
  check (path ^ ": an overload reply per op") 2 (Array.length rs);
  Array.iter
    (fun (r : Store.reply) ->
      checkb (path ^ ": overload outcome") true
        (r.Store.outcome = Store.Overload))
    rs;
  check (path ^ ": shed_low counted") 1 (counter svc "shed_low");
  checkb (path ^ ": nothing ran") true
    (outcome svc (Service.submit svc ~thread [| Store.Get k |]) path
    = Store.Absent)

let test_admission_runs_on_target () =
  on_both_paths @@ fun svc ~thread ~path ->
  let k = key_in_shard svc ~shard:0 ~avoid:[] in
  let low sojourn_ns op =
    outcome svc
      (Service.submit svc ~thread ~priority:Service.Low ~sojourn_ns [| op |])
      path
  in
  checkb (path ^ ": at the target") true
    (low target_ns (Store.Insert k) = Store.Inserted);
  checkb (path ^ ": on time") true (low 0 (Store.Get k) = Store.Found);
  check (path ^ ": nothing shed") 0 (counter svc "shed_low");
  (* without an SLO no arrival is late *)
  let plain = Service.create (layered_spec ~pool:(path = "pooled") ()) in
  checkb (path ^ ": no SLO, no shedding") true
    (outcome plain
       (Service.submit plain ~thread ~priority:Service.Low
          ~sojourn_ns:max_int [| Store.Insert k |])
       path
    = Store.Inserted);
  Service.shutdown plain;
  Service.finalize_thread plain ~thread

let test_admission_defers_late_high () =
  on_both_paths @@ fun svc ~thread ~path ->
  let k = key_in_shard svc ~shard:0 ~avoid:[] in
  checkb (path ^ ": a late high runs") true
    (outcome svc
       (Service.submit svc ~thread ~priority:Service.High
          ~sojourn_ns:(10 * target_ns) [| Store.Insert k |])
       path
    = Store.Inserted);
  check (path ^ ": deferred_high counted") 1 (counter svc "deferred_high");
  check (path ^ ": no low shed") 0 (counter svc "shed_low");
  check (path ^ ": no high shed") 0 (counter svc "shed_high")

(* Nothing latches: the arrival after a shed one is judged by its own
   sojourn, with no wait and no event between them. *)
let test_admission_no_latch () =
  on_both_paths @@ fun svc ~thread ~path ->
  let k = key_in_shard svc ~shard:0 ~avoid:[] in
  let submit sojourn_ns =
    Service.submit svc ~thread ~priority:Service.Low ~sojourn_ns
      [| Store.Insert k |]
  in
  (match submit (100 * target_ns) with
  | Service.Shed 1 -> ()
  | _ -> Alcotest.failf "%s: the late arrival must shed" path);
  checkb (path ^ ": the next on-time arrival runs") true
    (outcome svc (submit 0) path = Store.Inserted)

(* ---------------------------------------------------------------- *)
(* Pool: queues drained by the awaiting client                      *)
(* ---------------------------------------------------------------- *)

(* The pool starts no domains: nothing runs until a client awaits, so a
   test sees the backlog first and then each drain [try_await] makes. *)
let pooled_svc () =
  Dst.Inject.clear ();
  Tm.Thread.reset_ids_for_testing ();
  Service.create (layered_spec ~pool:true ())

let test_pool_async_spawnless () =
  let svc = pooled_svc () in
  with_thread @@ fun ~thread ->
  let k1 = key_in_shard svc ~shard:0 ~avoid:[] in
  let t1 = Service.submit svc ~thread [| Store.Insert k1 |] in
  (match t1 with
  | Service.Queued _ -> ()
  | _ -> Alcotest.fail "same-shard group should ride the queue");
  check "queued" 1 (Service.queued svc);
  check "per-shard depth" 1 (Service.queue_depth svc ~shard:0);
  checkb "check flags the backlog" true (Result.is_error (Service.check svc));
  check "nothing drained before an await" 0
    (counter svc "drained_batches");
  (match Service.try_await svc t1 with
  | Some rs ->
      checkb "insert applied" true (rs.(0).Store.outcome = Store.Inserted)
  | None -> Alcotest.fail "one try_await should drain the batch");
  check "one fused batch" 1 (counter svc "drained_batches");
  check "drained by the poll" 0 (Service.queued svc);
  checkb "await after completion" true
    ((Service.await svc t1).(0).Store.outcome = Store.Inserted);
  check "a done ticket drains nothing" 1 (counter svc "drained_batches");
  (* cross-shard groups and scans degrade to the synchronous paths *)
  let k2 = key_in_shard svc ~shard:1 ~avoid:[ k1 ] in
  (match Service.submit svc ~thread [| Store.Get k1; Store.Insert k2 |] with
  | Service.Done rs ->
      checkb "sync fallback in order" true
        (Array.map (fun r -> r.Store.outcome) rs
        = [| Store.Found; Store.Inserted |])
  | _ -> Alcotest.fail "cross-shard group should complete synchronously");
  (match Service.submit svc ~thread [| Store.Scan { low = 1; count = 8 } |] with
  | Service.Done _ -> ()
  | _ -> Alcotest.fail "scan should complete synchronously");
  check "empty after drain" 0 (Service.queued svc);
  Service.shutdown svc;
  (match Service.check svc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "check: %s" e);
  Service.finalize_thread svc ~thread;
  Service.drain svc

let test_pool_fused_drain () =
  let svc = pooled_svc () in
  with_thread @@ fun ~thread ->
  let k1 = key_in_shard svc ~shard:0 ~avoid:[] in
  let k2 = key_in_shard svc ~shard:0 ~avoid:[ k1 ] in
  let k3 = key_in_shard svc ~shard:0 ~avoid:[ k1; k2 ] in
  let ts =
    List.map
      (fun k -> Service.submit svc ~thread [| Store.Insert k |])
      [ k1; k2; k3 ]
  in
  check "three queued" 3 (Service.queued svc);
  checkb "check flags the backlog" true (Result.is_error (Service.check svc));
  checkb "one try_await completes the first" true
    (Service.try_await svc (List.hd ts) <> None);
  check "in one fused batch" 1 (counter svc "drained_batches");
  check "that batch took all three" 0 (Service.queued svc);
  let rs = List.map (fun t -> (Service.await svc t).(0)) ts in
  List.iter
    (fun (r : Store.reply) ->
      checkb "inserted" true (r.Store.outcome = Store.Inserted))
    rs;
  (match rs with
  | a :: rest ->
      List.iter
        (fun (r : Store.reply) ->
          check "one stamp for the fused drain" a.Store.stamp r.Store.stamp)
        rest
  | [] -> assert false);
  let c = Service.counters svc in
  check "drained_requests" 3 (List.assoc "drained_requests" c);
  check "the other two were already done" 1 (List.assoc "drained_batches" c);
  Service.shutdown svc;
  Service.finalize_thread svc ~thread;
  Service.drain svc

(* More submissions than a shard's queue admits, none awaited yet: the
   submitter drains the full queue itself instead of waiting for a drain
   nobody else would run. *)
let test_pool_full_ring_drains () =
  let svc = pooled_svc () in
  with_thread @@ fun ~thread ->
  let keys =
    List.filter
      (fun k -> Service.shard_of_key svc k = 0)
      (List.init 4000 (fun i -> i + 1))
  in
  let keys = List.filteri (fun i _ -> i < 1100) keys in
  check "more keys than the queue admits" 1100 (List.length keys);
  let ts =
    List.map (fun k -> Service.submit svc ~thread [| Store.Insert k |]) keys
  in
  checkb "the submitter drained on the full queue" true
    (counter svc "drained_batches" > 0);
  List.iter
    (fun t ->
      checkb "inserted" true
        ((Service.await svc t).(0).Store.outcome = Store.Inserted))
    ts;
  check "all present" 1100 (List.length (Service.contents svc));
  Service.shutdown svc;
  Service.finalize_thread svc ~thread;
  Service.drain svc

(* A request that touches a key of the batch being gathered is held
   back and leads the next batch: the Get of [k] must not share the
   first insert's stamp, and must see it. *)
let test_pool_fusion_fifo () =
  Dst.Inject.clear ();
  Tm.Thread.reset_ids_for_testing ();
  let svc = Service.create (layered_spec ~pool:true ~shards:1 ()) in
  with_thread @@ fun ~thread ->
  let k = 5 and k2 = 6 in
  let t1 = Service.submit svc ~thread [| Store.Insert k |] in
  let t2 = Service.submit svc ~thread [| Store.Get k |] in
  let t3 = Service.submit svc ~thread [| Store.Insert k2 |] in
  checkb "the first batch completes the insert" true
    (Service.try_await svc t1 <> None);
  check "a batch of the insert alone" 1 (counter svc "drained_batches");
  check "the get and the second insert still queued" 2 (Service.queued svc);
  checkb "the next batch completes the get" true
    (Service.try_await svc t2 <> None);
  check "two batches" 2 (counter svc "drained_batches");
  check "nothing queued" 0 (Service.queued svc);
  let r1 = (Service.await svc t1).(0)
  and r2 = (Service.await svc t2).(0)
  and r3 = (Service.await svc t3).(0) in
  checkb "the get sees the first insert" true (r2.Store.outcome = Store.Found);
  checkb "the second insert applied" true (r3.Store.outcome = Store.Inserted);
  check "the get and the second insert share a stamp" r3.Store.stamp
    r2.Store.stamp;
  checkb "the get is stamped after the first insert" true
    (r2.Store.stamp > r1.Store.stamp);
  Service.shutdown svc;
  Service.finalize_thread svc ~thread;
  Service.drain svc

(* A batch whose execution raises applied nothing: its requests go back
   to the head of the queue and a later drain completes them. The clock
   at its limit makes the fused batch's commit raise. *)
let test_pool_raising_batch_requeues () =
  Dst.Inject.clear ();
  Tm.Thread.reset_ids_for_testing ();
  let svc = Service.create (layered_spec ~pool:true ~shards:1 ()) in
  with_thread @@ fun ~thread ->
  let t1 = Service.submit svc ~thread [| Store.Insert 5 |] in
  let t2 = Service.submit svc ~thread [| Store.Insert 6 |] in
  let saved = Tm.clock () in
  Tm.set_clock_for_testing Tm.max_version;
  (match Service.try_await svc t1 with
  | _ ->
      Tm.set_clock_for_testing saved;
      Alcotest.fail "the batch committed past the clock limit"
  | exception Tm.Clock_exhausted -> Tm.set_clock_for_testing saved);
  check "both requests queued again" 2 (Service.queued svc);
  let rec answer tk polls =
    match Service.try_await svc tk with
    | Some rs -> rs.(0).Store.outcome
    | None when polls > 1 -> answer tk (polls - 1)
    | None -> Alcotest.fail "a ticket did not complete in 1,000 polls"
  in
  checkb "the first insert answers" true (answer t1 1_000 = Store.Inserted);
  checkb "the second insert answers" true (answer t2 1_000 = Store.Inserted);
  Service.shutdown svc;
  Service.finalize_thread svc ~thread;
  Service.drain svc;
  match Service.check svc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "service check: %s" e

(* An idle pool holds no request storage: its footprint is a few padded
   counters per shard, not storage sized by the queue bound. *)
let test_pool_idle_footprint () =
  Dst.Inject.clear ();
  let words pool =
    let svc = Service.create (layered_spec ~pool ()) in
    Gc.full_major ();
    let w = Obj.reachable_words (Obj.repr svc) in
    Service.shutdown svc;
    w
  in
  let plain = words false in
  let pooled = words true in
  if pooled - plain >= 1024 then
    Alcotest.failf "an idle pool holds %d words (service %d, pooled %d)"
      (pooled - plain) plain pooled

(* A client that drains its own requests, against the model, then
   zero-leak accounting through the client's thread finalizer. *)
let test_pool_combining_end_to_end () =
  Dst.Inject.clear ();
  Tm.Thread.reset_ids_for_testing ();
  let svc = Service.create (layered_spec ~pool:true ()) in
  with_thread @@ fun ~thread ->
  let model = Hashtbl.create 64 in
  let mismatches = ref 0 in
  for i = 1 to 300 do
    let k = 1 + ((i * 37) mod 48) in
    let op =
      match i mod 3 with
      | 0 -> Store.Insert k
      | 1 -> Store.Remove k
      | _ -> Store.Get k
    in
    let t = Service.submit svc ~thread [| op |] in
    let r = (Service.await svc t).(0) in
    let expected =
      match op with
      | Store.Insert _ ->
          let e = not (Hashtbl.mem model k) in
          if e then Hashtbl.replace model k ();
          e
      | Store.Remove _ ->
          let e = Hashtbl.mem model k in
          if e then Hashtbl.remove model k;
          e
      | Store.Get _ -> Hashtbl.mem model k
      | Store.Scan _ -> assert false
    in
    if Store.positive r.Store.outcome <> expected then incr mismatches
  done;
  check "every awaited reply matches the model" 0 !mismatches;
  Service.shutdown svc;
  (match Service.check svc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "after shutdown: %s" e);
  check "the client drained every request" 300
    (List.assoc "drained_requests" (Service.counters svc));
  Service.finalize_thread svc ~thread;
  Service.drain svc;
  checkb "final contents match the model" true
    (Service.contents svc
    = List.sort compare (Hashtbl.fold (fun k () a -> k :: a) model []));
  match Service.pool_live svc with
  | Some live ->
      check "zero leak through the client finalizer" (Hashtbl.length model) live
  | None -> Alcotest.fail "expected pool accounting"

(* ---------------------------------------------------------------- *)
(* Hot-key read cache                                                *)
(* ---------------------------------------------------------------- *)

let test_hotcache_unit () =
  let module H = Service.Hot_cache in
  Dst.Inject.clear ();
  let hc = H.create ~capacity:16 ~shards:2 () in
  let reply o = { Store.outcome = o; earliest = 7; stamp = 9 } in
  checkb "cold miss" true (H.find hc ~shard:0 ~thread:0 5 = None);
  let e0 = H.epoch hc ~shard:0 5 in
  H.note hc ~shard:0 ~epoch0:e0 5 (reply Store.Found);
  (match H.find hc ~shard:0 ~thread:0 5 with
  | Some r ->
      checkb "hit replays the reply" true
        (r.Store.outcome = Store.Found && r.Store.stamp = 9
       && r.Store.earliest = 7)
  | None -> Alcotest.fail "expected a hit");
  (* a write of a key in another slot leaves the entry servable *)
  H.bump hc ~shard:0 ~key:6 ~stamp:11;
  checkb "other slot's bump keeps the entry" true
    (H.find hc ~shard:0 ~thread:0 5 <> None);
  (* a write of a key sharing the slot (5 + 16 in a 16-slot table)
     invalidates it *)
  H.bump hc ~shard:0 ~key:21 ~stamp:12;
  checkb "invalidated after a same-slot bump" true
    (H.find hc ~shard:0 ~thread:0 5 = None);
  (* stillborn populate: an epoch sampled before a write never serves *)
  let e1 = H.epoch hc ~shard:0 5 in
  H.bump hc ~shard:0 ~key:5 ~stamp:15;
  H.note hc ~shard:0 ~epoch0:e1 5 (reply Store.Absent);
  checkb "stale populate never serves" true
    (H.find hc ~shard:0 ~thread:0 5 = None);
  (* only lookup replies populate *)
  H.note hc ~shard:1 ~epoch0:(H.epoch hc ~shard:1 3) 3 (reply Store.Inserted);
  checkb "writes are not cached" true (H.find hc ~shard:1 ~thread:0 3 = None);
  (* a shard-0 bump of key 3 does not touch shard 1's key 3 *)
  H.note hc ~shard:1 ~epoch0:(H.epoch hc ~shard:1 3) 3 (reply Store.Found);
  H.bump hc ~shard:0 ~key:3 ~stamp:16;
  checkb "per-shard isolation" true (H.find hc ~shard:1 ~thread:0 3 <> None);
  let stats = H.stats hc in
  check "invalidations counted" 4 (List.assoc "cache_invalidations" stats);
  check "hits counted" 3 (List.assoc "cache_hits" stats);
  check "misses counted" 4 (List.assoc "cache_misses" stats);
  checkb "hit rate" true (abs_float (H.hit_rate hc -. (3. /. 7.)) < 1e-9)

let test_service_cache_hits () =
  Dst.Inject.clear ();
  Tm.Thread.reset_ids_for_testing ();
  let svc = Service.create (layered_spec ~hotcache:true ()) in
  with_thread @@ fun ~thread ->
  let k = key_in_shard svc ~shard:0 ~avoid:[] in
  ignore (Service.exec svc ~thread (Store.Insert k));
  checkb "first get misses and populates" true
    ((Service.exec svc ~thread (Store.Get k)).Store.outcome = Store.Found);
  checkb "second get hits" true
    ((Service.exec svc ~thread (Store.Get k)).Store.outcome = Store.Found);
  check "one hit" 1 (List.assoc "cache_hits" (Service.counters svc));
  checkb "hit rate positive" true (Service.cache_hit_rate svc > 0.);
  (* a write of another key (another slot) leaves the entry servable *)
  let k2 = key_in_shard svc ~shard:0 ~avoid:[ k ] in
  ignore (Service.exec svc ~thread (Store.Insert k2));
  checkb "other key's write keeps the hit" true
    ((Service.exec svc ~thread (Store.Get k)).Store.outcome = Store.Found);
  check "two hits" 2 (List.assoc "cache_hits" (Service.counters svc));
  (* a write of the key invalidates its entry *)
  ignore (Service.exec svc ~thread (Store.Remove k));
  checkb "invalidated entry re-misses" true
    ((Service.exec svc ~thread (Store.Get k)).Store.outcome = Store.Absent);
  check "still two hits" 2 (List.assoc "cache_hits" (Service.counters svc));
  checkb "invalidations counted" true
    (List.assoc "cache_invalidations" (Service.counters svc) >= 2);
  (* a lone cached Get completes inline through submit, pool or not *)
  (match Service.submit svc ~thread [| Store.Get k |] with
  | Service.Done rs ->
      checkb "inline cache hit" true (rs.(0).Store.outcome = Store.Absent)
  | _ -> Alcotest.fail "expected an inline completion");
  check "three hits" 3 (List.assoc "cache_hits" (Service.counters svc));
  Service.finalize_thread svc ~thread;
  Service.drain svc

(* A lone Get that misses the cache is looked up once, whether it is
   submitted or executed. *)
let test_cache_one_lookup_per_miss () =
  Dst.Inject.clear ();
  Tm.Thread.reset_ids_for_testing ();
  let svc = Service.create (layered_spec ~hotcache:true ()) in
  with_thread @@ fun ~thread ->
  (match Service.submit svc ~thread [| Store.Get 7 |] with
  | Service.Done [| r |] ->
      checkb "absent" true (r.Store.outcome = Store.Absent)
  | _ -> Alcotest.fail "expected an inline completion");
  check "one miss" 1 (List.assoc "cache_misses" (Service.counters svc));
  ignore (Service.exec svc ~thread (Store.Get 8));
  check "two misses" 2 (List.assoc "cache_misses" (Service.counters svc));
  Service.finalize_thread svc ~thread;
  Service.drain svc

(* A cross-shard multi must invalidate the caches of every shard it
   writes once it commits — no lookup after the multi can be served from
   a pre-multi entry. TxSan's freshness rule is armed for the whole
   test. *)
let test_multi_invalidates_both_shards () =
  Dst.Inject.clear ();
  Tm.Thread.reset_ids_for_testing ();
  San.reset ();
  San.set_enabled ~mode:San.Raise true;
  Fun.protect ~finally:(fun () ->
      San.set_enabled false;
      San.reset ())
  @@ fun () ->
  let svc = Service.create (layered_spec ~hotcache:true ()) in
  with_thread @@ fun ~thread ->
  let a = key_in_shard svc ~shard:0 ~avoid:[] in
  let b = key_in_shard svc ~shard:1 ~avoid:[ a ] in
  ignore (Service.exec svc ~thread (Store.Insert b));
  (* warm both shards' caches and confirm they serve *)
  checkb "a absent" true
    ((Service.exec svc ~thread (Store.Get a)).Store.outcome = Store.Absent);
  checkb "b found" true
    ((Service.exec svc ~thread (Store.Get b)).Store.outcome = Store.Found);
  checkb "a hit" true
    ((Service.exec svc ~thread (Store.Get a)).Store.outcome = Store.Absent);
  checkb "b hit" true
    ((Service.exec svc ~thread (Store.Get b)).Store.outcome = Store.Found);
  check "both shards serving" 2 (List.assoc "cache_hits" (Service.counters svc));
  let inv0 = List.assoc "cache_invalidations" (Service.counters svc) in
  (match Service.multi svc ~thread [| Store.Insert a; Store.Remove b |] with
  | Service.Committed _ -> ()
  | Service.Aborted i -> Alcotest.failf "unexpected abort at %d" i);
  checkb "both shards invalidated" true
    (List.assoc "cache_invalidations" (Service.counters svc) >= inv0 + 2);
  (* lookups after the multi see its effects, not the dead entries *)
  checkb "a now found" true
    ((Service.exec svc ~thread (Store.Get a)).Store.outcome = Store.Found);
  checkb "b now absent" true
    ((Service.exec svc ~thread (Store.Get b)).Store.outcome = Store.Absent);
  check "no stale hit served" 2 (List.assoc "cache_hits" (Service.counters svc));
  check "no freshness violation" 0 (San.total_violations ());
  Service.finalize_thread svc ~thread;
  Service.drain svc

(* The [Stale_cache] injected bug: the writer commits but skips the
   invalidation. The entry stays servable, and the TxSan freshness rule
   must name the stale hit at the faulting access. Injected bugs are
   only live inside a DST run, so the deterministic sequence runs as a
   solo logical thread. *)
let test_stale_cache_bug_caught () =
  Dst.Inject.clear ();
  Tm.Thread.reset_ids_for_testing ();
  San.reset ();
  San.set_enabled ~mode:San.Raise true;
  Fun.protect ~finally:(fun () ->
      San.set_enabled false;
      San.reset ();
      Dst.Inject.clear ())
  @@ fun () ->
  let svc = Service.create (layered_spec ~hotcache:true ()) in
  Dst.Inject.set_bug Dst.Inject.Stale_cache true;
  let body () =
    with_thread (fun ~thread ->
        let k = key_in_shard svc ~shard:0 ~avoid:[] in
        if (Service.exec svc ~thread (Store.Get k)).Store.outcome <> Store.Absent
        then failwith "expected an absent populate";
        ignore (Service.exec svc ~thread (Store.Insert k));
        ignore (Service.exec svc ~thread (Store.Get k));
        failwith "stale hit served without a report")
  in
  let o = Dst.Sched.run (Dst.Sched.Random 1) [ body ] in
  match o.Dst.Sched.failure with
  | Some (Dst.Sched.Thread_raised { exn = San.Violation r; _ }) ->
      checkb "rule is stale-cache-hit" true (r.San.rule = San.Stale_cache_hit)
  | Some f ->
      Alcotest.failf "unexpected failure: %s"
        (Format.asprintf "%a" Dst.Sched.pp_failure f)
  | None -> Alcotest.fail "stale hit served without a report"

(* qcheck: a cached service driven through a random op sequence (singles
   and cross-shard multis) agrees with the sequential set model — cached
   lookups included. *)
let qcheck_cached_matches_model =
  let open QCheck in
  let gen =
    Gen.(
      let key = map (fun k -> k + 1) (int_bound 23) in
      list_size (int_bound 80)
        (frequency
           [
             (3, map (fun k -> `I k) key);
             (3, map (fun k -> `R k) key);
             (6, map (fun k -> `L k) key);
             (1, map (fun k -> `M (k, k + 1)) key);
           ]))
  in
  let print ops =
    String.concat ";"
      (List.map
         (function
           | `I k -> Printf.sprintf "I%d" k
           | `R k -> Printf.sprintf "R%d" k
           | `L k -> Printf.sprintf "L%d" k
           | `M (a, b) -> Printf.sprintf "M%d-%d" a b)
         ops)
  in
  Test.make ~name:"hotcache: cached lookups match the sequential model"
    ~count:50 (make ~print gen)
    (fun ops ->
      let svc = Service.create (layered_spec ~hotcache:true ()) in
      Tm.Thread.with_registered (fun thread ->
          let model = Hashtbl.create 32 in
          let ok =
            List.for_all
              (function
                | `I k ->
                    let e = not (Hashtbl.mem model k) in
                    if e then Hashtbl.replace model k ();
                    Store.positive
                      (Service.exec svc ~thread (Store.Insert k)).Store.outcome
                    = e
                | `R k ->
                    let e = Hashtbl.mem model k in
                    if e then Hashtbl.remove model k;
                    Store.positive
                      (Service.exec svc ~thread (Store.Remove k)).Store.outcome
                    = e
                | `L k ->
                    Store.positive
                      (Service.exec svc ~thread (Store.Get k)).Store.outcome
                    = Hashtbl.mem model k
                | `M (a, b) -> (
                    let pa = not (Hashtbl.mem model a)
                    and pb = Hashtbl.mem model b in
                    match
                      Service.multi svc ~thread
                        [| Store.Insert a; Store.Remove b |]
                    with
                    | Service.Committed _ ->
                        if pa && pb then (
                          Hashtbl.replace model a ();
                          Hashtbl.remove model b;
                          true)
                        else false
                    | Service.Aborted _ -> not (pa && pb)))
              ops
          in
          Service.finalize_thread svc ~thread;
          Service.drain svc;
          ok
          && Service.contents svc
             = List.sort compare (Hashtbl.fold (fun k () a -> k :: a) model [])
          && Service.check svc = Ok ()))

(* ---------------------------------------------------------------- *)
(* DST: queue drains vs submissions, and vs multis                   *)
(* ---------------------------------------------------------------- *)

(* A producer submits through the queues and drains them by awaiting
   through the scheduler: every ticket must complete with the right
   outcome regardless of the interleaving. *)
let pool_drain_case () =
  Dst.Inject.clear ();
  Tm.Thread.reset_ids_for_testing ();
  let svc = Service.create (layered_spec ~pool:true ()) in
  let bad = ref 0 in
  let producer () =
    with_thread (fun ~thread ->
        let ts =
          List.map
            (fun k -> Service.submit svc ~thread [| Store.Insert k |])
            [ 1; 2; 3; 4; 5; 6 ]
        in
        List.iter
          (fun t ->
            if (Service.await svc t).(0).Store.outcome <> Store.Inserted then
              incr bad)
          ts)
  in
  {
    Dst.Explore.init = None;
    threads = [ producer ];
    check =
      (fun () ->
        if !bad > 0 then failwith "a queued insert lost its effect";
        (match Service.check svc with
        | Ok () -> ()
        | Error e -> failwith e);
        if Service.contents svc <> [ 1; 2; 3; 4; 5; 6 ] then
          failwith "drained contents are wrong");
  }

let test_dst_pool_drain () =
  for seed = 1 to 10 do
    let c = pool_drain_case () in
    let o =
      Dst.Sched.run ?init:c.Dst.Explore.init ~check:c.Dst.Explore.check
        (Dst.Sched.Random seed) c.Dst.Explore.threads
    in
    if Dst.Sched.failed o then
      Alcotest.failf "seed %d: %s" seed
        (match o.Dst.Sched.failure with
        | Some f -> Format.asprintf "%a" Dst.Sched.pp_failure f
        | None -> "?");
    checkb "completed" false o.Dst.Sched.hung
  done

(* Queue drains racing a cross-shard multi: whatever order the
   scheduler picks, the history must land on one of the two serializable
   outcomes, never a torn mix. *)
let pool_multi_case () =
  Dst.Inject.clear ();
  Tm.Thread.reset_ids_for_testing ();
  let svc =
    Service.create (layered_spec ~pool:true ~hotcache:true ())
  in
  let a = key_in_shard svc ~shard:0 ~avoid:[] in
  let b = key_in_shard svc ~shard:1 ~avoid:[ a ] in
  let submitter () =
    with_thread (fun ~thread ->
        let t1 = Service.submit svc ~thread [| Store.Insert a |] in
        if not (Store.positive (Service.await svc t1).(0).Store.outcome) then
          failwith "insert of a fresh key failed";
        let t2 = Service.submit svc ~thread [| Store.Get a |] in
        ignore (Service.await svc t2))
  in
  let multi_thread () =
    with_thread (fun ~thread ->
        match Service.multi svc ~thread [| Store.Remove a; Store.Insert b |] with
        | Service.Committed _ | Service.Aborted _ -> ())
  in
  {
    Dst.Explore.init = None;
    threads = [ submitter; multi_thread ];
    check =
      (fun () ->
        (match Service.check svc with
        | Ok () -> ()
        | Error e -> failwith e);
        (* multi-first: it aborts (a absent), insert lands -> [a];
           insert-first: the multi commits -> [b] *)
        let c = Service.contents svc in
        if c <> [ a ] && c <> [ b ] then
          failwith "contents are not a serializable outcome of the race");
  }

let test_dst_pool_vs_multi () =
  for seed = 1 to 10 do
    let c = pool_multi_case () in
    let o =
      Dst.Sched.run ?init:c.Dst.Explore.init ~check:c.Dst.Explore.check
        (Dst.Sched.Random seed) c.Dst.Explore.threads
    in
    if Dst.Sched.failed o then
      Alcotest.failf "seed %d: %s" seed
        (match o.Dst.Sched.failure with
        | Some f -> Format.asprintf "%a" Dst.Sched.pp_failure f
        | None -> "?");
    checkb "completed" false o.Dst.Sched.hung
  done

(* Two clients submit to the same shard and each awaits only its own
   tickets, one at a time, so whichever takes the drain flag runs the
   other's queued request too. Every ticket must complete with its own
   outcome whichever client drained it. Each batch holds at most one
   request per client, so a batch of two is a ticket completed on the
   other client's drain. *)
let pool_combining_case () =
  Dst.Inject.clear ();
  Tm.Thread.reset_ids_for_testing ();
  let svc = Service.create (layered_spec ~pool:true ()) in
  let keys =
    List.fold_left
      (fun acc _ -> key_in_shard svc ~shard:0 ~avoid:acc :: acc)
      [] (List.init 6 Fun.id)
  in
  let mine c = List.filteri (fun i _ -> i mod 2 = c) keys in
  let bad = ref 0 in
  let client c () =
    with_thread (fun ~thread ->
        let run op expect =
          let t = Service.submit svc ~thread [| op |] in
          if (Service.await svc t).(0).Store.outcome <> expect then incr bad
        in
        List.iter (fun k -> run (Store.Insert k) Store.Inserted) (mine c);
        List.iter (fun k -> run (Store.Get k) Store.Found) (mine c))
  in
  let case =
    {
      Dst.Explore.init = None;
      threads = [ client 0; client 1 ];
      check =
        (fun () ->
          if !bad > 0 then failwith "a ticket completed with a wrong outcome";
          (match Service.check svc with
          | Ok () -> ()
          | Error e -> failwith e);
          if Service.contents svc <> List.sort compare keys then
            failwith "drained contents are wrong");
    }
  in
  (svc, case)

let test_dst_pool_combining () =
  let helped = ref 0 in
  for seed = 1 to 10 do
    let svc, c = pool_combining_case () in
    let o =
      Dst.Sched.run ?init:c.Dst.Explore.init ~check:c.Dst.Explore.check
        (Dst.Sched.Random seed) c.Dst.Explore.threads
    in
    if Dst.Sched.failed o then
      Alcotest.failf "seed %d: %s" seed
        (match o.Dst.Sched.failure with
        | Some f -> Format.asprintf "%a" Dst.Sched.pp_failure f
        | None -> "?");
    checkb "completed" false o.Dst.Sched.hung;
    check "every request drained" 12 (counter svc "drained_requests");
    if counter svc "drained_requests" > counter svc "drained_batches"
    then incr helped
  done;
  checkb "some seed completes a ticket on the other client's drain" true
    (!helped > 0)

(* Reader populating and hitting the cache while a writer churns the
   same shard: production code must stay violation-free under every
   schedule; with the [Stale_cache] bug armed, some schedule serves a
   stale hit and the armed sanitizer reports it. *)
let cache_race_case ~bug () =
  Dst.Inject.clear ();
  Tm.Thread.reset_ids_for_testing ();
  San.reset ();
  if bug then Dst.Inject.set_bug Dst.Inject.Stale_cache true;
  let svc = Service.create (layered_spec ~shards:1 ~hotcache:true ()) in
  let reader () =
    with_thread (fun ~thread ->
        for _ = 1 to 6 do
          ignore (Service.exec svc ~thread (Store.Get 5))
        done)
  in
  let writer () =
    with_thread (fun ~thread ->
        ignore (Service.exec svc ~thread (Store.Insert 5));
        ignore (Service.exec svc ~thread (Store.Remove 5)))
  in
  {
    Dst.Explore.init = None;
    threads = [ reader; writer ];
    check =
      (fun () ->
        match Service.check svc with Ok () -> () | Error e -> failwith e);
  }

(* The Random seeds both cache-race cases run; with the bug armed, the
   first that reaches the stale hit is 39. *)
let cache_race_seeds = 64

let run_cache_race ~bug seed =
  let c = cache_race_case ~bug () in
  Dst.Sched.run ?init:c.Dst.Explore.init ~check:c.Dst.Explore.check
    (Dst.Sched.Random seed) c.Dst.Explore.threads

let test_dst_cache_race_clean () =
  San.set_enabled ~mode:San.Raise true;
  Fun.protect ~finally:(fun () ->
      San.set_enabled false;
      San.reset ();
      Dst.Inject.clear ())
  @@ fun () ->
  for seed = 1 to cache_race_seeds do
    let o = run_cache_race ~bug:false seed in
    if Dst.Sched.failed o then
      Alcotest.failf "seed %d: %s" seed
        (match o.Dst.Sched.failure with
        | Some f -> Format.asprintf "%a" Dst.Sched.pp_failure f
        | None -> "?")
  done;
  check "no violations across schedules" 0 (San.total_violations ())

let test_dst_cache_race_bug_caught () =
  San.set_enabled ~mode:San.Raise true;
  Fun.protect ~finally:(fun () ->
      San.set_enabled false;
      San.reset ();
      Dst.Inject.clear ())
  @@ fun () ->
  let caught = ref false in
  for seed = 1 to cache_race_seeds do
    if not !caught then
      let o = run_cache_race ~bug:true seed in
      match o.Dst.Sched.failure with
      | Some (Dst.Sched.Thread_raised { exn = San.Violation r; _ }) ->
          checkb "rule is stale-cache-hit" true
            (r.San.rule = San.Stale_cache_hit);
          caught := true
      | Some _ | None -> ()
  done;
  checkb "some schedule served the stale hit" true !caught

let () =
  Alcotest.run "service"
    [
      (* The "2pc" names in this list predate the one-transaction multi;
         they are kept so each case's results line up across runs. *)
      ( "routing",
        [
          Alcotest.test_case "deterministic and balanced" `Quick
            test_routing_deterministic;
          Alcotest.test_case "create validates" `Quick test_create_validates;
        ] );
      ( "spec json",
        [
          Alcotest.test_case "round trip" `Quick test_spec_json_roundtrip;
          Alcotest.test_case "label checked" `Quick
            test_spec_json_label_checked;
          Alcotest.test_case "sharding suffix" `Quick
            test_spec_label_sharding_suffix;
          Alcotest.test_case "front-layer knobs" `Quick test_spec_layer_knobs;
        ] );
      ( "admission",
        [
          Alcotest.test_case "late low sheds" `Quick
            test_admission_sheds_late_low;
          Alcotest.test_case "low on target runs" `Quick
            test_admission_runs_on_target;
          Alcotest.test_case "late high runs deferred" `Quick
            test_admission_defers_late_high;
          Alcotest.test_case "on-time after a shed runs" `Quick
            test_admission_no_latch;
        ] );
      ( "pool",
        [
          Alcotest.test_case "async submit, spawnless" `Quick
            test_pool_async_spawnless;
          Alcotest.test_case "fused drain" `Quick test_pool_fused_drain;
          Alcotest.test_case "full ring drains" `Quick
            test_pool_full_ring_drains;
          Alcotest.test_case "fusion keeps FIFO" `Quick test_pool_fusion_fifo;
          Alcotest.test_case "idle footprint" `Quick test_pool_idle_footprint;
          Alcotest.test_case "a raising batch re-queues its requests" `Quick
            test_pool_raising_batch_requeues;
          Alcotest.test_case "combining end to end" `Quick
            test_pool_combining_end_to_end;
        ] );
      ( "hotcache",
        [
          Alcotest.test_case "unit semantics" `Quick test_hotcache_unit;
          Alcotest.test_case "service hits and invalidation" `Quick
            test_service_cache_hits;
          Alcotest.test_case "one lookup per miss" `Quick
            test_cache_one_lookup_per_miss;
          Alcotest.test_case "2pc invalidates both shards" `Quick
            test_multi_invalidates_both_shards;
          Alcotest.test_case "stale-cache bug caught" `Quick
            test_stale_cache_bug_caught;
          QCheck_alcotest.to_alcotest qcheck_cached_matches_model;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "scan spans shards" `Quick test_scan_spans_shards;
          Alcotest.test_case "batch fuses per shard" `Quick
            test_batch_fuses_per_shard;
        ] );
      ( "2pc",
        [
          Alcotest.test_case "commits across shards" `Quick
            (fun () ->
              List.iter test_multi_commits_across_shards
                Factories.Spec.
                  [ Slist; Dlist; Hashset; Bst_int; Bst_ext; Skiplist ]);
          Alcotest.test_case "aborts without effect" `Quick
            test_multi_aborts_without_effect;
          Alcotest.test_case "rejects bad shapes" `Quick
            test_multi_rejects_bad_shapes;
          Alcotest.test_case "aborts leave no EBR announcement" `Quick
            test_multi_aborts_release_ebr;
        ] );
      ( "as store",
        [
          Alcotest.test_case "driver drives the service" `Quick
            test_driver_drives_service;
        ] );
      ( "dst",
        [
          Alcotest.test_case "apply fault rolls back" `Quick
            test_apply_fault_rolls_back;
          Alcotest.test_case "serial multi aborts without effect" `Quick
            test_serial_multi_aborts_without_effect;
          Alcotest.test_case "kill mid-multi" `Quick test_kill_mid_multi;
          Alcotest.test_case "kill mid-multi, finalize victim" `Quick
            test_kill_mid_multi_finalize;
          Alcotest.test_case "serializability oracle" `Quick
            test_serial_oracle;
          Alcotest.test_case "queue drains vs submissions" `Quick
            test_dst_pool_drain;
          Alcotest.test_case "queue drains vs 2pc gates" `Quick
            test_dst_pool_vs_multi;
          Alcotest.test_case "two clients combine on one shard" `Quick
            test_dst_pool_combining;
          Alcotest.test_case "cache race is clean" `Quick
            test_dst_cache_race_clean;
          Alcotest.test_case "cache race bug caught" `Quick
            test_dst_cache_race_bug_caught;
        ] );
    ]
