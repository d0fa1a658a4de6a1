(* @service-smoke: a fast push-gate for the sharded service layer.

   Three deterministic checks, no alcotest harness:
   1. a DST run that kills a thread inside a cross-shard multi, after its
      remove has run: with no recovery step, the contents stay the
      initial set and the pool accounting stays precise;
   2. an injected allocation failure inside a multi leaves the contents
      unchanged and leaks no pool slot;
   3. a short real-concurrency run of the service packed as a Store
      through the benchmark driver with the serialization check on. *)

open Harness

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s); exit 1) fmt

let spec ~shards =
  Factories.Spec.v ~window:4 ~scatter:false ~shards ~fuse:true
    Factories.Spec.Slist
    (Structs.Mode.Rr_kind (module Rr.V))

let key_in_shard svc ~shard ~avoid =
  let rec go k =
    if k > 100_000 then die "no key routes to shard %d" shard
    else if Service.shard_of_key svc k = shard && not (List.mem k avoid) then k
    else go (k + 1)
  in
  go 1

(* Live pool slots after a full drain must equal the contents. *)
let check_accounting svc ~what =
  (match Service.check svc with
  | Ok () -> ()
  | Error e -> die "%s: check: %s" what e);
  Service.drain svc;
  match Service.pool_live svc with
  | Some 1 -> ()
  | Some n -> die "%s: pool live = %d, want 1" what n
  | None -> die "no pool accounting"

let kill_mid_multi () =
  Dst.Inject.clear ();
  Tm.Thread.reset_ids_for_testing ();
  let svc = Service.create (spec ~shards:2) in
  let kept = key_in_shard svc ~shard:0 ~avoid:[] in
  let fresh = key_in_shard svc ~shard:1 ~avoid:[ kept ] in
  let init () =
    Tm.Thread.with_registered (fun thread ->
        ignore (Service.exec svc ~thread (Store.Insert kept)))
  in
  let victim () =
    Tm.Thread.with_registered (fun thread ->
        (* the remove has run; park at the insert's allocation *)
        Dst.Inject.arm Dst.Mp_alloc (Dst.Inject.Delay 1_000_000);
        ignore
          (Service.multi svc ~thread
             [| Store.Remove kept; Store.Insert fresh |]))
  in
  let o = Dst.Sched.run ~budget:5_000 ~init (Dst.Sched.Random 1) [ victim ] in
  if not o.Dst.Sched.hung then die "kill scenario did not hang as designed";
  if Dst.Sched.failed o then die "kill scenario failed before the kill";
  Dst.Inject.clear ();
  if Service.contents svc <> [ kept ] then
    die "the killed multi left a partial write";
  check_accounting svc ~what:"after the kill";
  print_endline "service-smoke: kill inside a multi -> nothing applied, no leak"

let alloc_fault_in_multi () =
  Dst.Inject.clear ();
  Tm.Thread.reset_ids_for_testing ();
  let svc = Service.create (spec ~shards:2) in
  let kept = key_in_shard svc ~shard:0 ~avoid:[] in
  let fresh = key_in_shard svc ~shard:1 ~avoid:[ kept ] in
  let init () =
    Tm.Thread.with_registered (fun thread ->
        ignore (Service.exec svc ~thread (Store.Insert kept)))
  in
  let body () =
    Tm.Thread.with_registered (fun thread ->
        Dst.Inject.arm Dst.Mp_alloc Dst.Inject.Fail;
        match
          Service.multi svc ~thread [| Store.Remove kept; Store.Insert fresh |]
        with
        | _ -> die "armed allocation unexpectedly succeeded"
        | exception Dst.Injected Dst.Mp_alloc -> ())
  in
  let o = Dst.Sched.run ~init (Dst.Sched.Random 1) [ body ] in
  Dst.Inject.clear ();
  if Dst.Sched.failed o then die "fault scenario crashed";
  if Service.contents svc <> [ kept ] then
    die "the faulted multi left a partial write";
  check_accounting svc ~what:"after the fault";
  print_endline
    "service-smoke: allocation fault inside a multi -> nothing applied, no \
     leak"

let driver_run () =
  let svc = Service.create (spec ~shards:4) in
  let w =
    Workload.spec ~key_bits:6 ~lookup_pct:40 ~threads:2 ~ops_per_thread:2000 ()
  in
  let r = Driver.run ~verify:true w (Service.as_store svc) in
  (match r.Driver.verdict with
  | Ok () -> ()
  | Error e -> die "driver verdict on %s: %s" (Service.label svc) e);
  Printf.printf "service-smoke: driver run on %s serial-ok\n%!"
    (Service.label svc)

let () =
  kill_mid_multi ();
  alloc_fault_in_multi ();
  driver_run ();
  print_endline "service-smoke OK"
