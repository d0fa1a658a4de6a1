(* Fast push-gate for the pool layer, whose queues are drained by the
   clients that await them.

   Three checks, all cheap enough for every push:

   1. Determinism: a seeded script of submissions and seed-chosen
      [try_await] polls (each drains at most one fused batch) replays
      to the identical outcome trace, counters and final contents — the
      queue, fusion and cache layers add no hidden nondeterminism when
      driven single-threaded.
   2. Serializability: two client domains pipeline async submissions
      (hot cache on), drain the shared queues by awaiting, and log every
      reply at its commit stamp; the merged history must replay against
      the sequential set model. Cached hits log the stamp of the lookup
      that populated them, so a stale hit would surface as a model
      divergence.
   3. Accounting: after each client's thread finalizer, shutdown and a
      full drain, live pool slots equal the surviving contents and
      nothing has leaked. *)

open Harness

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let spec () =
  Factories.Spec.v ~window:4 ~scatter:false ~shards:2 ~fuse:true ~pool:true
    ~hotcache:true Factories.Spec.Slist
    (Structs.Mode.Rr_kind (module Rr.V))

(* ---- 1. single-client determinism ---- *)

let single_client_trace seed =
  Tm.Thread.reset_ids_for_testing ();
  let svc = Service.create (spec ()) in
  let rng = Random.State.make [| seed |] in
  let buf = Buffer.create 1024 in
  Tm.Thread.with_registered (fun thread ->
      let redeem t =
        let rec go () =
          match Service.try_await svc t with Some rs -> rs | None -> go ()
        in
        go ()
      in
      let pending = Queue.create () in
      for _ = 1 to 400 do
        let key = 1 + Random.State.int rng 32 in
        let op =
          match Random.State.int rng 10 with
          | 0 | 1 | 2 -> Store.Insert key
          | 3 | 4 -> Store.Remove key
          | _ -> Store.Get key
        in
        let t = Service.submit svc ~thread [| op |] in
        Queue.add t pending;
        (* interleave polls that may drain, seed-determined *)
        if Random.State.int rng 3 = 0 then ignore (Service.try_await svc t);
        if Queue.length pending >= 6 then
          Array.iter
            (fun (r : Store.reply) ->
              Buffer.add_string buf
                (match r.Store.outcome with
                | Store.Inserted -> "i"
                | Store.Duplicate -> "d"
                | Store.Removed -> "r"
                | Store.Missing -> "m"
                | Store.Found -> "f"
                | Store.Absent -> "a"
                | _ -> "?"))
            (redeem (Queue.pop pending))
      done;
      while not (Queue.is_empty pending) do
        ignore (redeem (Queue.pop pending))
      done;
      Service.shutdown svc;
      List.iter
        (fun (k, v) -> Buffer.add_string buf (Printf.sprintf ";%s=%d" k v))
        (Service.counters svc);
      Service.finalize_thread svc ~thread;
      Service.drain svc;
      List.iter
        (fun k -> Buffer.add_string buf (Printf.sprintf ",%d" k))
        (Service.contents svc);
      (match Service.check svc with
      | Ok () -> ()
      | Error e -> fail "pool-smoke: single-client check failed: %s" e);
      Buffer.contents buf)

let determinism () =
  let a = single_client_trace 42 and b = single_client_trace 42 in
  if a <> b then
    fail "pool-smoke: single-client replay diverged (%d vs %d trace bytes)"
      (String.length a) (String.length b);
  Printf.printf "pool-smoke determinism: %d trace bytes, replay identical\n%!"
    (String.length a)

(* ---- 2 + 3. client domains, serial oracle, accounting ---- *)

let clients () =
  Tm.Thread.reset_ids_for_testing ();
  let svc = Service.create (spec ()) in
  let n_clients = 2 and per_client = 1500 in
  let logs = Array.make n_clients [||] in
  let client c =
    Tm.Thread.with_registered (fun thread ->
        let rng = Random.State.make [| 77; c |] in
        let acc = ref [] in
        let pending = Queue.create () in
        let redeem (op, t) =
          acc := Serial_check.of_reply op (Service.await svc t).(0) :: !acc
        in
        for _ = 1 to per_client do
          let key = 1 + Random.State.int rng 48 in
          let op =
            match Random.State.int rng 10 with
            | 0 | 1 -> Store.Insert key
            | 2 | 3 -> Store.Remove key
            | _ -> Store.Get key
          in
          Queue.add (op, Service.submit svc ~thread [| op |]) pending;
          if Queue.length pending >= 8 then redeem (Queue.pop pending)
        done;
        while not (Queue.is_empty pending) do
          redeem (Queue.pop pending)
        done;
        logs.(c) <- Array.of_list (List.rev !acc);
        Service.finalize_thread svc ~thread)
  in
  let doms =
    Array.init n_clients (fun c -> Domain.spawn (fun () -> client c))
  in
  Array.iter Domain.join doms;
  Service.shutdown svc;
  (match Service.check svc with
  | Ok () -> ()
  | Error e -> fail "pool-smoke: post-shutdown check failed: %s" e);
  (match Serial_check.check ~initial:[] (Array.to_list logs) with
  | Ok () -> ()
  | Error e -> fail "pool-smoke: serial check failed: %s" e);
  let counters = Service.counters svc in
  let drained = List.assoc "drained_requests" counters in
  let hits = List.assoc "cache_hits" counters in
  if drained = 0 then fail "pool-smoke: the clients drained nothing";
  Service.drain svc;
  let live_expected = List.length (Service.contents svc) in
  (match Service.pool_live svc with
  | Some live when live = live_expected -> ()
  | Some live ->
      fail "pool-smoke: pool accounting leak: %d live vs %d contents" live
        live_expected
  | None -> fail "pool-smoke: expected pool accounting");
  (match Service.leaked svc with
  | Some 0 | None -> ()
  | Some n -> fail "pool-smoke: %d leaked slots after drain" n);
  Printf.printf
    "pool-smoke clients: %d ops over %d clients | drained %d | cache hits %d \
     | serial ok | live %d = contents | leaked 0\n\
     %!"
    (n_clients * per_client) n_clients drained hits live_expected

let () =
  determinism ();
  clients ();
  print_endline "pool-smoke OK: determinism, serial oracle, zero-leak accounting"
