open Harness
module Spec = Factories.Spec
module Json = Telemetry.Json

(* ---- churn-phase scripts ---- *)

type shape = Grow | Shrink | Storm of float | Mix of int
type phase = { shape : shape; threads : int; ops : int }

let shape_name = function
  | Grow -> "grow"
  | Shrink -> "shrink"
  | Storm _ -> "storm"
  | Mix _ -> "mix"

let print_phase p =
  let base = Printf.sprintf "%s:%dx%d" (shape_name p.shape) p.threads p.ops in
  match p.shape with
  | Storm theta -> Printf.sprintf "%s@%g" base theta
  | Mix pct -> Printf.sprintf "%s@%d" base pct
  | Grow | Shrink -> base

let print_phases ps = String.concat "," (List.map print_phase ps)

let parse_phase s =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let* name, rest =
    match String.index_opt s ':' with
    | Some i ->
        Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> err "phase %S: missing ':'" s
  in
  let rest, arg =
    match String.index_opt rest '@' with
    | Some i ->
        ( String.sub rest 0 i,
          Some (String.sub rest (i + 1) (String.length rest - i - 1)) )
    | None -> (rest, None)
  in
  let* threads, ops =
    match String.split_on_char 'x' rest with
    | [ t; o ] -> (
        match (int_of_string_opt t, int_of_string_opt o) with
        | Some t, Some o when t >= 1 && o >= 1 -> Ok (t, o)
        | _ -> err "phase %S: counts must be THREADSxOPS, both >= 1" s)
    | _ -> err "phase %S: expected THREADSxOPS after ':'" s
  in
  let* shape =
    match (name, arg) with
    | "grow", None -> Ok Grow
    | "shrink", None -> Ok Shrink
    | "storm", Some a -> (
        match float_of_string_opt a with
        | Some th when th >= 0. -> Ok (Storm th)
        | _ -> err "phase %S: bad theta %S" s a)
    | "storm", None -> Ok (Storm 0.99)
    | "mix", Some a -> (
        match int_of_string_opt a with
        | Some p when p >= 0 && p <= 100 -> Ok (Mix p)
        | _ -> err "phase %S: lookup pct must be 0..100" s)
    | "mix", None -> Ok (Mix 50)
    | ("grow" | "shrink"), Some _ -> err "phase %S: %s takes no '@'" s name
    | _ -> err "phase %S: unknown shape %S" s name
  in
  Ok { shape; threads; ops }

let parse_phases s =
  let rec go acc = function
    | [] -> if acc = [] then Error "empty phase script" else Ok (List.rev acc)
    | p :: rest -> (
        match parse_phase p with
        | Ok ph -> go (ph :: acc) rest
        | Error _ as e -> e)
  in
  go [] (List.filter (fun p -> p <> "") (String.split_on_char ',' s))

(* (insert_pct, remove_pct); the remainder is lookups *)
let mix_of_shape = function
  | Grow -> (70, 10)
  | Shrink -> (10, 70)
  | Storm _ -> (30, 30)
  | Mix lookup_pct ->
      let w = 100 - lookup_pct in
      (w - (w / 2), w / 2)

let gen_ops ~seed ~key_bits ~phase_index ~thread phase =
  let range = 1 lsl key_bits in
  let rng =
    Workload.Rng.create
      ~seed:(seed lxor (0x50A5 * (phase_index + 1)))
      ~thread:(thread + 1)
  in
  let zipf =
    match phase.shape with
    | Storm theta ->
        Some (Workload.Zipf.create ~seed:(seed + (31 * phase_index)) ~theta range)
    | Grow | Shrink | Mix _ -> None
  in
  let ins_pct, rem_pct = mix_of_shape phase.shape in
  Array.init phase.ops (fun _ ->
      let key =
        match zipf with
        | Some z -> Workload.Zipf.draw z rng
        | None -> 1 + Workload.Rng.int rng range
      in
      let roll = Workload.Rng.int rng 100 in
      if roll < ins_pct then Store.Insert key
      else if roll < ins_pct + rem_pct then Store.Remove key
      else Store.Get key)

let repro ~scenario ~seed ?key_bits ?phases spec =
  let spec_s = Json.to_string (Spec.to_json spec) in
  let bits =
    match key_bits with
    | Some b -> Printf.sprintf " --key-bits %d" b
    | None -> ""
  in
  match phases with
  | Some ps ->
      Printf.sprintf "main.exe soak --seed %d%s --phases %s --spec '%s'" seed
        bits (print_phases ps) spec_s
  | None ->
      Printf.sprintf "main.exe soak --scenario %s --seed %d%s --spec '%s'"
        scenario seed bits spec_s

(* ---- the backlog gauge ---- *)

let g_last = Atomic.make 0
let g_hwm = Atomic.make 0
let g_backlog = Atomic.make 0

let backlog_gauge () =
  if
    Telemetry.enabled ()
    && not (Telemetry.Gauges.registered ~group:"soak" ~name:"backlog")
  then
    Telemetry.Gauges.register ~group:"soak" ~name:"backlog" (fun () ->
        [
          ("live", float_of_int (Atomic.get g_last));
          ("live_hwm", float_of_int (Atomic.get g_hwm));
          ("quiesced_backlog", float_of_int (Atomic.get g_backlog));
        ])

let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

(* ---- churn runner ---- *)

type phase_result = {
  p_shape : string;
  p_threads : int;
  p_ops : int;
  p_elapsed_s : float;
  p_throughput : float;
  p_slo_violations : int;
  p_live_hwm : int;
  p_backlog : int;
}

type churn_result = {
  c_label : string;
  c_phases : phase_result list;
  c_san : (string * int) list;
  c_serial : (unit, string) result Stdlib.Option.t;
  c_check : (unit, string) result;
  c_leaked : int;
  c_repro : string;
}

let churn_failed c =
  let fails =
    List.filter_map Fun.id
      [
        (match c.c_check with
        | Ok () -> None
        | Error e -> Some ("structural check: " ^ e));
        (match c.c_serial with
        | Some (Error e) -> Some ("serial check: " ^ e)
        | _ -> None);
        (if c.c_leaked <> 0 then
           Some (Printf.sprintf "%d pool slots unaccounted for" c.c_leaked)
         else None);
      ]
  in
  match fails with
  | [] -> None
  | fs -> Some (String.concat "; " fs ^ "\n  repro: " ^ c.c_repro)

let run_churn ?service ?(verify = true) ?(slo_us = 1000) ~seed ~key_bits
    ~phases spec =
  let use_service =
    match service with
    | Some b -> b
    | None -> ( match spec.Spec.shards with Some n -> n > 1 | None -> false)
  in
  let store, svc =
    if use_service then
      let svc = Service.create spec in
      (Service.as_store svc, Some svc)
    else ((Factories.make spec).Factories.make (), None)
  in
  backlog_gauge ();
  San.reset ();
  San.set_enabled ~mode:San.Count true;
  let repro_line = repro ~scenario:"churn" ~seed ~key_bits ~phases spec in
  let live () = Option.value (Store.pool_live store) ~default:0 in
  (* With the pool on, every churn op flows through the async
     path — bounded queue, fused drain, hot cache — instead of the
     synchronous gate, so the soak exercises the same machinery the
     service load bench measures. submit's default High priority is
     deliberate: a shed would answer [Overload] with no stamp and the
     serial check has nothing to linearize. *)
  let pooled_svc =
    match svc with Some s when Service.pooled s -> Some s | _ -> None
  in
  let exec_op ~thread op =
    match pooled_svc with
    | Some s -> (Service.await s (Service.submit s ~thread [| op |])).(0)
    | None -> Store.exec store ~thread op
  in
  let live_empty = live () in
  let tid = Tm.Thread.id () in
  let range = 1 lsl key_bits in
  let initial = List.init (range / 2) (fun i -> (2 * i) + 1) in
  List.iter (fun k -> ignore (Store.insert store ~thread:tid k)) initial;
  let live0 = live () and size0 = Store.size store in
  let do_verify = verify && Store.stamped store in
  let slo_ns = slo_us * 1000 in
  let logs = ref [] in
  let run_phase pi ph =
    let hwm = Atomic.make (live ()) in
    let slo = Atomic.make 0 in
    let worker d ~thread =
      let ops = gen_ops ~seed ~key_bits ~phase_index:pi ~thread:d ph in
      fun () ->
        let replies =
          Array.mapi
            (fun i op ->
              let t_op = Telemetry.now_ns () in
              let reply = exec_op ~thread op in
              if Telemetry.now_ns () - t_op > slo_ns then Atomic.incr slo;
              if i land 15 = 0 then begin
                let lv = live () in
                Atomic.set g_last lv;
                atomic_max hwm lv;
                atomic_max g_hwm lv
              end;
              reply)
            ops
        in
        (* thread leave: the quiescence hook (leaves the epoch, clears
           hazard slots) before the id is recycled for the next phase's
           workers *)
        Store.finalize_thread store ~thread;
        if do_verify then Array.map2 Serial_check.of_reply ops replies
        else [||]
    in
    let elapsed, outs = Driver.timed ph.threads worker in
    if do_verify then logs := !logs @ outs;
    (* quiescence: every worker has left; what a full drain still frees is
       exactly the reclaimer's leftover backlog for this phase *)
    let pre = live () in
    Store.drain store;
    let backlog = pre - live () in
    Atomic.set g_backlog backlog;
    let total = ph.threads * ph.ops in
    {
      p_shape = print_phase ph;
      p_threads = ph.threads;
      p_ops = total;
      p_elapsed_s = elapsed;
      p_throughput = (if elapsed > 0. then float_of_int total /. elapsed else 0.);
      p_slo_violations = Atomic.get slo;
      p_live_hwm = Atomic.get hwm;
      p_backlog = backlog;
    }
  in
  let phase_results = List.mapi run_phase phases in
  (* Before the pool is held to account: shutdown runs anything still
     queued, and the extra drain returns whatever the client threads'
     finalizers released. Without it the leak oracle would blame their
     deferred frees. Shutdown is a no-op for unpooled services. *)
  Option.iter
    (fun s ->
      Service.shutdown s;
      Service.drain s)
    svc;
  let san = San.violations () in
  San.set_enabled false;
  let serial =
    if do_verify then Some (Serial_check.check ~initial !logs) else None
  in
  let check =
    match svc with Some s -> Service.check s | None -> Store.check store
  in
  (* Leak oracle: only when the prefill showed an exact nodes-per-key
     ratio (lists, hash sets, skip lists — not the external BST with its
     router nodes) can the final live count be predicted from the final
     size. *)
  let size_f = Store.size store and live_f = live () in
  let leaked =
    if size0 > 0 && (live0 - live_empty) mod size0 = 0 then
      let npk = (live0 - live_empty) / size0 in
      live_f - live_empty - (npk * size_f)
    else 0
  in
  {
    c_label = Store.name store;
    c_phases = phase_results;
    c_san = san;
    c_serial = serial;
    c_check = check;
    c_leaked = leaked;
    c_repro = repro_line;
  }

(* ---- DST adversaries ---- *)

(* Both scenarios pin the traversal knobs (small fixed windows, no
   scatter/adaptive jitter, no fusion) so the delay-armed yield site is
   reached at a deterministic point of the schedule; the reclaimer under
   test comes from the caller's spec unchanged. *)
let pin_traversal spec =
  {
    spec with
    Spec.window = Some 2;
    scatter = Some false;
    adaptive = Some false;
    fusion = Some 1;
  }

type stall_result = {
  s_label : string;
  s_samples : int array;
  s_hwm : int;
  s_final_backlog : int;
  s_error : string option;
  s_repro : string;
}

type crash_result = {
  k_label : string;
  k_scenario : string;
  k_serial_ok : bool;
  k_leaked : int;
  k_error : string option;
  k_repro : string;
}

let combine_errors ~repro_line errors =
  match List.rev errors with
  | [] -> None
  | es -> Some (String.concat "; " es ^ "\n  repro: " ^ repro_line)

let sched_failure_msg (o : Dst.Sched.outcome) =
  match o.Dst.Sched.failure with
  | Some f -> [ Format.asprintf "%a" Dst.Sched.pp_failure f ]
  | None -> []

let stalled_reader ?(rounds = 32) ?(keys = 40) ~seed spec =
  let spec = pin_traversal spec in
  let repro_line = repro ~scenario:"stalled-reader" ~seed spec in
  Dst.Inject.clear ();
  Tm.Thread.reset_ids_for_testing ();
  let store = (Factories.make spec).Factories.make () in
  let live () = Option.value (Store.pool_live store) ~default:0 in
  let b0 = ref 0 in
  let init () =
    Tm.Thread.with_registered (fun thread ->
        for k = 1 to keys do
          ignore (Store.insert store ~thread k)
        done);
    b0 := live ()
  in
  let victim_tid = ref (-1) and churn_tid = ref (-1) in
  let reader () =
    Tm.Thread.with_registered (fun thread ->
        victim_tid := thread;
        (* ltid 0 only: pass two hand-offs mid-traversal, then park until
           the budget kills us — a reader wedged with its epoch announced
           (EBR) or holding one revocable reservation (RR) *)
        Dst.Inject.arm ~thread:0 ~after:2 ~times:1 Dst.Hoh_handoff
          (Dst.Inject.Delay 1_000_000);
        ignore (Store.get store ~thread keys))
  in
  let samples = ref [] in
  let churn () =
    Tm.Thread.with_registered (fun thread ->
        churn_tid := thread;
        for _ = 1 to rounds do
          (* one retire + one alloc per round, net zero live nodes: any
             growth of the trajectory is reclamation debt, not data *)
          ignore (Store.remove store ~thread 1);
          ignore (Store.insert store ~thread 1);
          samples := (live () - !b0) :: !samples
        done)
  in
  let o =
    Dst.Sched.run
      ~budget:(20_000 + (rounds * 1_000))
      ~init (Dst.Sched.Random seed) [ reader; churn ]
  in
  let errors = ref (List.rev (sched_failure_msg o)) in
  if not o.Dst.Sched.hung then
    errors := "reader did not park (run completed)" :: !errors;
  let samples = Array.of_list (List.rev !samples) in
  if Array.length samples < rounds then
    errors :=
      Printf.sprintf "budget exhausted mid-churn: %d/%d rounds"
        (Array.length samples) rounds
      :: !errors;
  (* the killed reader never ran its own quiescence hook; finalize it (and
     the churn thread) before holding the pool to account *)
  let _tid = Tm.Thread.id () in
  if !victim_tid >= 0 then Store.finalize_thread store ~thread:!victim_tid;
  if !churn_tid >= 0 then Store.finalize_thread store ~thread:!churn_tid;
  let pre = live () in
  Store.drain store;
  let final_backlog = pre - live () in
  (match Store.check store with
  | Ok () -> ()
  | Error e -> errors := ("post-drain check: " ^ e) :: !errors);
  let leaked = live () - !b0 in
  if leaked <> 0 then
    errors :=
      Printf.sprintf "%d pool slots unaccounted after drain" leaked :: !errors;
  Dst.Inject.clear ();
  {
    s_label = Store.name store;
    s_samples = samples;
    s_hwm = Array.fold_left max 0 samples;
    s_final_backlog = final_backlog;
    s_error = combine_errors ~repro_line !errors;
    s_repro = repro_line;
  }

let crash_mid_commit ~seed spec =
  let spec = pin_traversal spec in
  let repro_line = repro ~scenario:"crash-commit" ~seed spec in
  Dst.Inject.clear ();
  Tm.Thread.reset_ids_for_testing ();
  let store = (Factories.make spec).Factories.make () in
  let live () = Option.value (Store.pool_live store) ~default:0 in
  let initial = List.init 8 (fun i -> 2 * (i + 1)) in
  let b0 = ref 0 in
  let init () =
    Tm.Thread.with_registered (fun thread ->
        List.iter (fun k -> ignore (Store.insert store ~thread k)) initial);
    b0 := live ()
  in
  let victim_tid = ref (-1) in
  let victim () =
    Tm.Thread.with_registered (fun thread ->
        victim_tid := thread;
        (* ltid 0 only: park at the remove's first writing commit —
           buffered writes staged, nothing published — until the budget
           kills us. Under RR-V the traversal windows commit read-only and
           never reach this point, so the first one is the unlink. *)
        Dst.Inject.arm ~thread:0 ~after:0 ~times:1 Dst.Tm_commit
          (Dst.Inject.Delay 1_000_000);
        ignore (Store.remove store ~thread 8))
  in
  let log = ref [] in
  let survivor () =
    Tm.Thread.with_registered (fun thread ->
        for i = 1 to 10 do
          let k = 100 + i in
          let r1 = Store.insert store ~thread k in
          log := Serial_check.of_reply (Store.Insert k) r1 :: !log;
          let r2 = Store.get store ~thread 4 in
          log := Serial_check.of_reply (Store.Get 4) r2 :: !log;
          let r3 = Store.remove store ~thread k in
          log := Serial_check.of_reply (Store.Remove k) r3 :: !log
        done;
        Store.finalize_thread store ~thread)
  in
  let o =
    Dst.Sched.run ~budget:30_000 ~init (Dst.Sched.Random seed)
      [ victim; survivor ]
  in
  let errors = ref (List.rev (sched_failure_msg o)) in
  if not o.Dst.Sched.hung then
    errors := "victim did not park mid-commit (run completed)" :: !errors;
  let _tid = Tm.Thread.id () in
  if !victim_tid >= 0 then Store.finalize_thread store ~thread:!victim_tid;
  (match Store.check store with
  | Ok () -> ()
  | Error e -> errors := ("post-kill check: " ^ e) :: !errors);
  (* the victim's remove never committed: the survivor's history must
     serialize against the *untouched* initial contents *)
  let serial =
    Serial_check.check ~initial [ Array.of_list (List.rev !log) ]
  in
  (match serial with
  | Ok () -> ()
  | Error e -> errors := ("serial check: " ^ e) :: !errors);
  Store.drain store;
  let leaked = live () - !b0 in
  if leaked <> 0 then
    errors := Printf.sprintf "%d pool slots leaked" leaked :: !errors;
  Dst.Inject.clear ();
  {
    k_label = Store.name store;
    k_scenario = "crash-commit";
    k_serial_ok = serial = Ok ();
    k_leaked = leaked;
    k_error = combine_errors ~repro_line !errors;
    k_repro = repro_line;
  }

let key_in_shard svc ~shard ~avoid =
  let rec go k =
    if k > 100_000 then failwith "no key routes to shard"
    else if Service.shard_of_key svc k = shard && not (List.mem k avoid) then k
    else go (k + 1)
  in
  go 1

let crash_mid_multi ~seed spec =
  let repro_line = repro ~scenario:"crash-multi" ~seed spec in
  Dst.Inject.clear ();
  Tm.Thread.reset_ids_for_testing ();
  let svc = Service.create spec in
  let label = Service.label svc in
  let fail msg =
    {
      k_label = label;
      k_scenario = "crash-multi";
      k_serial_ok = false;
      k_leaked = 0;
      k_error = Some (msg ^ "\n  repro: " ^ repro_line);
      k_repro = repro_line;
    }
  in
  if Service.shards svc < 2 then fail "spec must shard across >= 2 shards"
  else begin
    let live () = Option.value (Service.pool_live svc) ~default:0 in
    let kept = key_in_shard svc ~shard:0 ~avoid:[] in
    let fresh = key_in_shard svc ~shard:1 ~avoid:[ kept ] in
    let b0 = ref 0 in
    let init () =
      Tm.Thread.with_registered (fun thread ->
          ignore (Service.exec svc ~thread (Store.Insert kept)));
      b0 := live ()
    in
    let victim_tid = ref (-1) in
    let victim () =
      Tm.Thread.with_registered (fun thread ->
          victim_tid := thread;
          (* the remove has run inside the multi's transaction; park at
             the insert's allocation until the budget kills us *)
          Dst.Inject.arm ~thread:0 ~times:1 Dst.Mp_alloc
            (Dst.Inject.Delay 1_000_000);
          ignore
            (Service.multi svc ~thread
               [| Store.Remove kept; Store.Insert fresh |]))
    in
    let o = Dst.Sched.run ~budget:5_000 ~init (Dst.Sched.Random seed) [ victim ] in
    let errors = ref (List.rev (sched_failure_msg o)) in
    if not o.Dst.Sched.hung then
      errors := "victim did not park mid-multi (run completed)" :: !errors;
    let _tid = Tm.Thread.id () in
    (* no recovery step: the killed transaction never published *)
    let contents_ok = Service.contents svc = [ kept ] in
    if not contents_ok then
      errors := "the killed multi left a partial write" :: !errors;
    (match Service.check svc with
    | Ok () -> ()
    | Error e -> errors := ("post-kill check: " ^ e) :: !errors);
    (* the victim's quiescence hook (and the full service drain) must
       return whatever it left deferred rather than leak it *)
    if !victim_tid >= 0 then Service.finalize_thread svc ~thread:!victim_tid;
    Service.drain svc;
    let leaked = live () - !b0 in
    if leaked <> 0 then
      errors :=
        Printf.sprintf "%d pool slots leaked after the kill" leaked :: !errors;
    Dst.Inject.clear ();
    {
      k_label = label;
      k_scenario = "crash-multi";
      k_serial_ok = contents_ok;
      k_leaked = leaked;
      k_error = combine_errors ~repro_line !errors;
      k_repro = repro_line;
    }
  end
