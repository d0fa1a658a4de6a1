(* Thread-sweep scalability baseline (`main.exe scaling`).

   The paper's whole argument is that hand-over-hand transactions scale
   where single-transaction traversals do not (Figs. 2-7), so the repo
   needs a reproducible perf trajectory: one sweep over 1..N domains x
   {slist, bst-int, skiplist} x the RR variants x lookup mixes, written to
   [BENCH_scaling.json] under the [hohtx-bench/1] schema so successive
   builds can be diffed mechanically. `main.exe scaling-smoke` (the
   @bench-smoke dune alias) runs a 2-thread miniature of the same sweep
   and validates the emitted file against the schema. *)

open Harness
module Spec = Factories.Spec
module Json = Telemetry.Json

let schema = "hohtx-bench/1"
let default_out = "BENCH_scaling.json"

type params = {
  quick : bool;
  verify : bool;
  threads_list : int list;
  json_stdout : bool;  (** also print the report to stdout *)
  out : string;  (** path of the emitted JSON file *)
}

(* One swept configuration: a structure/kind/mix triple; the thread count
   varies along the curve. Key ranges are sized so the default prefill
   (50%) yields structures long/deep enough for multi-window traversals. *)
type config = {
  structure : Spec.structure;
  kind : Structs.Mode.kind;
  lookup_pct : int;
  key_bits : int;
  adaptive : bool;  (** contention-adaptive window controller *)
}

let structure_key_bits = function
  | Spec.Slist | Spec.Dlist -> 8
  | Spec.Bst_int | Spec.Bst_ext -> 12
  | Spec.Skiplist -> 10
  | Spec.Hashset -> 10

let sweep_configs ?(adaptives = [ false ]) ~structures ~kinds ~mixes () =
  List.concat_map
    (fun structure ->
      List.concat_map
        (fun (_, kind) ->
          List.concat_map
            (fun lookup_pct ->
              List.map
                (fun adaptive ->
                  {
                    structure;
                    kind;
                    lookup_pct;
                    key_bits = structure_key_bits structure;
                    adaptive;
                  })
                adaptives)
            mixes)
        kinds)
    structures

let run_point p (c : config) ~ops_per_thread ~threads =
  let window = Factories.best_window ~threads in
  let handle =
    (Factories.make (Spec.v ~window ~adaptive:c.adaptive c.structure c.kind))
      .Factories.make ()
  in
  let spec =
    Workload.spec ~key_bits:c.key_bits ~lookup_pct:c.lookup_pct ~threads
      ~ops_per_thread ()
  in
  let r = Driver.run ~verify:p.verify spec handle in
  (match r.Driver.verdict with
  | Ok () -> ()
  | Error e ->
      Printf.eprintf "!! scaling [%s %s %d%%]: %s\n%!"
        (Spec.structure_name c.structure)
        (Structs.Mode.kind_name c.kind)
        c.lookup_pct e);
  let tm = r.Driver.tm in
  ( r,
    Json.Obj
      [
        ("threads", Json.Int threads);
        ("window", Json.Int window);
        ("throughput", Json.Float r.Driver.throughput);
        ("elapsed_s", Json.Float r.Driver.elapsed_s);
        ("total_ops", Json.Int r.Driver.total_ops);
        ("started", Json.Int (Tm.Stats.started tm));
        ("aborts", Json.Int (Tm.Stats.total_aborts tm));
        ("abort_rate", Json.Float (Driver.abort_rate r));
        ("fallbacks", Json.Int (Tm.Stats.fallbacks tm));
        ("extensions", Json.Int (Tm.Stats.extensions tm));
        ("ext_fails", Json.Int (Tm.Stats.ext_fails tm));
        ("verified", Json.Bool (r.Driver.verdict = Ok ()));
      ] )

let run_config p c ~ops_per_thread =
  let points =
    List.map
      (fun threads -> run_point p c ~ops_per_thread ~threads)
      p.threads_list
  in
  Printf.printf "%-9s %-6s %3d%% lookups%s:%s\n%!"
    (Spec.structure_name c.structure)
    (Structs.Mode.kind_name c.kind)
    c.lookup_pct
    (if c.adaptive then " adaptive " else " ")
    (String.concat ""
       (List.map
          (fun (r, _) ->
            Printf.sprintf "  %dT %.0f/s" r.Driver.spec.Workload.threads
              r.Driver.throughput)
          points));
  Json.Obj
    [
      ("structure", Json.String (Spec.structure_name c.structure));
      ("kind", Json.String (Structs.Mode.kind_name c.kind));
      ("lookup_pct", Json.Int c.lookup_pct);
      ("key_bits", Json.Int c.key_bits);
      ("adaptive", Json.Bool c.adaptive);
      ("ops_per_thread", Json.Int ops_per_thread);
      ("points", Json.List (List.map snd points));
    ]

(* Each noise probe below compares two runs of the same code. One pair is
   one sample of the box's noise, so a probe runs [probe_pairs] pairs,
   alternating which run goes first so that drift over the probe lands on
   both sides, and reports the median of the per-pair ratios. *)
let probe_pairs = 5

let paired ~base ~other =
  List.init probe_pairs (fun i ->
      if i mod 2 = 0 then
        let b = base () in
        (b, other ())
      else
        let o = other () in
        (base (), o))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let tput (r : Driver.result) = r.Driver.throughput
let ratios pairs = List.map (fun (b, o) -> tput o /. tput b) pairs
let floats xs = Json.List (List.map (fun x -> Json.Float x) xs)

(* The sanitizer probe: one representative configuration run three ways —
   a plain baseline (TxSan hooks compiled in but disabled, i.e. the
   seed-equivalent path plus one relaxed bool load per hook), a paired
   off-mode sample (so "within noise" compares runs of the *same* code),
   and a TxSan-armed run in [Count] mode. Off-mode must stay within noise
   of the baseline; the on-mode slowdown is recorded, not bounded —
   precision is allowed to cost. *)
let san_probe p (c : config) ~ops_per_thread =
  (* Floor the probe's op count: the noise bound below needs runs long
     enough that scheduler jitter doesn't dominate, even in smoke mode. *)
  let ops_per_thread = max 2_000 ops_per_thread in
  let threads = List.fold_left max 1 p.threads_list in
  let point ~san =
    let window = Factories.best_window ~threads in
    let handle =
      (Factories.make (Spec.v ~window ~adaptive:c.adaptive c.structure c.kind))
        .Factories.make ()
    in
    let spec =
      Workload.spec ~key_bits:c.key_bits ~lookup_pct:c.lookup_pct ~threads
        ~ops_per_thread ()
    in
    Driver.run ~verify:p.verify ~san spec handle
  in
  let off_run () = point ~san:false in
  let pairs = paired ~base:off_run ~other:off_run in
  let base = median (List.map (fun (b, _) -> tput b) pairs) in
  let off = median (List.map (fun (_, o) -> tput o) pairs) in
  let pair_ratios = ratios pairs in
  let on = point ~san:true in
  let violations =
    match on.Driver.san with
    | Some per_rule -> List.fold_left (fun a (_, n) -> a + n) 0 per_rule
    | None -> 0
  in
  let off_vs_baseline = median pair_ratios in
  let on_slowdown = base /. tput on in
  Printf.printf
    "san probe  %-9s %-6s %dT: off/base %.2f, on-mode slowdown %.1fx, \
     violations %d\n%!"
    (Spec.structure_name c.structure)
    (Structs.Mode.kind_name c.kind)
    threads off_vs_baseline on_slowdown violations;
  Json.Obj
    [
      ("structure", Json.String (Spec.structure_name c.structure));
      ("kind", Json.String (Structs.Mode.kind_name c.kind));
      ("lookup_pct", Json.Int c.lookup_pct);
      ("threads", Json.Int threads);
      ("ops_per_thread", Json.Int ops_per_thread);
      ("baseline_throughput", Json.Float base);
      ("off_throughput", Json.Float off);
      ("on_throughput", Json.Float (tput on));
      ("off_vs_baseline", Json.Float off_vs_baseline);
      ("off_vs_baseline_pairs", floats pair_ratios);
      ("on_slowdown", Json.Float on_slowdown);
      ("violations", Json.Int violations);
    ]

(* The window-fusion probe: the hot-traversal list configuration run
   with fusion off and at a ceiling of four windows per transaction, plus
   paired all-off reruns so "within noise" compares runs of the same
   code. Fusion is compiled into every binary and defaults off, so the
   all-off point doubles as the guard that carrying it costs nothing. *)
let opt_variants = [ ("all-off", 1); ("fuse4", 4) ]

let opt_probe p ~ops_per_thread =
  let ops_per_thread = max 2_000 ops_per_thread in
  let threads = List.fold_left max 1 p.threads_list in
  let window = Factories.best_window ~threads in
  let kind = Structs.Mode.Rr_kind (module Rr.V : Rr.S) in
  (* Hot-traversal mix: a small key range concentrates the traffic so
     conflicts are real, and [max_attempts = 1] (the soak-test convention)
     sends every repeated conflict to the serial fallback. *)
  let lookup_pct = 33 and key_bits = 5 and max_attempts = 1 in
  let spec fusion = Spec.v ~window ~fusion ~max_attempts Spec.Slist kind in
  let point fusion =
    let handle = (Factories.make (spec fusion)).Factories.make () in
    let wl = Workload.spec ~key_bits ~lookup_pct ~threads ~ops_per_thread () in
    Driver.run ~verify:p.verify wl handle
  in
  (* One discarded warm-up run: the first driver run on a fresh binary
     pays allocator/GC cold-start costs that would otherwise land
     entirely on the baseline sample and masquerade as noise. *)
  ignore (point 1);
  let pairs = paired ~base:(fun () -> point 1) ~other:(fun () -> point 1) in
  let base = median (List.map (fun (b, _) -> tput b) pairs) in
  let pair_ratios = ratios pairs in
  (* The all-off variant is the paired rerun of median throughput. *)
  let all_off_run =
    let by_tput a b = compare (tput a) (tput b) in
    List.nth (List.sort by_tput (List.map snd pairs)) (probe_pairs / 2)
  in
  let runs =
    List.map
      (fun (name, fusion) ->
        (name, fusion, if fusion = 1 then all_off_run else point fusion))
      opt_variants
  in
  let variant name =
    let _, _, r = List.find (fun (n, _, _) -> n = name) runs in
    tput r
  in
  let all_off = variant "all-off" in
  let off_vs_baseline = median pair_ratios in
  let fuse4_vs_all_off = variant "fuse4" /. all_off in
  Printf.printf
    "opt probe  slist     RR-V   %dT: off/base %.2f, fuse4/all-off %.2fx\n%!"
    threads off_vs_baseline fuse4_vs_all_off;
  let variant_json (name, fusion, r) =
    let tm = r.Driver.tm in
    Json.Obj
      [
        ("variant", Json.String name);
        ("label", Json.String (Spec.label (spec fusion)));
        ("fusion", Json.Int fusion);
        ("throughput", Json.Float r.Driver.throughput);
        ("aborts", Json.Int (Tm.Stats.total_aborts tm));
        ("fallbacks", Json.Int (Tm.Stats.fallbacks tm));
        ("vs_all_off", Json.Float (r.Driver.throughput /. all_off));
        ("verified", Json.Bool (r.Driver.verdict = Ok ()));
      ]
  in
  Json.Obj
    [
      ("structure", Json.String (Spec.structure_name Spec.Slist));
      ("kind", Json.String (Structs.Mode.kind_name kind));
      ("lookup_pct", Json.Int lookup_pct);
      ("key_bits", Json.Int key_bits);
      ("max_attempts", Json.Int max_attempts);
      ("threads", Json.Int threads);
      ("ops_per_thread", Json.Int ops_per_thread);
      ("baseline_throughput", Json.Float base);
      ("off_vs_baseline", Json.Float off_vs_baseline);
      ("off_vs_baseline_pairs", floats pair_ratios);
      ("fuse4_vs_all_off", Json.Float fuse4_vs_all_off);
      ("variants", Json.List (List.map variant_json runs));
    ]

let report p ~mode ~configs ~ops_per_thread =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("bench", Json.String "scaling");
      ("mode", Json.String mode);
      ( "threads",
        Json.List (List.map (fun t -> Json.Int t) p.threads_list) );
      ( "configs",
        Json.List (List.map (run_config p ~ops_per_thread) configs) );
      ("san", san_probe p (List.hd configs) ~ops_per_thread);
      ("opt", opt_probe p ~ops_per_thread);
    ]

(* ---- schema validation (used by the smoke alias and tests) ---- *)

let validate js =
  let open Json in
  let some = Option.some in
  let positive what name o =
    let* v = field name to_float o in
    if v > 0. then Ok () else err "%s %s <= 0" what name
  and non_negative name o =
    let* v = field name to_int o in
    if v >= 0 then Ok () else err "negative %s" name
  in
  let pair_ratios probe o =
    let* rs = field "off_vs_baseline_pairs" to_list o in
    if List.length rs <> probe_pairs then
      err "%s probe has %d pair ratios, wanted %d" probe (List.length rs)
        probe_pairs
    else if
      List.for_all
        (fun r -> match to_float r with Some x -> x > 0. | None -> false)
        rs
    then Ok ()
    else err "%s probe pair ratio missing or <= 0" probe
  in
  let* () = expect_schema schema js in
  let* _ = field "bench" to_string_opt js in
  let* _ = field "mode" to_string_opt js in
  let* san = field "san" some js in
  let* () = positive "san" "off_throughput" san in
  let* () = positive "san" "on_throughput" san in
  let* () = positive "san" "off_vs_baseline" san in
  let* () = pair_ratios "san" san in
  let* () = positive "san" "on_slowdown" san in
  let* () = non_negative "violations" san in
  let* opt = field "opt" some js in
  let* () = positive "opt" "baseline_throughput" opt in
  let* () = positive "opt" "off_vs_baseline" opt in
  let* () = pair_ratios "opt" opt in
  let* _ = field "fuse4_vs_all_off" to_float opt in
  let* variants =
    each "variants"
      (fun v ->
        let* _ = field "variant" to_string_opt v in
        let* _ = field "label" to_string_opt v in
        let* () = positive "opt" "throughput" v in
        non_negative "fallbacks" v)
      opt
  in
  let* () =
    if List.length variants = List.length opt_variants then Ok ()
    else err "opt probe variant set incomplete"
  in
  let point pt =
    let* threads = field "threads" to_int pt in
    let* () = if threads >= 1 then Ok () else err "threads < 1" in
    let* () = positive "point" "throughput" pt in
    let* rate = field "abort_rate" to_float pt in
    let* () = if rate >= 0. then Ok () else err "negative abort_rate" in
    let* _ = field "aborts" to_int pt in
    let* () = non_negative "fallbacks" pt in
    let* () = non_negative "extensions" pt in
    non_negative "ext_fails" pt
  in
  let config c =
    let* _ = field "structure" to_string_opt c in
    let* _ = field "kind" to_string_opt c in
    let* _ = field "lookup_pct" to_int c in
    let* _ = field "key_bits" to_int c in
    let* _ = field "adaptive" to_bool c in
    let* _ = field "ops_per_thread" to_int c in
    let* points = each "points" point c in
    if points = [] then err "config with no points" else Ok ()
  in
  let* configs = each "configs" config js in
  if configs = [] then err "empty configs" else Ok ()

(* ---- entry points ---- *)

let run p =
  let ops_per_thread = if p.quick then 2_000 else 20_000 in
  let configs =
    sweep_configs
      ~adaptives:[ false; true ]
      ~structures:[ Spec.Slist; Spec.Bst_int; Spec.Skiplist ]
      ~kinds:Factories.rr_kinds ~mixes:[ 33; 80 ] ()
  in
  Printf.printf
    "scaling sweep: %d configs x threads {%s}, %d ops/thread -> %s\n%!"
    (List.length configs)
    (String.concat "," (List.map string_of_int p.threads_list))
    ops_per_thread p.out;
  let js =
    report p
      ~mode:(if p.quick then "quick" else "full")
      ~configs ~ops_per_thread
  in
  Json.to_file p.out js;
  if p.json_stdout then print_endline (Json.to_string js);
  Printf.printf "wrote %s\n%!" p.out

let smoke () =
  let p =
    {
      quick = true;
      verify = true;
      threads_list = [ 1; 2 ];
      json_stdout = false;
      out = default_out;
    }
  in
  let configs =
    sweep_configs
      ~adaptives:[ false; true ]
      ~structures:[ Spec.Slist ]
      ~kinds:
        [
          ("RR-V", Structs.Mode.Rr_kind (module Rr.V));
          ("RR-XO", Structs.Mode.Rr_kind (module Rr.Xo));
        ]
      ~mixes:[ 33 ] ()
  in
  let js = report p ~mode:"smoke" ~configs ~ops_per_thread:300 in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        prerr_endline ("bench-smoke: " ^ m);
        exit 1)
      fmt
  in
  (match Json.round_trip ~out:p.out validate js with
  | Ok _ -> ()
  | Error e -> fail "%s" e);
  (* A probe's off-mode must be within noise of its paired baseline rerun.
     For the sanitizer, an accidentally-armed TxSan serializes every
     access on a global mutex (5-10x), while the legitimate hook cost is
     one relaxed bool load; for window fusion, which is compiled in but
     disabled in the all-off point, falling out of noise means the
     disabled knob has a hot-path cost. The bound is loose because smoke
     runs are short and containers are noisy; the ratio is the median of
     [probe_pairs] pairs, so one descheduled run cannot trip it. *)
  List.iter
    (fun (probe, what) ->
      match
        Json.(
          let* o = field probe Option.some js in
          field "off_vs_baseline" to_float o)
      with
      | Ok ratio when ratio < 0.33 ->
          fail "%s-off throughput fell out of noise (ratio %.2f)" what ratio
      | Ok _ -> ()
      | Error e -> fail "%s probe: %s" probe e)
    [ ("san", "sanitizer"); ("opt", "optimizations") ];
  Printf.printf "bench-smoke OK: %s validates against %s\n" p.out schema
