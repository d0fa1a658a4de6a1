type site =
  | Tm_read
  | Tm_sample_rv
  | Tm_wait_serial
  | Tm_commit
  | Tm_lock
  | Tm_gclock
  | Tm_extend
  | Tm_validate
  | Tm_publish
  | Tm_serial_token
  | Tm_serial_quiesce
  | Tm_serial_write
  | Tm_backoff
  | Rr_reserve
  | Rr_release
  | Rr_get
  | Rr_revoke
  | Rr_revoke_step
  | Mp_alloc
  | Mp_free
  | Hp_protect
  | Hp_retire
  | Hp_scan
  | Ep_enter
  | Ep_retire
  | Ep_advance
  | Hoh_handoff
  | Svc_enqueue
  | Svc_drain
  | Svc_cache
  | User of int

let site_name = function
  | Tm_read -> "tm.read"
  | Tm_sample_rv -> "tm.sample_rv"
  | Tm_wait_serial -> "tm.wait_serial"
  | Tm_commit -> "tm.commit"
  | Tm_lock -> "tm.lock"
  | Tm_gclock -> "tm.gclock"
  | Tm_extend -> "tm.extend"
  | Tm_validate -> "tm.validate"
  | Tm_publish -> "tm.publish"
  | Tm_serial_token -> "tm.serial_token"
  | Tm_serial_quiesce -> "tm.serial_quiesce"
  | Tm_serial_write -> "tm.serial_write"
  | Tm_backoff -> "tm.backoff"
  | Rr_reserve -> "rr.reserve"
  | Rr_release -> "rr.release"
  | Rr_get -> "rr.get"
  | Rr_revoke -> "rr.revoke"
  | Rr_revoke_step -> "rr.revoke_step"
  | Mp_alloc -> "mempool.alloc"
  | Mp_free -> "mempool.free"
  | Hp_protect -> "hazard.protect"
  | Hp_retire -> "hazard.retire"
  | Hp_scan -> "hazard.scan"
  | Ep_enter -> "epoch.enter"
  | Ep_retire -> "epoch.retire"
  | Ep_advance -> "epoch.advance"
  | Hoh_handoff -> "hoh.handoff"
  | Svc_enqueue -> "service.enqueue"
  | Svc_drain -> "service.drain"
  | Svc_cache -> "service.cache"
  | User n -> "user." ^ string_of_int n

exception Killed
exception Injected of site

type _ Effect.t += Yield : site -> unit Effect.t

(* Written only by the scheduling domain; other domains read [enabled]
   (monotone false during their lifetime outside tests) and fall through. *)
let enabled = ref false
let sched_domain = ref (-1)
let current = ref (-1)

let[@inline] my_domain () = (Domain.self () :> int)

let[@inline] scheduled () =
  !enabled && my_domain () = !sched_domain && !current >= 0

module Inject = struct
  type bug =
    | Snapshot_straddle
    | Ro_publication
    | Stale_hint
    | Stale_cache

  let bug_idx = function
    | Snapshot_straddle -> 0
    | Ro_publication -> 1
    | Stale_hint -> 2
    | Stale_cache -> 3

  let bugs = Array.make 4 false
  let set_bug b v = bugs.(bug_idx b) <- v
  let[@inline] bug b = !enabled && Array.unsafe_get bugs (bug_idx b)
  let clear_bugs () = Array.fill bugs 0 (Array.length bugs) false

  let with_bug b f =
    set_bug b true;
    Fun.protect ~finally:(fun () -> set_bug b false) f

  type action = Fail | Delay of int

  type arm = {
    a_site : site;
    a_thread : int option;  (* fire only for this logical thread id *)
    mutable skips : int;
    mutable fires : int;
    action : action;
  }

  let arms : arm list ref = ref []

  let arm ?thread ?(after = 0) ?(times = 1) site action =
    arms :=
      { a_site = site; a_thread = thread; skips = after; fires = times; action }
      :: !arms

  let clear () =
    arms := [];
    clear_bugs ()

  (* Consume one visit of [site]. [want_fail] selects whether Fail arms
     are eligible, so a plain [point] never swallows an armed failure
     meant for a [point_fails] site. *)
  let hit ~want_fail site =
    let rec go = function
      | [] -> None
      | a :: rest ->
          if
            a.a_site = site && a.fires > 0
            && (match a.a_thread with None -> true | Some t -> t = !current)
            && (match a.action with Fail -> want_fail | Delay _ -> true)
          then
            if a.skips > 0 then begin
              a.skips <- a.skips - 1;
              go rest
            end
            else begin
              a.fires <- a.fires - 1;
              Some a.action
            end
          else go rest
    in
    go !arms
end

let[@inline never] point_slow site =
  if my_domain () = !sched_domain && !current >= 0 then begin
    (match Inject.hit ~want_fail:false site with
    | Some (Inject.Delay n) ->
        for _ = 1 to n do
          Effect.perform (Yield site)
        done
    | Some Inject.Fail | None -> ());
    Effect.perform (Yield site)
  end

(* A load and a branch when no run is active, once inlined into the
   caller: the release build (dune-workspace) does that across modules;
   the dev profile's -opaque keeps it a call. *)
let[@inline] point site = if !enabled then point_slow site

let[@inline never] point_fails_slow site =
  if my_domain () = !sched_domain && !current >= 0 then begin
    let failing =
      match Inject.hit ~want_fail:true site with
      | Some Inject.Fail -> true
      | Some (Inject.Delay n) ->
          for _ = 1 to n do
            Effect.perform (Yield site)
          done;
          false
      | None -> false
    in
    Effect.perform (Yield site);
    failing
  end
  else false

let[@inline] point_fails site = !enabled && point_fails_slow site

module Tls = struct
  type 'a key = {
    dls : 'a Domain.DLS.key;
    tbl : (int, 'a) Hashtbl.t;
    init : unit -> 'a;
  }

  let clearers : (unit -> unit) list ref = ref []

  let new_key init =
    let k = { dls = Domain.DLS.new_key init; tbl = Hashtbl.create 16; init } in
    clearers := (fun () -> Hashtbl.reset k.tbl) :: !clearers;
    k

  let[@inline] get k =
    if !enabled && my_domain () = !sched_domain && !current >= 0 then begin
      let c = !current in
      match Hashtbl.find_opt k.tbl c with
      | Some v -> v
      | None ->
          let v = k.init () in
          Hashtbl.replace k.tbl c v;
          v
    end
    else Domain.DLS.get k.dls

  let set k v =
    if !enabled && my_domain () = !sched_domain && !current >= 0 then
      Hashtbl.replace k.tbl !current v
    else Domain.DLS.set k.dls v

  let clear_all () = List.iter (fun f -> f ()) !clearers
end

module Sched = struct
  type strategy =
    | Random of int
    | Pct of { seed : int; depth : int }
    | Fixed of int array

  type failure =
    | Thread_raised of { thread : int; exn : exn; bt : string }
    | Check_failed of { exn : exn; bt : string }

  type outcome = {
    trace : int array;
    options : int array array;
    steps : int;
    hung : bool;
    failure : failure option;
  }

  let failed o = o.failure <> None

  let pp_failure ppf = function
    | Thread_raised { thread; exn; bt } ->
        Format.fprintf ppf "thread %d raised %s@.%s" thread
          (Printexc.to_string exn) bt
    | Check_failed { exn; bt } ->
        Format.fprintf ppf "post-run check failed: %s@.%s"
          (Printexc.to_string exn) bt

  let pp_trace ppf t =
    Format.fprintf ppf "[|";
    Array.iteri
      (fun i c ->
        if i > 0 then Format.pp_print_string ppf ";";
        Format.pp_print_int ppf c)
      t;
    Format.fprintf ppf "|]"

  (* SplitMix-style mixer; all strategy randomness derives from it so a
     seed fully determines a schedule. *)
  let mix z =
    let z = (z + 0x9E3779B97F4A7C1) land max_int in
    let z = z lxor (z lsr 30) in
    let z = z * 0x1BF58476D1CE4E5 land max_int in
    let z = z lxor (z lsr 27) in
    let z = z * 0x94D049BB133111E land max_int in
    z lxor (z lsr 31)

  type status =
    | Ready of (unit -> unit)
    | Paused of (unit, unit) Effect.Deep.continuation
    | Done

  type thread = { id : int; mutable status : status }

  let init_ltid = 1_000_000

  let run ?(budget = 20_000) ?init ?(check = fun () -> ()) strategy bodies =
    if !enabled then invalid_arg "Dst.Sched.run: a schedule is already active";
    let n = List.length bodies in
    if n = 0 then invalid_arg "Dst.Sched.run: no threads";
    enabled := true;
    sched_domain := my_domain ();
    current := -1;
    Tls.clear_all ();
    let failure = ref None in
    let hung = ref false in
    let trace = ref [] in
    let options = ref [] in
    let steps = ref 0 in
    let run_slice t =
      current := t.id;
      (match t.status with
      | Ready body ->
          Effect.Deep.match_with body ()
            {
              retc = (fun () -> t.status <- Done);
              exnc =
                (fun e ->
                  t.status <- Done;
                  match e with
                  | Killed -> ()
                  | e ->
                      if !failure = None then
                        failure :=
                          Some
                            (Thread_raised
                               {
                                 thread = t.id;
                                 exn = e;
                                 bt = Printexc.get_backtrace ();
                               }));
              effc =
                (fun (type a) (eff : a Effect.t) ->
                  match eff with
                  | Yield _ ->
                      Some
                        (fun (k : (a, unit) Effect.Deep.continuation) ->
                          t.status <- Paused k)
                  | _ -> None);
            }
      | Paused k -> Effect.Deep.continue k ()
      | Done -> assert false);
      current := -1
    in
    let kill t =
      match t.status with
      | Paused k ->
          current := t.id;
          (try Effect.Deep.discontinue k Killed with _ -> ());
          current := -1;
          t.status <- Done
      | _ -> t.status <- Done
    in
    Fun.protect
      ~finally:(fun () ->
        enabled := false;
        current := -1;
        sched_domain := -1)
      (fun () ->
        (* Deterministic setup phase: a solo logical thread driven to
           completion, its yields resumed immediately and not recorded. *)
        (match init with
        | None -> ()
        | Some f ->
            let t = { id = init_ltid; status = Ready f } in
            let rec drive fuel =
              match t.status with
              | Done -> ()
              | _ when fuel = 0 ->
                  hung := true;
                  kill t
              | _ ->
                  run_slice t;
                  drive (fuel - 1)
            in
            drive budget;
            if !failure <> None then hung := false);
        let threads =
          Array.of_list (List.mapi (fun i b -> { id = i; status = Ready b }) bodies)
        in
        let runnable () =
          let rec go i acc =
            if i < 0 then acc
            else
              go (i - 1)
                (match threads.(i).status with Done -> acc | _ -> i :: acc)
          in
          go (n - 1) []
        in
        (* Strategy state *)
        let rng =
          ref
            (match strategy with
            | Random s -> mix (s lxor 0x5d7)
            | Pct { seed; _ } -> mix (seed lxor 0x9c7)
            | Fixed _ -> 0)
        in
        let next_rand bound =
          rng := mix !rng;
          !rng mod bound
        in
        let prios = Array.make n 0 in
        let change_steps = Hashtbl.create 8 in
        (match strategy with
        | Pct { depth; _ } ->
            let ranks = Array.init n (fun i -> i) in
            for i = n - 1 downto 1 do
              let j = next_rand (i + 1) in
              let t = ranks.(i) in
              ranks.(i) <- ranks.(j);
              ranks.(j) <- t
            done;
            let d = max 1 depth in
            Array.iteri (fun i r -> prios.(i) <- d + r) ranks;
            for j = 1 to d - 1 do
              Hashtbl.replace change_steps (1 + next_rand budget) (d - 1 - j)
            done
        | Random _ | Fixed _ -> ());
        let best rs =
          List.fold_left
            (fun acc i ->
              match acc with
              | Some b when prios.(b) >= prios.(i) -> acc
              | _ -> Some i)
            None rs
          |> Option.get
        in
        let pick rs =
          match strategy with
          | Random _ -> List.nth rs (next_rand (List.length rs))
          | Fixed pre ->
              let s = !steps in
              if s < Array.length pre && List.mem pre.(s) rs then pre.(s)
              else List.hd rs
          | Pct _ ->
              (match Hashtbl.find_opt change_steps !steps with
              | Some newp -> prios.(best rs) <- newp
              | None -> ());
              best rs
        in
        (if !failure = None && not !hung then
           let rec loop () =
             match runnable () with
             | [] -> ()
             | rs ->
                 if !steps >= budget then hung := true
                 else begin
                   let c = pick rs in
                   trace := c :: !trace;
                   options := Array.of_list rs :: !options;
                   incr steps;
                   run_slice threads.(c);
                   if !failure = None then loop ()
                 end
           in
           loop ());
        Array.iter kill threads;
        (if !failure = None && not !hung then
           try check ()
           with e ->
             failure :=
               Some (Check_failed { exn = e; bt = Printexc.get_backtrace () }));
        {
          trace = Array.of_list (List.rev !trace);
          options = Array.of_list (List.rev !options);
          steps = !steps;
          hung = !hung;
          failure = !failure;
        })
end

module Explore = struct
  type case = {
    init : (unit -> unit) option;
    threads : (unit -> unit) list;
    check : unit -> unit;
  }

  type scenario = unit -> case

  let attempt ?budget strategy (mk : scenario) =
    let c = mk () in
    Sched.run ?budget ?init:c.init ~check:c.check strategy c.threads

  type found = {
    seed : int option;
    schedule : int array;
    failure : Sched.failure;
    runs : int;
  }

  (* Minimize a failing schedule: shortest failing prefix by bisection,
     then greedy single-decision deletion, then context-switch collapse.
     Every kept candidate was re-executed and observed to fail, so the
     result always reproduces. Returns (schedule, runs_spent, reproduced);
     [reproduced = false] means even the full trace did not fail under
     Fixed replay (a nondeterministic scenario) and no shrinking was
     attempted. *)
  let shrink ?budget ~fuel mk (trace : int array) =
    let runs = ref 0 in
    let fails t =
      !runs < fuel
      && begin
           incr runs;
           Sched.failed (attempt ?budget (Sched.Fixed t) mk)
         end
    in
    if not (fails trace) then (trace, !runs, false)
    else begin
      let lo = ref 0 and hi = ref (Array.length trace) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if fails (Array.sub trace 0 mid) then hi := mid else lo := mid + 1
      done;
      let cur = ref (Array.sub trace 0 !hi) in
      let i = ref (Array.length !cur - 1) in
      while !i >= 0 do
        let t = !cur in
        let cand =
          Array.init
            (Array.length t - 1)
            (fun j -> if j < !i then t.(j) else t.(j + 1))
        in
        if fails cand then cur := cand;
        decr i
      done;
      let t = Array.copy !cur in
      for j = 1 to Array.length t - 1 do
        if t.(j) <> t.(j - 1) then begin
          let old = t.(j) in
          t.(j) <- t.(j - 1);
          if not (fails t) then t.(j) <- old
        end
      done;
      cur := t;
      (!cur, !runs, true)
    end

  let finish ?budget ~fuel mk ~seed ~runs (o : Sched.outcome) =
    let failure = Option.get o.Sched.failure in
    let schedule, sruns, reproduced = shrink ?budget ~fuel mk o.Sched.trace in
    if reproduced then
      let o' = attempt ?budget (Sched.Fixed schedule) mk in
      match o'.Sched.failure with
      | Some f -> { seed; schedule; failure = f; runs = runs + sruns + 1 }
      | None ->
          (* should be unreachable: shrink verified the schedule *)
          { seed; schedule = o.Sched.trace; failure; runs = runs + sruns + 1 }
    else { seed; schedule = o.Sched.trace; failure; runs = runs + sruns }

  let seeded_search ?(budget = 20_000) ?(max_runs = 500) ?(shrink_fuel = 400)
      ~seed0 ~strategy_of_seed mk =
    let rec go i =
      if i >= max_runs then None
      else begin
        let seed = seed0 + i in
        let o = attempt ~budget (strategy_of_seed seed) mk in
        if Sched.failed o then
          Some
            (finish ~budget ~fuel:shrink_fuel mk ~seed:(Some seed) ~runs:(i + 1)
               o)
        else go (i + 1)
      end
    in
    go 0

  let random_search ?budget ?max_runs ?shrink_fuel ?(seed0 = 1) mk =
    seeded_search ?budget ?max_runs ?shrink_fuel ~seed0
      ~strategy_of_seed:(fun s -> Sched.Random s)
      mk

  let pct_search ?budget ?max_runs ?shrink_fuel ?(seed0 = 1) ?(depth = 3) mk =
    seeded_search ?budget ?max_runs ?shrink_fuel ~seed0
      ~strategy_of_seed:(fun s -> Sched.Pct { seed = s; depth })
      mk

  let exhaustive ?(budget = 2_000) ?(max_runs = 20_000) ?(max_depth = max_int)
      ?(shrink_fuel = 400) mk =
    let runs = ref 0 in
    let rec go prefix =
      if !runs >= max_runs then None
      else begin
        incr runs;
        let o = attempt ~budget (Sched.Fixed prefix) mk in
        if Sched.failed o then
          Some (finish ~budget ~fuel:shrink_fuel mk ~seed:None ~runs:!runs o)
        else begin
          (* next prefix in depth-first lexicographic order: deepest
             decision with an untried larger alternative *)
          let t = o.Sched.trace and opts = o.Sched.options in
          let d = min (Array.length t) max_depth in
          let rec back s =
            if s < 0 then None
            else begin
              let next =
                Array.fold_left
                  (fun acc x ->
                    if x > t.(s) then
                      match acc with
                      | Some y when y <= x -> acc
                      | _ -> Some x
                    else acc)
                  None opts.(s)
              in
              match next with
              | Some x -> Some (Array.append (Array.sub t 0 s) [| x |])
              | None -> back (s - 1)
            end
          in
          match back (d - 1) with Some p -> go p | None -> None
        end
      end
    in
    go [||]

  let replay ?budget mk schedule = attempt ?budget (Sched.Fixed schedule) mk
end
