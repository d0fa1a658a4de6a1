type ('r, 'a) outcome = Finish of 'a | Hand_off of 'r | Anchor of 'r

let act txn ~anchor f =
  if Tm.is_unlogged txn then Anchor anchor else Finish (f ())

(* Per-thread window budgets. Static mode is the paper's fixed W with the
   scatter optimization for first windows. Adaptive mode replaces the fixed
   W with a per-thread controller: the budget grows multiplicatively after
   a window that committed without contention and shrinks multiplicatively
   after one that paid contention aborts (read-validation, lock-busy or
   serial-pending — user retries are the operation's own business), so hot
   traversals converge on the largest window the current conflict rate
   sustains instead of a compile-time guess. *)
module Window = struct
  type t = {
    w : int;
    scatter : bool;
    seeds : int array;
    adaptive : bool;
    w_min : int;
    w_max : int;
    cur : int array;  (* per-thread live budget; owner-written only *)
    fusion : int;  (* max windows fused into one transaction; 1 = off *)
    fcur : int array;  (* per-thread live fuse count; owner-written only *)
  }

  let create ?(scatter = true) ?(adaptive = false) ?(fusion = 1) w =
    if w < 1 then invalid_arg "Hoh.Window.create: w < 1";
    if fusion < 1 then invalid_arg "Hoh.Window.create: fusion < 1";
    {
      w;
      scatter;
      seeds = Array.init Tm.Thread.max_threads (fun i -> (i * 7919) + 17);
      adaptive;
      w_min = 1;
      w_max = 4 * w;
      cur = Array.make Tm.Thread.max_threads w;
      fusion;
      fcur = Array.make Tm.Thread.max_threads 1;
    }

  let size t = t.w
  let adaptive t = t.adaptive
  let budget t ~thread = if t.adaptive then t.cur.(thread) else t.w
  let fusion t = t.fusion
  let fused t = t.fusion > 1
  let fuse_budget t ~thread = if t.fusion > 1 then t.fcur.(thread) else 1

  let record t ~thread ~contended =
    if t.adaptive then begin
      let c = t.cur.(thread) in
      t.cur.(thread) <-
        (if contended then max t.w_min (c / 2) else min t.w_max (2 * c))
    end;
    if t.fusion > 1 then begin
      let k = t.fcur.(thread) in
      t.fcur.(thread) <-
        (if contended then max 1 (k / 2) else min t.fusion (2 * k))
    end

  let first_budget t ~thread =
    let b = budget t ~thread in
    if not t.scatter then b
    else begin
      let s = t.seeds.(thread) in
      let s = s lxor (s lsl 13) in
      let s = s lxor (s lsr 7) in
      let s = s lxor (s lsl 17) in
      t.seeds.(thread) <- s;
      1 + (s land max_int) mod b
    end
end

let[@inline] contention_aborts s =
  Tm.Stats.aborts_read s + Tm.Stats.aborts_lock s + Tm.Stats.aborts_serial s

let run ~rr ?site ?max_attempts ?(read_phase = false) ?(unlogged = false)
    ?window step =
  let reserved = ref None in
  (* Whether the next window is an update's acting window: after an
     [Anchor] it runs logged, so it may write. *)
  let acting = ref false in
  (* The controller's feedback signal: the delta of this thread's
     contention-abort counters across the window transaction, plus whether
     it had to commit serially. Counters are thread-private, so the delta
     attributes exactly this window's aborts. *)
  let stats =
    match window with
    | Some (w, _) when Window.adaptive w || Window.fused w ->
        Some (Tm.Thread.stats ())
    | _ -> None
  in
  let rec loop () =
    let c0 = match stats with Some s -> contention_aborts s | None -> 0 in
    let fuse =
      match window with
      | Some (w, thread) -> Window.fuse_budget w ~thread
      | None -> 1
    in
    let res =
      Tm.atomic_stamped ?site ?max_attempts ~read_phase
        ~unlogged:(unlogged && not !acting) (fun txn ->
          rr.Rr_intf.register txn;
          let start =
            match !reserved with
            | None -> None
            | Some r -> rr.Rr_intf.get txn r
          in
          (* Window fusion: run up to [fuse] windows back to back inside
             this one transaction. An intermediate hand-off point needs no
             reservation — the node was read by this very transaction,
             whose snapshot at [rv] every read was validated against, so
             it was not revoked before the commit (opacity); only the
             final window's hand-off pays the release/reserve round, and
             the whole fused chain commits once. Under RR-V that round
             writes only owner-local slots, so a chain that just walks
             commits read-only and pays no gclock stamp; under the RRs
             whose reserve publishes, the chain pays one. On abort the
             transaction re-runs from the last {e committed} reservation,
             exactly as unfused. An unlogged chain keeps no read set:
             each read is checked against [rv] at its load, and a stale
             one aborts the chain instead of extending it.

             A step keeps its own state across windows in refs written
             with [Tm.assign], which the next window sees at once, fused
             or not, and an abort undoes; so any [Hand_off] may fuse. An
             [Anchor] ends the chain: the acting window after it must
             run in a logged transaction of its own. *)
          let rec windows start k =
            match step txn ~start with
            | Finish v ->
                rr.Rr_intf.release_all txn;
                Finish v
            | Hand_off r when k > 1 -> windows (Some r) (k - 1)
            | Hand_off r ->
                rr.Rr_intf.release_all txn;
                rr.Rr_intf.reserve txn r;
                Hand_off r
            | Anchor r ->
                rr.Rr_intf.release_all txn;
                rr.Rr_intf.reserve txn r;
                Anchor r
          in
          windows start fuse)
    in
    (match (window, stats) with
    | Some (w, thread), Some s ->
        Window.record w ~thread
          ~contended:(res.Tm.serial || contention_aborts s > c0)
    | _ -> ());
    (* TxSan's window shadow follows committed windows. Inside an enclosing
       transaction nothing committed: the window's reservation events stay
       buffered with the enclosing attempt, and the carried pointer is
       guarded by that attempt's read set, as in a fused window. *)
    let san = San.enabled () && Tm.current_txn () = None in
    match res.Tm.value with
    | Finish v ->
        reserved := None;
        (* The operation is over: TxSan checks the thread left no applied
           reservations behind and drops its carry/hint shadow. *)
        if san then San.window_finish ~tid:(Tm.Thread.id ());
        (v, res.Tm.stamp)
    | (Hand_off r | Anchor r) as o ->
        reserved := Some r;
        acting := (match o with Anchor _ -> true | _ -> false);
        (* The committed reservation becomes the carried pointer; until
           the next window's successful [get] it must not be dereferenced
           (TxSan's unchecked-carry rule). *)
        if san then San.window_handoff ~tid:(Tm.Thread.id ());
        (* Between windows the operation holds only its reservation; this
           is the interleaving the paper's races live in, so make it a
           first-class scheduling point. *)
        Dst.point Dst.Hoh_handoff;
        loop ()
  in
  loop ()

let apply ~rr ?site ?max_attempts ?read_phase ?unlogged ?window step =
  fst (run ~rr ?site ?max_attempts ?read_phase ?unlogged ?window step)

let apply_stamped ~rr ?site ?max_attempts ?read_phase ?unlogged ?window step =
  run ~rr ?site ?max_attempts ?read_phase ?unlogged ?window step
