type kind =
  | Rr_kind of (module Rr.S)
  | Htm
  | Tmhp
  | Ref
  | Ebr

let kind_name = function
  | Rr_kind m ->
      let module M = (val m : Rr.S) in
      M.name
  | Htm -> "HTM"
  | Tmhp -> "TMHP"
  | Ref -> "REF"
  | Ebr -> "EBR"

type 'n t = {
  name : string;
  strict : bool;
  whole_op : bool;
  ro_hint : bool;
  ops : 'n Rr.ops;
  deleted : Tm.txn -> 'n -> bool;
  invalidate : Tm.txn -> 'n -> unit;
  dispose : Tm.txn -> 'n -> unit;
  finalize : thread:int -> unit;
  drain : unit -> unit;
  hazard_metrics : unit -> Reclaim.Hazard.metrics option;
}

let take_spare pool ~thread ~outer spare alloc =
  match !spare with
  | Some n -> n
  | None ->
      let n = alloc pool ~thread in
      spare := Some n;
      (match outer with
      | Some txn ->
          Tm.on_abort txn (fun () ->
              Mempool.free pool ~thread n;
              spare := None)
      | None -> ());
      n

let give_back_spare pool ~thread ~outer spare =
  match !spare with
  | None -> ()
  | Some n -> (
      match outer with
      | None ->
          Mempool.free pool ~thread n;
          spare := None
      | Some txn ->
          Tm.defer txn (fun () ->
              match !spare with
              | Some n ->
                  Mempool.free pool ~thread n;
                  spare := None
              | None -> ()))

(* Mirror the TxSan funnel that [Rr.instantiate] wraps around the six RR
   implementations, so the baseline modes' reservations answer to the same
   window discipline (reservation-leak at window end, unchecked-carry until
   a successful [get], stamp-window use-after-free at the reserving
   commit). [key] is the pool-backed shadow-slot key. *)
let san_ops ~key (ops : 'n Rr.ops) : 'n Rr.ops =
  {
    ops with
    reserve =
      (fun txn n ->
        San.rr_reserve ~tid:(Tm.thread_id txn) ~node:(key n);
        ops.Rr.reserve txn n);
    release =
      (fun txn n ->
        San.rr_release ~tid:(Tm.thread_id txn) ~node:(key n);
        ops.Rr.release txn n);
    release_all =
      (fun txn ->
        San.rr_release_all ~tid:(Tm.thread_id txn);
        ops.Rr.release_all txn);
    get =
      (fun txn n ->
        if San.enabled () then begin
          let tid = Tm.thread_id txn in
          San.rr_check_begin ~tid;
          let res = ops.Rr.get txn n in
          San.rr_check_end ~tid ~site:(Tm.txn_site txn) ~node:(key n)
            ~ok:(res <> None);
          res
        end
        else ops.Rr.get txn n);
  }

(* The one deletion check. It may run on a pointer whose node was freed
   since it was read (a hand-off carried across windows, a skiplist hint):
   poison makes the check answer "deleted" and the caller drops the
   pointer, so TxSan exempts reads inside the bracket from its read-UAF
   rule. *)
let checked_deleted deleted txn n =
  if San.enabled () then begin
    let tid = Tm.thread_id txn in
    San.probe_begin ~tid;
    let d = deleted txn n in
    San.probe_end ~tid;
    d
  end
  else deleted txn n

let no_op_ops name : 'n Rr.ops =
  {
    Rr.name;
    strict = true;
    register = (fun _ -> ());
    reserve = (fun _ _ -> ());
    release = (fun _ _ -> ());
    release_all = (fun _ -> ());
    get = (fun _ _ -> None);
    revoke = (fun _ _ -> ());
  }

(* TMHP: a reservation is a hazard-slot publication plus, for validity, a
   transactional deletion check. Publications are made eagerly (so they
   are visible before the commit that makes the hand-off real) but only
   {e dropped} on commit, via Tm.defer with two rotating slots per thread
   — an aborted attempt must keep its previous window-start protected or
   the node could be freed and reused under it. *)
let tmhp_gen_violations = Atomic.make 0

let tmhp_mode ~pool ~deleted ~mark_deleted ~hp_threshold =
  let gen = Mempool.generation pool in
  let hazard =
    Reclaim.Hazard.create ~slots_per_thread:2 ~scan_threshold:hp_threshold
      ~free:(fun ~thread n -> Mempool.free pool ~thread n)
      ~node_id:(Mempool.id_of pool)
      ~san_key:(Mempool.san_key pool) ()
  in
  let cur = Array.make Tm.Thread.max_threads 0 in
  let gens = Array.make Tm.Thread.max_threads 0 in
  let pending_gen = Array.make Tm.Thread.max_threads 0 in
  let reserve txn n =
    let thread = Tm.thread_id txn in
    let spare = 1 - cur.(thread) in
    Reclaim.Hazard.protect hazard ~thread ~slot:spare n;
    pending_gen.(thread) <- gen n;
    (* Publish-then-revalidate: this transaction is otherwise read-only
       (the publication is a side effect), so it would skip commit
       validation — and the publication could then land only after a
       concurrent remover's retire-scan had already decided to free [n].
       Forcing read-set validation orders the publication before any
       conflicting commit, exactly like Michael's re-read of the source
       pointer after setting a hazard pointer. Dst.Inject bug #2 drops the
       forced validation, re-opening the publication race (DESIGN.md). *)
    if not (Dst.Inject.bug Dst.Inject.Ro_publication) then
      Tm.validate_on_commit txn;
    Tm.defer txn (fun () ->
        Reclaim.Hazard.clear hazard ~thread ~slot:cur.(thread);
        cur.(thread) <- spare;
        gens.(thread) <- pending_gen.(thread))
  in
  let release_all txn =
    let thread = Tm.thread_id txn in
    Tm.defer txn (fun () ->
        Reclaim.Hazard.clear hazard ~thread ~slot:cur.(thread))
  in
  let get txn n =
    if deleted txn n then None
    else begin
      if gen n <> gens.(Tm.thread_id txn) then
        Atomic.incr tmhp_gen_violations;
      Some n
    end
  in
  let ops =
    san_ops ~key:(Mempool.san_key pool)
      {
        Rr.name = "TMHP";
        strict = true;
        register = (fun _ -> ());
        reserve;
        release = (fun txn _ -> release_all txn);
        release_all;
        get;
        revoke = (fun _ _ -> ());
      }
  in
  {
    name = "TMHP";
    strict = true;
    whole_op = false;
    ro_hint = true;
    ops;
    deleted;
    invalidate = mark_deleted;
    dispose =
      (fun txn n ->
        let thread = Tm.thread_id txn in
        Tm.defer txn (fun () -> Reclaim.Hazard.retire hazard ~thread n));
    finalize =
      (fun ~thread ->
        Reclaim.Hazard.clear_all hazard ~thread;
        Reclaim.Hazard.scan hazard ~thread);
    drain = (fun () -> Reclaim.Hazard.drain hazard);
    hazard_metrics = (fun () -> Some (Reclaim.Hazard.metrics hazard));
  }

(* REF: the reservation pins the node with a transactional reference count;
   everything (count, held-slot, deletion mark) is in tvars, so aborts roll
   the pin back — no rotation tricks needed. Whoever drops the count of an
   already-deleted node to zero frees it.

   The counts live here, not in the nodes: one tvar per pool id, in a
   table that only grows (ids are dense from 0). A thread that finds the
   table too short grows it under [grow], re-checking the length there
   and copying the existing tvars, so every thread gets the same tvar for
   an id. Nothing inside the lock yields to the DST scheduler. *)
let ref_mode ~pool ~deleted ~mark_deleted =
  let counts = Atomic.make [||] in
  let grow = Mutex.create () in
  let rc n =
    let id = Mempool.id_of pool n in
    let a = Atomic.get counts in
    if id < Array.length a then a.(id)
    else
      Mutex.protect grow (fun () ->
          let a = Atomic.get counts in
          let len = Array.length a in
          if id < len then a.(id)
          else begin
            let b =
              Array.init
                (max (id + 1) (2 * len))
                (fun i -> if i < len then a.(i) else Reclaim.Rc.make 0)
            in
            Atomic.set counts b;
            b.(id)
          end)
  in
  let held = Array.init Tm.Thread.max_threads (fun _ -> Tm.tvar None) in
  let free_if_dead txn n =
    if Reclaim.Rc.get txn (rc n) = 0 && deleted txn n then begin
      let thread = Tm.thread_id txn in
      Tm.defer txn (fun () -> Mempool.free pool ~thread n)
    end
  in
  let release_all txn =
    let slot = held.(Tm.thread_id txn) in
    match Tm.read txn slot with
    | None -> ()
    | Some n ->
        ignore (Reclaim.Rc.decr txn (rc n));
        Tm.write txn slot None;
        free_if_dead txn n
  in
  let reserve txn n =
    release_all txn;
    Reclaim.Rc.incr txn (rc n);
    Tm.write txn held.(Tm.thread_id txn) (Some n)
  in
  let get txn n = if deleted txn n then None else Some n in
  let ops =
    san_ops ~key:(Mempool.san_key pool)
      {
        Rr.name = "REF";
        strict = true;
        register = (fun _ -> ());
        reserve;
        release = (fun txn _ -> release_all txn);
        release_all;
        get;
        revoke = (fun _ _ -> ());
      }
  in
  {
    name = "REF";
    strict = true;
    whole_op = false;
    ro_hint = false;
    ops;
    deleted;
    invalidate = mark_deleted;
    dispose = (fun txn n -> free_if_dead txn n);
    finalize = (fun ~thread:_ -> ());
    drain = (fun () -> ());
    hazard_metrics = (fun () -> None);
  }

(* EBR: epoch-based reclamation. A thread announces the global epoch when
   it establishes its first reservation of an operation and stays announced
   until the operation finishes, so nodes retired during the operation
   cannot be freed under it (the epoch can advance at most once past a
   still-announced thread). Validity across transactions is the same
   deletion check as TMHP, and the reserving transaction forces
   commit validation for the same publish-then-revalidate reason. *)
let ebr_mode ~pool ~deleted ~mark_deleted ~advance_threshold =
  let epoch =
    Reclaim.Epoch.create ~advance_threshold
      ~free:(fun ~thread n -> Mempool.free pool ~thread n)
      ~san_key:(Mempool.san_key pool) ()
  in
  let active = Array.make Tm.Thread.max_threads false in
  (* [keep] mediates the engine's release_all-then-reserve hand-off
     sequence: a reserve in the same transaction cancels the leave that
     release_all would otherwise perform at commit, so the thread stays
     announced for the whole multi-transaction operation. *)
  let keep = Array.make Tm.Thread.max_threads false in
  let reserve txn n =
    ignore n;
    let thread = Tm.thread_id txn in
    keep.(thread) <- true;
    if not active.(thread) then begin
      Reclaim.Epoch.enter epoch ~thread;
      (* [active] is set by a defer, which an aborted or abandoned attempt
         never runs: leave again, or the thread stays announced and holds
         back every later advance. *)
      Tm.on_abort txn (fun () ->
          if not active.(thread) then Reclaim.Epoch.leave epoch ~thread);
      (* Same publication race as TMHP's reserve (Dst.Inject bug #2). *)
      if not (Dst.Inject.bug Dst.Inject.Ro_publication) then
        Tm.validate_on_commit txn
    end;
    Tm.defer txn (fun () -> active.(thread) <- true)
  in
  let release_all txn =
    let thread = Tm.thread_id txn in
    keep.(thread) <- false;
    Tm.defer txn (fun () ->
        if (not keep.(thread)) && active.(thread) then begin
          Reclaim.Epoch.leave epoch ~thread;
          active.(thread) <- false
        end)
  in
  let get txn n = if deleted txn n then None else Some n in
  let ops =
    san_ops ~key:(Mempool.san_key pool)
      {
        Rr.name = "EBR";
        strict = true;
        register = (fun _ -> ());
        reserve;
        release = (fun txn _ -> release_all txn);
        release_all;
        get;
        revoke = (fun _ _ -> ());
      }
  in
  {
    name = "EBR";
    strict = true;
    whole_op = false;
    ro_hint = true;
    ops;
    deleted;
    invalidate = mark_deleted;
    dispose =
      (fun txn n ->
        let thread = Tm.thread_id txn in
        Tm.defer txn (fun () -> Reclaim.Epoch.retire epoch ~thread n));
    finalize =
      (fun ~thread ->
        if active.(thread) then begin
          Reclaim.Epoch.leave epoch ~thread;
          active.(thread) <- false
        end);
    drain = (fun () -> Reclaim.Epoch.drain epoch);
    hazard_metrics =
      (fun () ->
        (* report through the common deferred-reclamation record;
           "scans" counts epoch advances here *)
        let m = Reclaim.Epoch.metrics epoch in
        Some
          {
            Reclaim.Hazard.retired_total = m.Reclaim.Epoch.retired_total;
            freed_total = m.Reclaim.Epoch.freed_total;
            backlog = m.Reclaim.Epoch.backlog;
            max_backlog = m.Reclaim.Epoch.max_backlog;
            scans = m.Reclaim.Epoch.advances;
            delay_total_s = m.Reclaim.Epoch.delay_total_s;
            delay_max_s = m.Reclaim.Epoch.delay_max_s;
          });
  }

let rr_mode m ~pool ~deleted ~hash ~equal ~rr_config =
  let module M = (val m : Rr.S) in
  let ops =
    Rr.instantiate m ?config:rr_config ~hash
      ~sid:(Mempool.san_key pool) ~equal ()
  in
  {
    name = M.name;
    strict = M.strict;
    whole_op = false;
    ro_hint = true;
    ops;
    deleted;
    invalidate = (fun txn n -> ops.Rr.revoke txn n);
    dispose =
      (fun txn n ->
        let thread = Tm.thread_id txn in
        Tm.defer txn (fun () -> Mempool.free pool ~thread n));
    finalize = (fun ~thread:_ -> ());
    drain = (fun () -> ());
    hazard_metrics = (fun () -> None);
  }

let htm_mode ~pool ~deleted =
  {
    name = "HTM";
    strict = true;
    whole_op = true;
    ro_hint = false;
    ops = no_op_ops "HTM";
    deleted;
    invalidate = (fun _ _ -> ());
    dispose =
      (fun txn n ->
        let thread = Tm.thread_id txn in
        Tm.defer txn (fun () -> Mempool.free pool ~thread n));
    finalize = (fun ~thread:_ -> ());
    drain = (fun () -> ());
    hazard_metrics = (fun () -> None);
  }

let create kind ~pool ~deleted ~mark_deleted ~hash ~equal ?rr_config
    ?(hp_threshold = 64) () =
  let deleted = checked_deleted deleted in
  match kind with
  | Rr_kind m -> rr_mode m ~pool ~deleted ~hash ~equal ~rr_config
  | Htm -> htm_mode ~pool ~deleted
  | Tmhp -> tmhp_mode ~pool ~deleted ~mark_deleted ~hp_threshold
  | Ref -> ref_mode ~pool ~deleted ~mark_deleted
  | Ebr ->
      ebr_mode ~pool ~deleted ~mark_deleted ~advance_threshold:hp_threshold
