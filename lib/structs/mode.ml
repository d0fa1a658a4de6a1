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

module Window = Rr.Hoh.Window

type 'n t = {
  name : string;
  strict : bool;
  whole_op : bool;
  ro_hint : bool;
  unlogged : bool;
  ops : 'n Rr.ops;
  deleted : Tm.txn -> 'n -> bool;
  invalidate : Tm.txn -> 'n -> unit;
  dispose : Tm.txn -> 'n -> unit;
  finalize : thread:int -> unit;
  drain : unit -> unit;
  hazard_metrics : unit -> Reclaim.Hazard.metrics option;
  pool : 'n Mempool.t;
  window : Window.t;
  max_attempts : int option;
  resume_floor : int;
}

let take_spare (type n) ({ pool; _ } : n t) ~outer txn
    (spare : n Mempool.fresh option ref) alloc =
  let thread = Tm.thread_id txn in
  let n =
    match !spare with
    | Some n -> n
    | None ->
        let n = alloc pool ~thread in
        spare := Some n;
        (match outer with
        | Some outer ->
            Tm.on_abort outer (fun () ->
                Mempool.free pool ~thread (n :> n);
                spare := None)
        | None -> ());
        n
  in
  Tm.assign txn spare None;
  n

let give_back_spare (type n) ({ pool; _ } : n t) ~thread
    (spare : n Mempool.fresh option ref) =
  match !spare with
  | Some n -> Mempool.free pool ~thread (n :> n)
  | None -> ()

(* Mirror the TxSan funnel that [Rr.instantiate] wraps around the six RR
   implementations, so the baseline modes' reservations answer to the same
   window discipline (reservation-leak at window end, unchecked-carry until
   a successful [get], stamp-window use-after-free at the reserving
   commit). Their reservations are publications ([San.rr_publish]): a
   hazard slot or an epoch announcement protects only from the moment it
   is seen. [key] is the pool-backed shadow-slot key, built only when
   TxSan is on. *)
let san_ops ~key (ops : 'n Rr.ops) : 'n Rr.ops =
  {
    ops with
    reserve =
      (fun txn n ->
        if San.enabled () then
          San.rr_publish ~tid:(Tm.thread_id txn) ~node:(key n);
        ops.Rr.reserve txn n);
    release =
      (fun txn n ->
        if San.enabled () then
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

(* The reservation operations of a baseline mode whose reservations are
   publications (TMHP, REF, EBR): strict, nothing to register or revoke,
   and a single release is a release of all, behind the TxSan funnel. *)
let publication_ops pool name ~reserve ~release_all ~get =
  san_ops ~key:(Mempool.san_key pool)
    {
      Rr.name;
      strict = true;
      register = (fun _ -> ());
      reserve;
      release = (fun txn _ -> release_all txn);
      release_all;
      get;
      revoke = (fun _ _ -> ());
    }

(* TMHP: a reservation is a hazard-slot publication plus, for validity, a
   transactional deletion check. Publications are made eagerly (so they
   are visible before the commit that makes the hand-off real) but only
   {e dropped} on commit, via Tm.defer with two rotating slots per thread
   — an aborted attempt must keep its previous window-start protected or
   the node could be freed and reused under it. *)
let tmhp_gen_violations = Atomic.make 0

let tmhp_mode ~pool ~deleted ~hp_threshold base =
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
  {
    (base (publication_ops pool "TMHP" ~reserve ~release_all ~get)) with
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
let ref_mode ~pool ~deleted base =
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
  {
    (base (publication_ops pool "REF" ~reserve ~release_all ~get)) with
    ro_hint = false;
    dispose = (fun txn n -> free_if_dead txn n);
  }

(* EBR: epoch-based reclamation. A thread announces the global epoch when
   it establishes its first reservation of an operation and stays announced
   until the operation finishes, so nodes retired during the operation
   cannot be freed under it (the epoch can advance at most once past a
   still-announced thread). Validity across transactions is the same
   deletion check as TMHP, and the reserving transaction forces
   commit validation for the same publish-then-revalidate reason. *)
let ebr_mode ~pool ~deleted ~advance_threshold base =
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
  {
    (base (publication_ops pool "EBR" ~reserve ~release_all ~get)) with
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

(* The RR hash: the paper hashes node addresses, here pool slot ids,
   mixed so that neighbouring slots spread over the buckets. A slot keeps
   its id across free and reuse. *)
let slot_hash pool n =
  let h = Mempool.id_of pool n * 0x9e3779b1 in
  h lxor (h lsr 16)

let free_on_commit pool txn n =
  let thread = Tm.thread_id txn in
  Tm.defer txn (fun () -> Mempool.free pool ~thread n)

let create kind ~pool ~deleted ~mark_deleted ~window ?(scatter = true)
    ?adaptive ?fusion ?max_attempts ?(resume_floor = 1) ?rr_config
    ?(hp_threshold = 64) () =
  let window = Window.create ~scatter ?adaptive ?fusion window in
  let deleted = checked_deleted deleted in
  (* What the modes share: an RR kind's record; each other kind overrides
     the fields it differs in. *)
  let base ops =
    {
      name = ops.Rr.name;
      strict = ops.Rr.strict;
      whole_op = false;
      ro_hint = true;
      unlogged = false;
      ops;
      deleted;
      invalidate = mark_deleted;
      dispose = free_on_commit pool;
      finalize = (fun ~thread:_ -> ());
      drain = (fun () -> ());
      hazard_metrics = (fun () -> None);
      pool;
      window;
      max_attempts;
      resume_floor;
    }
  in
  match kind with
  | Rr_kind m ->
      let module M = (val m : Rr.S) in
      let ops =
        Rr.instantiate m ?config:rr_config ~hash:(slot_hash pool)
          ~sid:(Mempool.san_key pool) ~equal:( == ) ()
      in
      {
        (base ops) with
        unlogged = M.local_reserve;
        invalidate = (fun txn n -> ops.Rr.revoke txn n);
      }
  | Htm ->
      {
        (base (no_op_ops "HTM")) with
        whole_op = true;
        ro_hint = false;
        invalidate = (fun _ _ -> ());
      }
  | Tmhp -> tmhp_mode ~pool ~deleted ~hp_threshold base
  | Ref -> ref_mode ~pool ~deleted base
  | Ebr -> ebr_mode ~pool ~deleted ~advance_threshold:hp_threshold base

let window_size t = Window.size t.window
let fuse_budget t ~thread = Window.fuse_budget t.window ~thread

let start_point t ~thread ~root = function
  | Some n -> (n, max t.resume_floor (Window.budget t.window ~thread))
  | None ->
      ( root,
        if t.whole_op then max_int else Window.first_budget t.window ~thread )

let apply t ~thread ~site ?(lookup = false) step =
  Rr.Hoh.apply_stamped ~rr:t.ops ~site ?max_attempts:t.max_attempts
    ~read_phase:(lookup && t.ro_hint) ~unlogged:t.unlogged
    ~window:(t.window, thread)
    step
