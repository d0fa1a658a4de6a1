module Window = Rr.Hoh.Window

type t = {
  mode : Dnode.t Mode.t;
  head : Dnode.t;
  window : Window.t;
  pool : Dnode.t Mempool.t;
  max_attempts : int option;
  split_unlink : bool;
}

let create ~mode ?(window = 8) ?(scatter = true) ?adaptive ?fusion
    ?strategy ?rr_config ?hp_threshold ?max_attempts ?(split_unlink = true)
    () =
  let pool = Dnode.make_pool ?strategy () in
  let mode =
    Mode.create mode ~pool
      ~deleted:Dnode.deleted ~mark_deleted:Dnode.mark_deleted
      ~hash:Dnode.hash ~equal:Dnode.equal ?rr_config ?hp_threshold ()
  in
  {
    mode;
    head = Dnode.sentinel ();
    window = Window.create ~scatter ?adaptive ?fusion window;
    pool;
    max_attempts;
    split_unlink;
  }

let name t = t.mode.Mode.name

let start_point t ~thread ~start =
  match start with
  | Some n -> (n, Window.budget t.window ~thread)
  | None ->
      ( t.head,
        if t.mode.Mode.whole_op then max_int
        else Window.first_budget t.window ~thread )

(* {!List_walk.walk} over [Dnode]s: the [while] of Listing 5. Reads at
   most [budget] nodes starting at [prev.next]. *)
let walk txn ~key ~prev ~budget =
  let rec go prev curr i =
    if curr == Dnode.nil then `Absent (prev, curr)
    else
      let k = Tm.read txn curr.Dnode.key in
      if k = key then `Found (prev, curr)
      else if k > key then `Absent (prev, curr)
      else if i >= budget then `Window curr
      else go curr (Tm.read txn curr.Dnode.next) (i + 1)
  in
  go prev (Tm.read txn prev.Dnode.next) 1

let apply t ~thread ?(read_phase = false) key ~site ~on_found ~on_notfound =
  if key <= min_int + 1 then invalid_arg "Hoh_dlist: key out of range";
  Rr.Hoh.apply_stamped ~rr:t.mode.Mode.ops ~site ?max_attempts:t.max_attempts
    ~read_phase
    ~window:(t.window, thread)
    (fun txn ~start ->
      let prev, budget = start_point t ~thread ~start in
      match walk txn ~key ~prev ~budget with
      | `Found (prev, curr) -> on_found txn ~prev ~curr
      | `Absent (prev, curr) -> Rr.Hoh.Finish (on_notfound txn ~prev ~curr)
      | `Window c -> Rr.Hoh.Hand_off c)

let lookup_s t ~thread key =
  apply t ~thread ~read_phase:t.mode.Mode.ro_hint key ~site:"dlist.lookup"
    ~on_found:(fun _ ~prev:_ ~curr:_ -> Rr.Hoh.Finish true)
    ~on_notfound:(fun _ ~prev:_ ~curr:_ -> false)

let insert_s t ~thread key =
  let outer = Tm.current_txn () and spare = ref None in
  let result =
    apply t ~thread key ~site:"dlist.insert"
      ~on_found:(fun _ ~prev:_ ~curr:_ -> Rr.Hoh.Finish false)
      ~on_notfound:(fun txn ~prev ~curr ->
        let n = Mode.take_spare t.pool ~thread ~outer spare Dnode.alloc in
        Tm.write txn n.Dnode.key key;
        Tm.write txn n.Dnode.prev prev;
        Tm.write txn n.Dnode.next curr;
        Tm.write txn prev.Dnode.next n;
        if curr != Dnode.nil then Tm.write txn curr.Dnode.prev n;
        Tm.defer txn (fun () -> spare := None);
        true)
  in
  Mode.give_back_spare t.pool ~thread ~outer spare;
  result

(* Unlink [n] using its own prev/next pointers — the point of the doubly
   linked list: the traversal's (prev, curr) pair is not needed. *)
let unlink_and_reclaim t txn n =
  let p = Tm.read txn n.Dnode.prev in
  (* linked nodes always have a predecessor *)
  assert (p != Dnode.nil);
  let nx = Tm.read txn n.Dnode.next in
  Tm.write txn p.Dnode.next nx;
  if nx != Dnode.nil then Tm.write txn nx.Dnode.prev p;
  t.mode.Mode.invalidate txn n;
  t.mode.Mode.dispose txn n

type phase = Traversing | Unlink of Dnode.t

(* Returns (result, earliest, stamp). For most paths the operation is a
   point at [stamp]; the strict fast-fail path (reservation revoked between
   the reserving and unlinking transactions) linearizes "immediately after
   the concurrent Remove" (Sec. 4.2), somewhere in the open interval
   between the reserving commit [earliest] and the final commit [stamp] —
   the serialization checker accepts any absence of the key inside it. *)
let remove_s t ~thread key =
  if key <= min_int + 1 then invalid_arg "Hoh_dlist: key out of range";
  let split = t.split_unlink && not t.mode.Mode.whole_op in
  let phase = ref Traversing in
  let reserve_stamp = ref 0 in
  let flex = ref false in
  let result, stamp =
    Rr.Hoh.apply_stamped ~rr:t.mode.Mode.ops ~site:"dlist.remove"
      ?max_attempts:t.max_attempts
      ~window:(t.window, thread)
      (fun txn ~start ->
        let traverse ~start =
          let prev, budget = start_point t ~thread ~start in
          match walk txn ~key ~prev ~budget with
          | `Found (_, curr) ->
              if split then begin
                (* Reserve the target and commit; unlink in the next,
                   write-only transaction. *)
                Tm.defer txn (fun () ->
                    phase := Unlink curr;
                    reserve_stamp := Tm.commit_stamp txn);
                Rr.Hoh.Hand_off curr
              end
              else begin
                unlink_and_reclaim t txn curr;
                Rr.Hoh.Finish true
              end
          | `Absent (_, _) -> Rr.Hoh.Finish false
          | `Window c -> Rr.Hoh.Hand_off c
        in
        match !phase with
        | Traversing -> traverse ~start
        | Unlink n -> (
            match start with
            | Some s ->
                assert (Dnode.equal s n);
                unlink_and_reclaim t txn n;
                Rr.Hoh.Finish true
            | None ->
                if t.mode.Mode.strict then begin
                  (* Only a concurrent removal of this very node can revoke
                     a strict reservation: fail without re-traversing,
                     linearizing right after that removal. *)
                  Tm.defer txn (fun () -> flex := true);
                  Rr.Hoh.Finish false
                end
                else begin
                  (* Spurious invalidation is possible: retry the whole
                     operation (Sec. 4.2). *)
                  Tm.defer txn (fun () -> phase := Traversing);
                  traverse ~start:None
                end))
  in
  let earliest = if !flex then !reserve_stamp else stamp in
  (result, earliest, stamp)

let insert t ~thread key = fst (insert_s t ~thread key)

let remove t ~thread key =
  let r, _, _ = remove_s t ~thread key in
  r

let lookup t ~thread key = fst (lookup_s t ~thread key)

let finalize_thread t ~thread = t.mode.Mode.finalize ~thread
let drain t = t.mode.Mode.drain ()

let to_list t =
  let rec go acc n =
    if n == Dnode.nil then List.rev acc
    else go (Tm.peek n.Dnode.key :: acc) (Tm.peek n.Dnode.next)
  in
  go [] (Tm.peek t.head.Dnode.next)

let size t = List.length (to_list t)

let check t =
  let rec go prev n =
    if n == Dnode.nil then Ok ()
    else
      let k = Tm.peek n.Dnode.key in
      if k = Dnode.poisoned_key then
        Error (Printf.sprintf "poisoned node %d linked" n.Dnode.id)
      else if Dnode.peek_deleted n then
        Error (Printf.sprintf "deleted node %d (key %d) linked" n.Dnode.id k)
      else if not (Mempool.is_live t.pool n) then
        Error (Printf.sprintf "freed node %d (key %d) linked" n.Dnode.id k)
      else if k <= Tm.peek prev.Dnode.key && prev != t.head then
        Error (Printf.sprintf "keys not strictly sorted at %d" k)
      else if Tm.peek n.Dnode.prev != prev then
        Error (Printf.sprintf "bad prev pointer at key %d" k)
      else go n (Tm.peek n.Dnode.next)
  in
  go t.head (Tm.peek t.head.Dnode.next)

let pool_stats t = Mempool.stats t.pool
let pool_live t = Mempool.live t.pool
let hazard_metrics t = t.mode.Mode.hazard_metrics ()
