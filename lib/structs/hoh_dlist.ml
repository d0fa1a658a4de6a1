(* [head] stays field 1: white-box tests reach it there. [split_unlink]
   is off under [Htm], whose whole operation is one transaction. *)
type t = {
  mode : Dnode.t Mode.t;
  head : Dnode.t;
  split_unlink : bool;
}

let create ~mode ?(window = 8) ?scatter ?adaptive ?fusion
    ?strategy ?rr_config ?hp_threshold ?max_attempts ?(split_unlink = true)
    () =
  let pool = Dnode.make_pool ?strategy () in
  let split_unlink =
    match mode with Mode.Htm -> false | _ -> split_unlink
  in
  let mode =
    Mode.create mode ~pool ~deleted:Dnode.deleted
      ~mark_deleted:Dnode.mark_deleted
      ~window ?scatter ?adaptive ?fusion
      ?max_attempts ?rr_config ?hp_threshold ()
  in
  { mode; head = Dnode.sentinel (); split_unlink }

let name t = t.mode.Mode.name
let window_size t = Mode.window_size t.mode
let fuse_budget t ~thread = Mode.fuse_budget t.mode ~thread

(* {!List_walk.walk} over [Dnode]s: the [while] of Listing 5. Reads at
   most [budget] nodes starting at [prev.next]; each key load is validated
   by the read of the node's [next] after it (see [Lnode.key]). *)
let walk txn ~key ~prev ~budget =
  let rec go prev curr i =
    if curr == Dnode.nil then `Absent (prev, curr)
    else
      let k = curr.Dnode.key in
      let next = Tm.read txn curr.Dnode.next in
      if k = key then `Found (prev, curr)
      else if k > key then `Absent (prev, curr)
      else if i >= budget then `Window curr
      else go curr next (i + 1)
  in
  go prev (Tm.read txn prev.Dnode.next) 1

let apply t ~thread ?lookup key ~site ~on_found ~on_notfound =
  if key <= min_int + 1 then invalid_arg "Hoh_dlist: key out of range";
  Mode.apply t.mode ~thread ~site ?lookup (fun txn ~start ->
      let prev, budget = Mode.start_point t.mode ~thread ~root:t.head start in
      match walk txn ~key ~prev ~budget with
      | `Found (prev, curr) -> on_found txn ~prev ~curr
      | `Absent (prev, curr) -> on_notfound txn ~prev ~curr
      | `Window c -> Rr.Hoh.Hand_off c)

let lookup_s t ~thread key =
  apply t ~thread ~lookup:true key ~site:"dlist.lookup"
    ~on_found:(fun _ ~prev:_ ~curr:_ -> Rr.Hoh.Finish true)
    ~on_notfound:(fun _ ~prev:_ ~curr:_ -> Rr.Hoh.Finish false)

(* An insert acts from [prev], whose [next] it writes. *)
let insert_s t ~thread key =
  let outer = Tm.current_txn () and spare = ref None in
  let result =
    apply t ~thread key ~site:"dlist.insert"
      ~on_found:(fun _ ~prev:_ ~curr:_ -> Rr.Hoh.Finish false)
      ~on_notfound:(fun txn ~prev ~curr ->
        Rr.Hoh.act txn ~anchor:prev (fun () ->
            let n = Mode.take_spare t.mode ~outer txn spare Dnode.alloc in
            Dnode.set_key n key;
            let n = (n :> Dnode.t) in
            Tm.write txn n.Dnode.prev prev;
            Tm.write txn n.Dnode.next curr;
            Tm.write txn prev.Dnode.next n;
            if curr != Dnode.nil then Tm.write txn curr.Dnode.prev n;
            true))
  in
  Mode.give_back_spare t.mode ~thread ~outer spare;
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
  let phase = ref Traversing in
  let reserve_stamp = ref 0 in
  let flex = ref false in
  let result, stamp =
    Mode.apply t.mode ~thread ~site:"dlist.remove" (fun txn ~start ->
      let traverse ~start =
        let prev, budget =
          Mode.start_point t.mode ~thread ~root:t.head start
        in
        match walk txn ~key ~prev ~budget with
        | `Found (prev, curr) ->
            if t.split_unlink then begin
              (* Reserve the target and commit; unlink in the next,
                 write-only transaction, which acts from [curr]. *)
              Tm.assign txn phase (Unlink curr);
              Tm.defer txn (fun () -> reserve_stamp := Tm.commit_stamp txn);
              Rr.Hoh.Anchor curr
            end
            else
              Rr.Hoh.act txn ~anchor:prev (fun () ->
                  unlink_and_reclaim t txn curr;
                  true)
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
                Tm.assign txn flex true;
                Rr.Hoh.Finish false
              end
              else begin
                (* Spurious invalidation is possible: retry the whole
                   operation (Sec. 4.2). *)
                Tm.assign txn phase Traversing;
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
    else go (n.Dnode.key :: acc) (Tm.peek n.Dnode.next)
  in
  go [] (Tm.peek t.head.Dnode.next)

let size t = List.length (to_list t)

let check t =
  let rec go prev n =
    if n == Dnode.nil then Ok ()
    else
      let k = n.Dnode.key in
      if Dnode.peek_deleted n then
        Error (Printf.sprintf "deleted node %d (key %d) linked" n.Dnode.id k)
      else if not (Mempool.is_live t.mode.Mode.pool n) then
        Error (Printf.sprintf "freed node %d (key %d) linked" n.Dnode.id k)
      else if k <= prev.Dnode.key && prev != t.head then
        Error (Printf.sprintf "keys not strictly sorted at %d" k)
      else if Tm.peek n.Dnode.prev != prev then
        Error (Printf.sprintf "bad prev pointer at key %d" k)
      else go n (Tm.peek n.Dnode.next)
  in
  go t.head (Tm.peek t.head.Dnode.next)

let pool_stats t = Mempool.stats t.mode.Mode.pool
let pool_live t = Mempool.live t.mode.Mode.pool
let hazard_metrics t = t.mode.Mode.hazard_metrics ()
