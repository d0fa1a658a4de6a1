module Window = Rr.Hoh.Window

type t = {
  mode : Lnode.t Mode.t;
  head : Lnode.t;
  window : Window.t;
  pool : Lnode.t Mempool.t;
  max_attempts : int option;
}

let create ~mode ?(window = 8) ?(scatter = true) ?adaptive ?fusion
    ?strategy ?rr_config ?hp_threshold ?max_attempts () =
  let pool = Lnode.make_pool ?strategy () in
  let mode =
    Mode.create mode ~pool
      ~deleted:Lnode.deleted ~mark_deleted:Lnode.mark_deleted
      ~hash:Lnode.hash ~equal:Lnode.equal ?rr_config ?hp_threshold ()
  in
  { mode; head = Lnode.sentinel ();
    window = Window.create ~scatter ?adaptive ?fusion window;
    pool; max_attempts }

let name t = t.mode.Mode.name
let window_size t = Window.size t.window
let fuse_budget t ~thread = Window.fuse_budget t.window ~thread

(* The [Apply] function of Listing 5. [on_found txn ~prev ~curr] runs when a
   node with the key is found; [on_notfound txn ~prev ~curr] when the key is
   absent ([curr] is the first node past it, or [Lnode.nil] at the tail). *)
let apply t ~thread ?(read_phase = false) key ~site ~on_found ~on_notfound =
  if key <= min_int + 1 then invalid_arg "Hoh_list: key out of range";
  Rr.Hoh.apply_stamped ~rr:t.mode.Mode.ops ~site ?max_attempts:t.max_attempts
    ~read_phase
    ~window:(t.window, thread)
    (fun txn ~start ->
      let prev, budget =
        match start with
        | Some n -> (n, Window.budget t.window ~thread)
        | None ->
            ( t.head,
              if t.mode.Mode.whole_op then max_int
              else Window.first_budget t.window ~thread )
      in
      match List_walk.walk txn ~key ~prev ~budget with
      | `Found (prev, curr) -> Rr.Hoh.Finish (on_found txn ~prev ~curr)
      | `Absent (prev, curr) -> Rr.Hoh.Finish (on_notfound txn ~prev ~curr)
      | `Window c -> Rr.Hoh.Hand_off c)

let lookup_s t ~thread key =
  apply t ~thread ~read_phase:t.mode.Mode.ro_hint key ~site:"slist.lookup"
    ~on_found:(fun _ ~prev:_ ~curr:_ -> true)
    ~on_notfound:(fun _ ~prev:_ ~curr:_ -> false)

let insert_s t ~thread key =
  let outer = Tm.current_txn () and spare = ref None in
  let result =
    apply t ~thread key ~site:"slist.insert"
      ~on_found:(fun _ ~prev:_ ~curr:_ -> false)
      ~on_notfound:(fun txn ~prev ~curr ->
        let n = Mode.take_spare t.pool ~thread ~outer spare Lnode.alloc in
        Tm.write txn n.Lnode.key key;
        Tm.write txn n.Lnode.next curr;
        Tm.write txn prev.Lnode.next n;
        Tm.defer txn (fun () -> spare := None);
        true)
  in
  Mode.give_back_spare t.pool ~thread ~outer spare;
  result

let remove_s t ~thread key =
  ignore thread;
  apply t ~thread key ~site:"slist.remove"
    ~on_found:(fun txn ~prev ~curr ->
      Tm.write txn prev.Lnode.next (Tm.read txn curr.Lnode.next);
      t.mode.Mode.invalidate txn curr;
      t.mode.Mode.dispose txn curr;
      true)
    ~on_notfound:(fun _ ~prev:_ ~curr:_ -> false)

let insert t ~thread key = fst (insert_s t ~thread key)
let remove t ~thread key = fst (remove_s t ~thread key)
let lookup t ~thread key = fst (lookup_s t ~thread key)

let finalize_thread t ~thread = t.mode.Mode.finalize ~thread
let drain t = t.mode.Mode.drain ()

(* Tests the mark before following [next], so a self-linked node (the
   corruption {!check} reports) ends the walk instead of spinning it. *)
let to_list t =
  let rec go acc n =
    if n == Lnode.nil then List.rev acc
    else
      let acc = Tm.peek n.Lnode.key :: acc in
      if Lnode.peek_deleted n then List.rev acc
      else go acc (Tm.peek n.Lnode.next)
  in
  go [] (Tm.peek t.head.Lnode.next)

let size t = List.length (to_list t)

let check t =
  let rec go prev_key n =
    if n == Lnode.nil then Ok ()
    else
      let k = Tm.peek n.Lnode.key in
      if k = Lnode.poisoned_key then
        Error (Printf.sprintf "poisoned node %d linked" n.Lnode.id)
      else if Lnode.peek_deleted n then
        Error (Printf.sprintf "deleted node %d (key %d) linked" n.Lnode.id k)
      else if not (Mempool.is_live t.pool n) then
        Error (Printf.sprintf "freed node %d (key %d) linked" n.Lnode.id k)
      else if k <= prev_key then
        Error (Printf.sprintf "keys not strictly sorted at %d" k)
      else go k (Tm.peek n.Lnode.next)
  in
  go min_int (Tm.peek t.head.Lnode.next)

let pool_stats t = Mempool.stats t.pool
let pool_live t = Mempool.live t.pool
let hazard_metrics t = t.mode.Mode.hazard_metrics ()
