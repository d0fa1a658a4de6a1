module Window = Rr.Hoh.Window

type t = {
  mode : Lnode.t Mode.t;
  heads : Lnode.t array;
  window : Window.t;
  pool : Lnode.t Mempool.t;
  max_attempts : int option;
}

let create ~mode ?(buckets = 64) ?(window = 8) ?(scatter = true) ?adaptive
    ?fusion ?strategy ?rr_config ?hp_threshold ?max_attempts () =
  if buckets < 1 then invalid_arg "Hoh_hashset.create: buckets < 1";
  let pool = Lnode.make_pool ?strategy () in
  let mode =
    Mode.create mode ~pool
      ~deleted:Lnode.deleted ~mark_deleted:Lnode.mark_deleted
      ~hash:Lnode.hash ~equal:Lnode.equal ?rr_config ?hp_threshold ()
  in
  {
    mode;
    heads = Array.init buckets (fun _ -> Lnode.sentinel ());
    window = Window.create ~scatter ?adaptive ?fusion window;
    pool;
    max_attempts;
  }

let name t = t.mode.Mode.name ^ "-hash"

let bucket_of t key =
  let h = key * 0x9e3779b1 in
  t.heads.((h lxor (h lsr 16)) land max_int mod Array.length t.heads)

(* The per-bucket Apply is Listing 5 verbatim, with the bucket's sentinel
   in place of the global list head. *)
let apply t ~thread ?(read_phase = false) key ~site ~on_found ~on_notfound =
  if key <= min_int + 1 then invalid_arg "Hoh_hashset: key out of range";
  let head = bucket_of t key in
  Rr.Hoh.apply_stamped ~rr:t.mode.Mode.ops ~site ?max_attempts:t.max_attempts
    ~read_phase
    ~window:(t.window, thread)
    (fun txn ~start ->
      let prev, budget =
        match start with
        | Some n -> (n, Window.budget t.window ~thread)
        | None ->
            ( head,
              if t.mode.Mode.whole_op then max_int
              else Window.first_budget t.window ~thread )
      in
      match List_walk.walk txn ~key ~prev ~budget with
      | `Found (prev, curr) -> Rr.Hoh.Finish (on_found txn ~prev ~curr)
      | `Absent (prev, curr) -> Rr.Hoh.Finish (on_notfound txn ~prev ~curr)
      | `Window c -> Rr.Hoh.Hand_off c)

let lookup_s t ~thread key =
  apply t ~thread ~read_phase:t.mode.Mode.ro_hint key ~site:"hashset.lookup"
    ~on_found:(fun _ ~prev:_ ~curr:_ -> true)
    ~on_notfound:(fun _ ~prev:_ ~curr:_ -> false)

let insert_s t ~thread key =
  let outer = Tm.current_txn () and spare = ref None in
  let result =
    apply t ~thread key ~site:"hashset.insert"
      ~on_found:(fun _ ~prev:_ ~curr:_ -> false)
      ~on_notfound:(fun txn ~prev ~curr ->
        let n = Mode.take_spare t.pool ~thread ~outer spare Lnode.alloc in
        Lnode.set_key n key;
        Tm.write txn n.Lnode.next curr;
        Tm.write txn prev.Lnode.next n;
        Tm.defer txn (fun () -> spare := None);
        true)
  in
  Mode.give_back_spare t.pool ~thread ~outer spare;
  result

let remove_s t ~thread key =
  apply t ~thread key ~site:"hashset.remove"
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

let fold_buckets t f acc =
  Array.fold_left
    (fun acc head ->
      (* stops at a self-linked node, as {!Hoh_list.to_list} does *)
      let rec go acc n =
        if n == Lnode.nil then acc
        else if Lnode.peek_deleted n then f acc n
        else go (f acc n) (Tm.peek n.Lnode.next)
      in
      go acc (Tm.peek head.Lnode.next))
    acc t.heads

let to_list t =
  List.sort compare (fold_buckets t (fun acc n -> n.Lnode.key :: acc) [])

let size t = fold_buckets t (fun acc _ -> acc + 1) 0

let check t =
  let exception Bad of string in
  try
    Array.iter
      (fun head ->
        let rec go prev_key n =
          if n != Lnode.nil then begin
            let k = n.Lnode.key in
            if Lnode.peek_deleted n then
              raise (Bad (Printf.sprintf "deleted node %d linked" n.Lnode.id));
            if not (Mempool.is_live t.pool n) then
              raise (Bad (Printf.sprintf "freed node %d linked" n.Lnode.id));
            if k <= prev_key then
              raise (Bad (Printf.sprintf "bucket not sorted at %d" k));
            if bucket_of t k != head then
              raise (Bad (Printf.sprintf "key %d in the wrong bucket" k));
            go k (Tm.peek n.Lnode.next)
          end
        in
        go min_int (Tm.peek head.Lnode.next))
      t.heads;
    Ok ()
  with Bad m -> Error m

let pool_stats t = Mempool.stats t.pool
let pool_live t = Mempool.live t.pool
let hazard_metrics t = t.mode.Mode.hazard_metrics ()
