(* [heads] stays field 1: white-box tests reach it there. *)
type t = {
  mode : Lnode.t Mode.t;
  heads : Lnode.t array;  (* one sentinel per bucket; the list has one *)
  hashed : bool;
}

let create ~mode ?buckets ?(window = 8) ?scatter ?adaptive ?fusion
    ?strategy ?rr_config ?hp_threshold ?max_attempts () =
  let n = Option.value buckets ~default:1 in
  if n < 1 then invalid_arg "Hoh_list.create: buckets < 1";
  let pool = Lnode.make_pool ?strategy () in
  let mode =
    Mode.create mode ~pool ~deleted:Lnode.deleted
      ~mark_deleted:Lnode.mark_deleted
      ~window ?scatter ?adaptive ?fusion
      ?max_attempts ?rr_config ?hp_threshold ()
  in
  { mode; heads = Array.init n (fun _ -> Lnode.sentinel ());
    hashed = buckets <> None }

let name t = if t.hashed then t.mode.Mode.name ^ "-hash" else t.mode.Mode.name
let window_size t = Mode.window_size t.mode
let fuse_budget t ~thread = Mode.fuse_budget t.mode ~thread

let head_of t key =
  let n = Array.length t.heads in
  if n = 1 then t.heads.(0)
  else
    let h = key * 0x9e3779b1 in
    t.heads.((h lxor (h lsr 16)) land max_int mod n)

(* The step of Listing 5's [Apply], from the key's bucket sentinel.
   [on_found txn ~prev ~curr] runs when a node with the key is found;
   [on_notfound txn ~prev ~curr] when the key is absent ([curr] is the
   first node past it, or [Lnode.nil] at the tail). Each returns the
   window's outcome: an update writes through [Rr.Hoh.act] anchored at
   [prev], whose [next] it writes. *)
let apply t ~thread ?lookup key ~site ~on_found ~on_notfound =
  if key <= min_int + 1 then invalid_arg "Hoh_list: key out of range";
  let root = head_of t key in
  Mode.apply t.mode ~thread ~site ?lookup (fun txn ~start ->
      let prev, budget = Mode.start_point t.mode ~thread ~root start in
      match List_walk.walk txn ~key ~prev ~budget with
      | `Found (prev, curr) -> on_found txn ~prev ~curr
      | `Absent (prev, curr) -> on_notfound txn ~prev ~curr
      | `Window c -> Rr.Hoh.Hand_off c)

let lookup_s t ~thread key =
  apply t ~thread ~lookup:true key
    ~site:(if t.hashed then "hashset.lookup" else "slist.lookup")
    ~on_found:(fun _ ~prev:_ ~curr:_ -> Rr.Hoh.Finish true)
    ~on_notfound:(fun _ ~prev:_ ~curr:_ -> Rr.Hoh.Finish false)

let insert_s t ~thread key =
  let outer = Tm.current_txn () and spare = ref None in
  let result =
    apply t ~thread key
      ~site:(if t.hashed then "hashset.insert" else "slist.insert")
      ~on_found:(fun _ ~prev:_ ~curr:_ -> Rr.Hoh.Finish false)
      ~on_notfound:(fun txn ~prev ~curr ->
        Rr.Hoh.act txn ~anchor:prev (fun () ->
            let n = Mode.take_spare t.mode ~outer txn spare Lnode.alloc in
            Lnode.set_key n key;
            let n = (n :> Lnode.t) in
            Tm.write txn n.Lnode.next curr;
            Tm.write txn prev.Lnode.next n;
            true))
  in
  Mode.give_back_spare t.mode ~thread ~outer spare;
  result

let remove_s t ~thread key =
  let r, s =
    apply t ~thread key
      ~site:(if t.hashed then "hashset.remove" else "slist.remove")
      ~on_found:(fun txn ~prev ~curr ->
        Rr.Hoh.act txn ~anchor:prev (fun () ->
            Tm.write txn prev.Lnode.next (Tm.read txn curr.Lnode.next);
            t.mode.Mode.invalidate txn curr;
            t.mode.Mode.dispose txn curr;
            true))
      ~on_notfound:(fun _ ~prev:_ ~curr:_ -> Rr.Hoh.Finish false)
  in
  (r, s, s)

let insert t ~thread key = fst (insert_s t ~thread key)

let remove t ~thread key =
  let r, _, _ = remove_s t ~thread key in
  r

let lookup t ~thread key = fst (lookup_s t ~thread key)

let finalize_thread t ~thread = t.mode.Mode.finalize ~thread
let drain t = t.mode.Mode.drain ()

(* [f] over each bucket's nodes in chain order. A walk tests the mark
   before following [next], so a self-linked node (the corruption {!check}
   reports) ends its bucket's walk instead of spinning it. *)
let fold t f acc =
  Array.fold_left
    (fun acc head ->
      let rec go acc n =
        if n == Lnode.nil then acc
        else if Lnode.peek_deleted n then f acc n
        else go (f acc n) (Tm.peek n.Lnode.next)
      in
      go acc (Tm.peek head.Lnode.next))
    acc t.heads

let to_list t =
  let keys = fold t (fun acc n -> n.Lnode.key :: acc) [] in
  if Array.length t.heads = 1 then List.rev keys else List.sort compare keys

let size t = fold t (fun acc _ -> acc + 1) 0

let check t =
  let rec go head prev_key n =
    if n == Lnode.nil then Ok ()
    else
      let k = n.Lnode.key in
      if Lnode.peek_deleted n then
        Error (Printf.sprintf "deleted node %d (key %d) linked" n.Lnode.id k)
      else if not (Mempool.is_live t.mode.Mode.pool n) then
        Error (Printf.sprintf "freed node %d (key %d) linked" n.Lnode.id k)
      else if k <= prev_key then
        Error (Printf.sprintf "keys not strictly sorted at %d" k)
      else if head_of t k != head then
        Error (Printf.sprintf "key %d in the wrong bucket" k)
      else go head k (Tm.peek n.Lnode.next)
  in
  Array.fold_left
    (fun r head ->
      Result.bind r (fun () -> go head min_int (Tm.peek head.Lnode.next)))
    (Ok ()) t.heads

let pool_stats t = Mempool.stats t.mode.Mode.pool
let pool_live t = Mempool.live t.mode.Mode.pool
let hazard_metrics t = t.mode.Mode.hazard_metrics ()
