(* [root] stays field 1: white-box tests reach it there. *)
type t = {
  mode : Tnode.t Mode.t;
  root : Tnode.t;  (** sentinel, key = [max_int]; real tree on its left *)
}

(* A resumed window starts at the node the last one handed off, so its
   budget is at least 2 ([resume_floor]). *)
let create ~mode ?(window = 16) ?scatter ?adaptive ?fusion
    ?strategy ?rr_config ?(max_attempts = 8) () =
  (match mode with
  | Mode.Tmhp | Mode.Ref | Mode.Ebr ->
      invalid_arg "Hoh_bst_int: only Rr_kind and Htm modes are supported"
  | Mode.Rr_kind _ | Mode.Htm -> ());
  let pool = Tnode.make_pool ?strategy () in
  let mode =
    Mode.create mode ~pool ~deleted:Tnode.deleted
      ~mark_deleted:Tnode.mark_deleted
      ~window ?scatter ?adaptive ?fusion
      ~max_attempts ~resume_floor:2 ?rr_config ()
  in
  { mode; root = Tnode.sentinel ~key:max_int }

let name t = t.mode.Mode.name
let window_size t = Mode.window_size t.mode
let fuse_budget t ~thread = Mode.fuse_budget t.mode ~thread

(* One windowed descent. Examines up to [budget] nodes; on exhaustion hands
   off the last examined node, from which the resuming transaction routes
   again. [`Found (p, side, curr)] carries the side ([true] = left) of the
   edge p -> curr: BST order fixes it, since the branch was routed by
   [p]'s key in this same transaction. The start node never hits: it is
   the root sentinel, whose key is above every key, or a node handed off
   after it routed away from [key], and a live node's key never changes.
   So a hit always has a parent. *)
let descend txn ~key ~start ~budget =
  let rec go parent pside curr i =
    match Tnode.route txn curr key with
    | Tnode.Hit _ ->
        assert (parent != Tnode.nil);
        `Found (parent, pside, curr)
    | Tnode.Left c -> step curr true c i
    | Tnode.Right c -> step curr false c i
  and step curr side c i =
    if c == Tnode.nil then `Absent (curr, side)
    else if i >= budget then `Window curr
    else go curr side c (i + 1)
  in
  go Tnode.nil true start 1

let apply t ~thread ?lookup key ~site ~on_found ~on_notfound =
  if key <= min_int + 1 || key >= max_int then
    invalid_arg "Hoh_bst_int: key out of range";
  Mode.apply t.mode ~thread ~site ?lookup (fun txn ~start ->
      let start, budget = Mode.start_point t.mode ~thread ~root:t.root start in
      match descend txn ~key ~start ~budget with
      | `Found (p, side, curr) -> on_found txn ~parent:p ~side ~curr
      | `Absent (p, side) -> on_notfound txn ~parent:p ~side
      | `Window c -> Rr.Hoh.Hand_off c)

let lookup_s t ~thread key =
  apply t ~thread ~lookup:true key ~site:"bst_int.lookup"
    ~on_found:(fun _ ~parent:_ ~side:_ ~curr:_ -> Rr.Hoh.Finish true)
    ~on_notfound:(fun _ ~parent:_ ~side:_ -> Rr.Hoh.Finish false)

let link n side = if side then n.Tnode.left else n.Tnode.right

(* An update acts from [parent], whose link it writes: a window resumed
   there reaches [curr] within the resume floor of 2. *)
let insert_s t ~thread key =
  let outer = Tm.current_txn () and spare = ref None in
  let result =
    apply t ~thread key ~site:"bst_int.insert"
      ~on_found:(fun _ ~parent:_ ~side:_ ~curr:_ -> Rr.Hoh.Finish false)
      ~on_notfound:(fun txn ~parent ~side ->
        Rr.Hoh.act txn ~anchor:parent (fun () ->
            let n = Mode.take_spare t.mode ~outer txn spare Tnode.alloc in
            Tnode.set_key n key;
            Tm.write txn (link parent side) (n :> Tnode.t);
            true))
  in
  Mode.give_back_spare t.mode ~thread spare;
  result

(* Replace [parent]'s edge to [curr], on [side], with [child] (zero- or
   one-child splice). *)
let splice t txn ~parent ~side ~curr child =
  Tm.write txn (link parent side) child;
  t.mode.Mode.invalidate txn curr;
  t.mode.Mode.dispose txn curr

(* Two-child removal, by copy: a fresh node carrying the key of [lm], the
   leftmost descendant of the right child, takes [curr]'s place, and [lm]
   is extracted. No live key changes, but [lm]'s key moves above the
   curr..lm path, where a search resumed on that path would miss it: the
   whole path is revoked, and both [curr] and [lm] are disposed. *)
let remove_two_children t txn ~copy ~parent ~side ~curr ~left ~right =
  let rec find_leftmost parent node acc =
    let l = Tm.read txn node.Tnode.left in
    if l == Tnode.nil then (parent, node, node :: acc)
    else find_leftmost node l (node :: acc)
  in
  let lparent, lm, path = find_leftmost curr right [ curr ] in
  Tnode.set_key copy (Tnode.key txn lm);
  let copy = (copy :> Tnode.t) in
  let promoted = Tm.read txn lm.Tnode.right in
  Tm.write txn copy.Tnode.left left;
  if Tnode.equal lparent curr then
    (* [lm] is curr's right child: its right subtree takes its place. *)
    Tm.write txn copy.Tnode.right promoted
  else begin
    Tm.write txn lparent.Tnode.left promoted;
    Tm.write txn copy.Tnode.right right
  end;
  Tm.write txn (link parent side) copy;
  List.iter (fun n -> t.mode.Mode.invalidate txn n) path;
  t.mode.Mode.dispose txn curr;
  t.mode.Mode.dispose txn lm

let remove_s t ~thread key =
  let outer = Tm.current_txn () and spare = ref None in
  let r, s =
    apply t ~thread key ~site:"bst_int.remove"
      ~on_found:(fun txn ~parent ~side ~curr ->
        Rr.Hoh.act txn ~anchor:parent (fun () ->
            let l = Tm.read txn curr.Tnode.left in
            let r = Tm.read txn curr.Tnode.right in
            if l == Tnode.nil then splice t txn ~parent ~side ~curr r
            else if r == Tnode.nil then splice t txn ~parent ~side ~curr l
            else
              remove_two_children t txn
                ~copy:(Mode.take_spare t.mode ~outer txn spare Tnode.alloc)
                ~parent ~side ~curr ~left:l ~right:r;
            true))
      ~on_notfound:(fun _ ~parent:_ ~side:_ -> Rr.Hoh.Finish false)
  in
  Mode.give_back_spare t.mode ~thread spare;
  (r, s, s)

let insert t ~thread key = fst (insert_s t ~thread key)

let remove t ~thread key =
  let r, _, _ = remove_s t ~thread key in
  r

let lookup t ~thread key = fst (lookup_s t ~thread key)

let finalize_thread t ~thread = t.mode.Mode.finalize ~thread
let drain t = t.mode.Mode.drain ()

let rec fold_infix acc n f =
  if n == Tnode.nil then acc
  else
    let acc = fold_infix acc (Tm.peek n.Tnode.left) f in
    let acc = f acc n in
    fold_infix acc (Tm.peek n.Tnode.right) f

let to_list t =
  List.rev
    (fold_infix [] (Tm.peek t.root.Tnode.left) (fun acc n ->
         n.Tnode.key :: acc))

let size t = fold_infix 0 (Tm.peek t.root.Tnode.left) (fun acc _ -> acc + 1)

let depth t =
  let rec go n =
    if n == Tnode.nil then 0
    else 1 + max (go (Tm.peek n.Tnode.left)) (go (Tm.peek n.Tnode.right))
  in
  go (Tm.peek t.root.Tnode.left)

let check t =
  let exception Bad of string in
  let rec go n ~lo ~hi =
    if n != Tnode.nil then begin
      let k = n.Tnode.key in
      if Tnode.peek_deleted n then
        raise (Bad (Printf.sprintf "deleted node %d linked" n.Tnode.id));
      if not (Mempool.is_live t.mode.Mode.pool n) then
        raise (Bad (Printf.sprintf "freed node %d linked" n.Tnode.id));
      if not (k > lo && k < hi) then
        raise (Bad (Printf.sprintf "BST ordering violated at key %d" k));
      go (Tm.peek n.Tnode.left) ~lo ~hi:k;
      go (Tm.peek n.Tnode.right) ~lo:k ~hi
    end
  in
  match go (Tm.peek t.root.Tnode.left) ~lo:min_int ~hi:max_int with
  | () -> Ok ()
  | exception Bad msg -> Error msg

let pool_stats t = Mempool.stats t.mode.Mode.pool
let pool_live t = Mempool.live t.mode.Mode.pool
let hazard_metrics t = t.mode.Mode.hazard_metrics ()
