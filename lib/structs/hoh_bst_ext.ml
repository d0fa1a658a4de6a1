(* [root] stays field 1: white-box tests reach it there. *)
type t = {
  mode : Tnode.t Mode.t;
  root : Tnode.t;  (** sentinel router, key = [max_int]; tree on its left *)
}

(* A resumed window needs a budget of at least 2; see [Hoh_bst_int]. *)
let create ~mode ?(window = 16) ?scatter ?adaptive ?fusion
    ?strategy ?rr_config ?hp_threshold ?(max_attempts = 8) () =
  (match mode with
  | Mode.Ref -> invalid_arg "Hoh_bst_ext: Ref mode is not supported"
  | Mode.Rr_kind _ | Mode.Htm | Mode.Tmhp | Mode.Ebr -> ());
  let pool = Tnode.make_pool ?strategy () in
  let mode =
    Mode.create mode ~pool ~deleted:Tnode.deleted
      ~mark_deleted:Tnode.mark_deleted
      ~window ?scatter ?adaptive ?fusion
      ~max_attempts ~resume_floor:2 ?rr_config ?hp_threshold ()
  in
  { mode; root = Tnode.sentinel ~key:max_int }

let name t = t.mode.Mode.name
let window_size t = Mode.window_size t.mode
let fuse_budget t ~thread = Mode.fuse_budget t.mode ~thread

let is_leaf txn n = Tm.read txn n.Tnode.left == Tnode.nil

(* A router sends keys below its own left and the rest right. *)
let child txn n key =
  match Tnode.route txn n key with
  | Tnode.Left c | Tnode.Right c | Tnode.Hit c -> c

(* Windowed descent to a leaf, tracking parent and grandparent. Hands off
   the last examined router; [`Leaf (gp, p, leaf)] may surface [gp = None]
   when the leaf was reached within two steps of the resume point. *)
let descend txn ~key ~start ~budget =
  let rec go gp p curr i =
    if is_leaf txn curr then `Leaf (gp, p, curr)
    else
      let c = child txn curr key in
      (* only the empty root lacks children *)
      if c == Tnode.nil then `Leaf (gp, p, curr)
      else if i >= budget then `Window curr
      else go p (Some curr) c (i + 1)
  in
  go None None start 1

(* [on_leaf txn ~start ~gp ~p ~leaf] with [p]/[gp] as available; [p =
   None] only when the tree is empty ([leaf] is then the root sentinel).
   An update acts from the node whose link it writes when the window saw
   it — [p] for an insert, [gp] for a removal — else from the window's
   [start]. *)
let apply t ~thread ?lookup key ~site ~on_leaf =
  if key <= min_int + 1 || key >= max_int - 1 then
    invalid_arg "Hoh_bst_ext: key out of range";
  Mode.apply t.mode ~thread ~site ?lookup (fun txn ~start ->
      let start, budget = Mode.start_point t.mode ~thread ~root:t.root start in
      match descend txn ~key ~start ~budget with
      | `Leaf (gp, p, leaf) ->
          on_leaf txn ~start ~gp ~p ~leaf
      | `Window c -> Rr.Hoh.Hand_off c)

let lookup_s t ~thread key =
  apply t ~thread ~lookup:true key ~site:"bst_ext.lookup"
    ~on_leaf:(fun txn ~start:_ ~gp:_ ~p:_ ~leaf ->
      Rr.Hoh.Finish
        (Tnode.equal leaf t.root = false && Tnode.key txn leaf = key))

let insert_s t ~thread key =
  (* Two spares: the new leaf and its router. *)
  let outer = Tm.current_txn () in
  let spare_leaf = ref None and spare_router = ref None in
  let take txn spare = Mode.take_spare t.mode ~outer txn spare Tnode.alloc in
  let result =
    apply t ~thread key ~site:"bst_ext.insert"
      ~on_leaf:(fun txn ~start ~gp:_ ~p ~leaf ->
        let anchor = Option.value p ~default:start in
        if Tnode.equal leaf t.root then
          Rr.Hoh.act txn ~anchor (fun () ->
              (* Empty tree: hang the first leaf off the sentinel. *)
              let nl = take txn spare_leaf in
              Tnode.set_key nl key;
              Tm.write txn t.root.Tnode.left (nl :> Tnode.t);
              true)
        else
          let lk = Tnode.key txn leaf in
          if lk = key then Rr.Hoh.Finish false
          else
            Rr.Hoh.act txn ~anchor (fun () ->
                let p = Option.get p in
                let nl = take txn spare_leaf
                and router = take txn spare_router in
                Tnode.set_key nl key;
                Tnode.set_key router (max key lk);
                let nl = (nl :> Tnode.t) and router = (router :> Tnode.t) in
                let lo, hi = if key < lk then (nl, leaf) else (leaf, nl) in
                Tm.write txn router.Tnode.left lo;
                Tm.write txn router.Tnode.right hi;
                Tm.write txn
                  (match Tnode.route txn p key with
                  | Tnode.Left _ -> p.Tnode.left
                  | Tnode.Right _ | Tnode.Hit _ -> p.Tnode.right)
                  router;
                true))
  in
  Mode.give_back_spare t.mode ~thread ~outer spare_leaf;
  Mode.give_back_spare t.mode ~thread ~outer spare_router;
  result

let remove_s t ~thread key =
  let r, s =
    apply t ~thread key ~site:"bst_ext.remove"
      ~on_leaf:(fun txn ~start ~gp ~p ~leaf ->
        let anchor = Option.value gp ~default:start in
        if Tnode.equal leaf t.root then Rr.Hoh.Finish false
        else if Tnode.key txn leaf <> key then Rr.Hoh.Finish false
        else
          match p with
          | None -> Rr.Hoh.Finish false (* unreachable: leaf has a parent *)
          | Some p when Tnode.equal p t.root ->
              Rr.Hoh.act txn ~anchor (fun () ->
                  (* Single-leaf tree: detach the leaf from the sentinel. *)
                  Tm.write txn t.root.Tnode.left Tnode.nil;
                  t.mode.Mode.invalidate txn leaf;
                  t.mode.Mode.dispose txn leaf;
                  true)
          | Some p ->
              Rr.Hoh.act txn ~anchor (fun () ->
                  let gp =
                    match gp with
                    | Some gp -> gp
                    | None ->
                        (* The resume point was too close to the leaf:
                           recover the grandparent with a full descent in
                           this transaction. *)
                        let rec from_root gp node =
                          if Tnode.equal node p then Option.get gp
                          else if node == Tnode.nil then assert false
                          else from_root (Some node) (child txn node key)
                        in
                        from_root None t.root
                  in
                  let sibling =
                    if Tnode.equal (Tm.read txn p.Tnode.left) leaf then
                      Tm.read txn p.Tnode.right
                    else Tm.read txn p.Tnode.left
                  in
                  if Tnode.equal (Tm.read txn gp.Tnode.left) p then
                    Tm.write txn gp.Tnode.left sibling
                  else Tm.write txn gp.Tnode.right sibling;
                  t.mode.Mode.invalidate txn p;
                  t.mode.Mode.invalidate txn leaf;
                  t.mode.Mode.dispose txn p;
                  t.mode.Mode.dispose txn leaf;
                  true))
  in
  (r, s, s)

let insert t ~thread key = fst (insert_s t ~thread key)

let remove t ~thread key =
  let r, _, _ = remove_s t ~thread key in
  r

let lookup t ~thread key = fst (lookup_s t ~thread key)

let finalize_thread t ~thread = t.mode.Mode.finalize ~thread
let drain t = t.mode.Mode.drain ()

let rec fold_leaves acc n f =
  if n == Tnode.nil then acc
  else
    let l = Tm.peek n.Tnode.left in
    if l == Tnode.nil then f acc n
    else
      let acc = fold_leaves acc l f in
      fold_leaves acc (Tm.peek n.Tnode.right) f

let to_list t =
  List.rev
    (fold_leaves [] (Tm.peek t.root.Tnode.left) (fun acc n ->
         n.Tnode.key :: acc))

let size t = fold_leaves 0 (Tm.peek t.root.Tnode.left) (fun acc _ -> acc + 1)

let depth t =
  let rec go n =
    if n == Tnode.nil then 0
    else 1 + max (go (Tm.peek n.Tnode.left)) (go (Tm.peek n.Tnode.right))
  in
  go (Tm.peek t.root.Tnode.left)

let check t =
  let exception Bad of string in
  let node_ok n =
    if Tnode.peek_deleted n then
      raise (Bad (Printf.sprintf "deleted node %d linked" n.Tnode.id));
    if not (Mempool.is_live t.mode.Mode.pool n) then
      raise (Bad (Printf.sprintf "freed node %d linked" n.Tnode.id))
  in
  (* Routers have exactly two children. Routing correctness is a bounds
     invariant: a router with key [k] keeps its left subtree in [lo, k) and
     its right subtree in [k, hi); router keys may go stale after removals
     (they need not equal any present key), but bounds must hold so
     descents stay deterministic. *)
  let rec go node ~lo ~hi =
    node_ok node;
    let k = node.Tnode.key in
    let l = Tm.peek node.Tnode.left and r = Tm.peek node.Tnode.right in
    match (l == Tnode.nil, r == Tnode.nil) with
    | true, true ->
        if not (k >= lo && k < hi) then
          raise (Bad (Printf.sprintf "leaf %d out of bounds" k))
    | false, false ->
        if not (k > lo && k < hi) then
          raise (Bad (Printf.sprintf "router %d out of bounds" k));
        go l ~lo ~hi:k;
        go r ~lo:k ~hi
    | _ -> raise (Bad (Printf.sprintf "router %d with one child" node.Tnode.id))
  in
  let n = Tm.peek t.root.Tnode.left in
  if n == Tnode.nil then Ok ()
  else
    match go n ~lo:min_int ~hi:max_int with
    | () -> Ok ()
    | exception Bad m -> Error m

let pool_stats t = Mempool.stats t.mode.Mode.pool
let pool_live t = Mempool.live t.mode.Mode.pool
let hazard_metrics t = t.mode.Mode.hazard_metrics ()
