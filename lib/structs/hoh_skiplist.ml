(* [head] stays field 1: white-box tests reach it there. *)
type t = {
  mode : Snode.t Mode.t;
  head : Snode.t;
  seed : int;
}

let create ~mode ?(window = 16) ?scatter ?adaptive ?fusion
    ?strategy ?rr_config ?hp_threshold ?(max_attempts = 8) ?(seed = 42) () =
  (match mode with
  | Mode.Ref -> invalid_arg "Hoh_skiplist: Ref mode is not supported"
  | Mode.Rr_kind _ | Mode.Htm | Mode.Tmhp | Mode.Ebr -> ());
  let pool = Snode.make_pool ?strategy () in
  let mode =
    Mode.create mode ~pool ~deleted:Snode.deleted
      ~mark_deleted:Snode.mark_deleted
      ~window ?scatter ?adaptive ?fusion
      ~max_attempts ?rr_config ?hp_threshold ()
  in
  { mode; head = Snode.sentinel (); seed }

let name t = t.mode.Mode.name ^ "-skip"
let window_size t = Mode.window_size t.mode
let fuse_budget t ~thread = Mode.fuse_budget t.mode ~thread

(* Geometric tower heights (p = 1/2) from a seeded hash of the key (the
   splitmix64 finalizer, its constants cut to OCaml's 63 bits), so the same
   keys build the same towers whichever thread inserts them. *)
let level_of t key =
  let h = (key + (t.seed * 0x1e3779b97f4a7c15)) land max_int in
  let h = (h lxor (h lsr 30)) * 0x3f58476d1ce4e5b9 in
  let h = (h lxor (h lsr 27)) * 0x14d049bb133111eb in
  let h = h lxor (h lsr 31) in
  let rec go lvl bits =
    if lvl >= Snode.max_level || bits land 1 = 0 then lvl
    else go (lvl + 1) (bits lsr 1)
  in
  1 + go 0 (h land max_int)

exception Stale_hint

(* TxSan: record a pred-array entry as a carried hint (its shadow
   generation is captured when the noting transaction commits). The head
   sentinel is not pool-backed and never reclaimed, so it is not noted. *)
let note_hint txn t node =
  if San.enabled () && not (Snode.equal node t.head) then
    San.hint_note ~tid:(Tm.thread_id txn) ~node:(Mempool.san_key t.mode.Mode.pool node)

(* Full descent inside the current transaction, refreshing every hint;
   the fallback when a hint from an earlier window was removed. [m] is
   [node]'s level-[lvl] link, read once and carried. *)
let collect_preds txn t ~key preds =
  let rec walk node m lvl =
    let mn = Snode.next_below txn m key lvl in
    if mn != Snode.above then walk m mn lvl
    else begin
      preds.(lvl) <- node;
      note_hint txn t node;
      if lvl > 0 then walk node (Tm.read txn node.Snode.next.(lvl - 1)) (lvl - 1)
    end
  in
  let top = Snode.max_level - 1 in
  walk t.head (Tm.read txn t.head.Snode.next.(top)) top

(* Validate and fast-forward the hint for level [l]. A hint recorded in an
   earlier window is only usable if, in this transaction's snapshot, it is
   still a live level-[l] node below [key]: the deletion check alone is not
   enough, because a hint can be freed, recycled, and re-inserted elsewhere
   — alive again, but with a new key and a new (possibly shorter) tower, so
   walking level [l] from it would start outside the level-[l] list. Any
   live node with [key' < key] and [level > l] is on the sorted level-[l]
   list, so fast-forwarding from it is correct; newer inserts between hint
   and position are skipped by walking forward within the snapshot.
   Returns the predecessor and its level-[l] successor. *)
let fresh_pred txn t ~key ~preds l =
  let hint = preds.(l) in
  (* Dst.Inject bug #3: only the deletion check, as the original code did — a
     freed hint recycled under a new key/tower is then accepted and the
     level-[l] walk starts outside the level-[l] list (DESIGN.md). *)
  if
    (not (Snode.equal hint t.head))
    && (t.mode.Mode.deleted txn hint
       || (not (Dst.Inject.bug Dst.Inject.Stale_hint))
          && not (Snode.spans txn hint key l))
  then raise Stale_hint;
  (* The hint survived validation and is about to seed the level-[l] walk.
     Under bug #3 only deletion was checked, so the use counts as
     unrevalidated: TxSan flags it if the hint's shadow generation moved
     (freed or recycled) since the window that noted it. *)
  if San.enabled () && not (Snode.equal hint t.head) then
    San.hint_use ~tid:(Tm.thread_id txn) ~site:(Tm.txn_site txn)
      ~node:(Mempool.san_key t.mode.Mode.pool hint)
      ~revalidated:(not (Dst.Inject.bug Dst.Inject.Stale_hint));
  let rec go p m =
    let mn = Snode.next_below txn m key l in
    if mn != Snode.above then go m mn else (p, m)
  in
  go hint (Tm.read txn hint.Snode.next.(l))

let pred_with_hint txn t ~key ~preds l =
  try fresh_pred txn t ~key ~preds l
  with Stale_hint ->
    collect_preds txn t ~key preds;
    fresh_pred txn t ~key ~preds l

(* The windowed traversal. [on_position txn ~preds ~pred0 ~curr] runs once
   level 0 is reached and returns the window's outcome: [pred0 =
   preds.(0)] is fresh, [curr] its level-0 successor (the candidate match,
   or [Snode.nil]). An update writes through [Rr.Hoh.act] anchored at
   [pred0]; its acting window resumes there at level 0, with the upper
   [preds] kept as hints that [fresh_pred] revalidates. [m] is [node]'s
   level-[lvl] link, read once and carried. *)
let apply t ~thread ?lookup key ~site ~on_position =
  if key <= min_int + 1 then invalid_arg "Hoh_skiplist: key out of range";
  let preds = Array.make Snode.max_level t.head in
  let resume_level = ref (Snode.max_level - 1) in
  Mode.apply t.mode ~thread ~site ?lookup (fun txn ~start ->
      let node, budget = Mode.start_point t.mode ~thread ~root:t.head start in
      let lvl =
        match start with
        | Some _ -> !resume_level
        | None ->
            Array.fill preds 0 Snode.max_level t.head;
            Snode.max_level - 1
      in
      let rec walk node m lvl visited =
        let mn = Snode.next_below txn m key lvl in
        if mn != Snode.above then
          if visited >= budget then begin
            Tm.assign txn resume_level lvl;
            Rr.Hoh.Hand_off m
          end
          else walk m mn lvl (visited + 1)
        else begin
          preds.(lvl) <- node;
          note_hint txn t node;
          if lvl > 0 then
            walk node (Tm.read txn node.Snode.next.(lvl - 1)) (lvl - 1) visited
          else
            match on_position txn ~preds ~pred0:node ~curr:m with
            | Rr.Hoh.Anchor _ as o ->
                Tm.assign txn resume_level 0;
                o
            | o -> o
        end
      in
      walk node (Tm.read txn node.Snode.next.(lvl)) lvl 1)

let key_matches txn curr key =
  curr != Snode.nil && Snode.key txn curr = key

let lookup_s t ~thread key =
  apply t ~thread ~lookup:true key ~site:"skiplist.lookup"
    ~on_position:(fun txn ~preds:_ ~pred0:_ ~curr ->
      Rr.Hoh.Finish (key_matches txn curr key))

let insert_s t ~thread key =
  let outer = Tm.current_txn () and spare = ref None in
  let result =
    apply t ~thread key ~site:"skiplist.insert"
      ~on_position:(fun txn ~preds ~pred0 ~curr ->
        if key_matches txn curr key then Rr.Hoh.Finish false
        else
          Rr.Hoh.act txn ~anchor:pred0 (fun () ->
              let n = Mode.take_spare t.mode ~outer txn spare Snode.alloc in
              let height = level_of t key in
              Snode.set_key n key;
              Snode.set_level n height;
              let n = (n :> Snode.t) in
              Snode.link_top txn n ~height;
              for l = 0 to height - 1 do
                let p, succ = pred_with_hint txn t ~key ~preds l in
                Tm.write txn n.Snode.next.(l) succ;
                Tm.write txn p.Snode.next.(l) n
              done;
              true))
  in
  Mode.give_back_spare t.mode ~thread spare;
  result

let remove_s t ~thread key =
  let r, s =
    apply t ~thread key ~site:"skiplist.remove"
      ~on_position:(fun txn ~preds ~pred0 ~curr ->
        if not (key_matches txn curr key) then Rr.Hoh.Finish false
        else
          Rr.Hoh.act txn ~anchor:pred0 (fun () ->
              let height = Snode.level txn curr in
              for l = 0 to height - 1 do
                let p, succ = pred_with_hint txn t ~key ~preds l in
                (* [p] is the rightmost node below [key] at level l, so its
                   successor at level l is [curr] in this snapshot *)
                assert (Snode.equal succ curr);
                Tm.write txn p.Snode.next.(l) (Tm.read txn curr.Snode.next.(l))
              done;
              (* The deletion mark is the hint-validity marker in every
                 mode. It overwrites [curr]'s top link, so it goes in after
                 the splice, which reads [curr]'s links. *)
              Snode.mark_deleted txn curr;
              t.mode.Mode.invalidate txn curr;
              t.mode.Mode.dispose txn curr;
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

let to_list t =
  let rec go acc n =
    if n == Snode.nil then List.rev acc
    else go (n.Snode.key :: acc) (Tm.peek n.Snode.next.(0))
  in
  go [] (Tm.peek t.head.Snode.next.(0))

let size t = List.length (to_list t)

let levels_histogram t =
  let hist = Array.make (Snode.max_level + 1) 0 in
  let rec go n =
    if n != Snode.nil then begin
      let l = n.Snode.level in
      hist.(l) <- hist.(l) + 1;
      go (Tm.peek n.Snode.next.(0))
    end
  in
  go (Tm.peek t.head.Snode.next.(0));
  hist

let check t =
  let exception Bad of string in
  let node_ok n =
    if Snode.peek_deleted n then
      raise (Bad (Printf.sprintf "deleted node %d linked" n.Snode.id));
    if not (Mempool.is_live t.mode.Mode.pool n) then
      raise (Bad (Printf.sprintf "freed node %d linked" n.Snode.id))
  in
  try
    (* level-0 contents; remember them for the sublist checks *)
    let level0 = Hashtbl.create 64 in
    let rec walk0 prev_key n =
      if n != Snode.nil then begin
        node_ok n;
        let k = n.Snode.key in
        if k <= prev_key then
          raise (Bad (Printf.sprintf "level 0 not sorted at %d" k));
        let l = n.Snode.level in
        if l < 1 || l > Snode.max_level then
          raise (Bad (Printf.sprintf "bad tower height %d at %d" l k));
        Hashtbl.replace level0 n.Snode.id l;
        walk0 k (Tm.peek n.Snode.next.(0))
      end
    in
    walk0 min_int (Tm.peek t.head.Snode.next.(0));
    (* every upper level: sorted, and only nodes whose tower reaches it *)
    for l = 1 to Snode.max_level - 1 do
      let rec walk prev_key n =
        if n != Snode.nil then begin
          let k = n.Snode.key in
          if k <= prev_key then
            raise (Bad (Printf.sprintf "level %d not sorted at %d" l k));
          (match Hashtbl.find_opt level0 n.Snode.id with
          | Some h when h > l -> ()
          | Some _ ->
              raise (Bad (Printf.sprintf "node %d linked above its height" k))
          | None ->
              raise
                (Bad
                   (Printf.sprintf "node %d at level %d missing from level 0" k
                      l)));
          walk k (Tm.peek n.Snode.next.(l))
        end
      in
      walk min_int (Tm.peek t.head.Snode.next.(l))
    done;
    (* conversely, every tall node must be reachable at each of its levels *)
    let counts = Array.make Snode.max_level 0 in
    Hashtbl.iter
      (fun _ h ->
        for l = 0 to h - 1 do
          counts.(l) <- counts.(l) + 1
        done)
      level0;
    for l = 0 to Snode.max_level - 1 do
      let rec len acc n =
        if n == Snode.nil then acc else len (acc + 1) (Tm.peek n.Snode.next.(l))
      in
      let reach = len 0 (Tm.peek t.head.Snode.next.(l)) in
      if reach <> counts.(l) then
        raise
          (Bad
             (Printf.sprintf "level %d reaches %d nodes, towers say %d" l reach
                counts.(l)))
    done;
    Ok ()
  with Bad m -> Error m

let pool_stats t = Mempool.stats t.mode.Mode.pool
let pool_live t = Mempool.live t.mode.Mode.pool
let hazard_metrics t = t.mode.Mode.hazard_metrics ()
