type factory = { label : string; make : unit -> Store.t }

let rr_kinds =
  List.map
    (fun (name, m) -> (name, Structs.Mode.Rr_kind m))
    Rr.all

module Spec = struct
  type structure = Slist | Dlist | Bst_int | Bst_ext | Hashset | Skiplist

  type t = {
    structure : structure;
    kind : Structs.Mode.kind;
    window : int option;
    scatter : bool option;
    adaptive : bool option;
    fusion : int option;
    strategy : Mempool.strategy option;
    rr_config : Rr.Config.t option;
    max_attempts : int option;
    buckets : int option;
    split_unlink : bool option;
    shards : int option;
    fuse : bool option;
    pool : bool option;
    hotcache : bool option;
    slo_us : int option;
  }

  let v ?window ?scatter ?adaptive ?fusion ?strategy ?rr_config ?max_attempts
      ?buckets ?split_unlink ?shards ?fuse ?pool ?hotcache ?slo_us structure
      kind =
    (match buckets with
    | Some _ when structure <> Hashset ->
        invalid_arg "Factories.Spec.v: buckets only applies to Hashset"
    | _ -> ());
    (match split_unlink with
    | Some _ when structure <> Dlist ->
        invalid_arg "Factories.Spec.v: split_unlink only applies to Dlist"
    | _ -> ());
    (match shards with
    | Some n when n < 1 ->
        invalid_arg "Factories.Spec.v: shards must be >= 1"
    | _ -> ());
    (match fusion with
    | Some k when k < 1 ->
        invalid_arg "Factories.Spec.v: fusion must be >= 1"
    | _ -> ());
    (match slo_us with
    | Some us when us < 1 ->
        invalid_arg "Factories.Spec.v: slo_us must be >= 1"
    | _ -> ());
    {
      structure;
      kind;
      window;
      scatter;
      adaptive;
      fusion;
      strategy;
      rr_config;
      max_attempts;
      buckets;
      split_unlink;
      shards;
      fuse;
      pool;
      hotcache;
      slo_us;
    }

  let structure_name = function
    | Slist -> "slist"
    | Dlist -> "dlist"
    | Bst_int -> "bst-int"
    | Bst_ext -> "bst-ext"
    | Hashset -> "hashset"
    | Skiplist -> "skiplist"

  let structure_of_name = function
    | "slist" -> Some Slist
    | "dlist" -> Some Dlist
    | "bst-int" -> Some Bst_int
    | "bst-ext" -> Some Bst_ext
    | "hashset" -> Some Hashset
    | "skiplist" -> Some Skiplist
    | _ -> None

  let label t =
    let k = Structs.Mode.kind_name t.kind in
    let base =
      match t.structure with
      | Slist | Dlist | Bst_int | Bst_ext -> k
      | Hashset -> k ^ "-hash"
      | Skiplist -> k ^ "-skip"
    in
    let base =
      match t.fusion with
      | Some k when k > 1 -> Printf.sprintf "%s+fuse%d" base k
      | _ -> base
    in
    let base = if t.pool = Some true then base ^ "+pool" else base in
    let base = if t.hotcache = Some true then base ^ "+hotcache" else base in
    let base =
      match t.slo_us with
      | Some us -> Printf.sprintf "%s+slo%d" base us
      | None -> base
    in
    match t.shards with
    | None | Some 1 -> base
    | Some n -> Printf.sprintf "%s/x%d" base n

  let kind_of_name name =
    match name with
    | "HTM" -> Some Structs.Mode.Htm
    | "TMHP" -> Some Structs.Mode.Tmhp
    | "REF" -> Some Structs.Mode.Ref
    | "EBR" -> Some Structs.Mode.Ebr
    | _ -> Option.map (fun m -> Structs.Mode.Rr_kind m) (Rr.by_name name)

  let strategy_of_name name =
    let matches s = String.equal (Mempool.strategy_name s) name in
    List.find_opt matches [ Mempool.Size_class; Mempool.Thread_arena ]

  module J = Telemetry.Json

  let to_json t =
    let opt name conv v rest =
      match v with None -> rest | Some x -> (name, conv x) :: rest
    in
    let rr_config_json (c : Rr.Config.t) =
      J.Obj
        [
          ("slots_per_thread", J.Int c.slots_per_thread);
          ("buckets", J.Int c.buckets);
          ("assoc", J.Int c.assoc);
          ("dm_eager_unlink", J.Bool c.dm_eager_unlink);
        ]
    in
    J.Obj
      (("label", J.String (label t))
      :: ("structure", J.String (structure_name t.structure))
      :: ("kind", J.String (Structs.Mode.kind_name t.kind))
      :: (opt "window" (fun i -> J.Int i) t.window
      @@ opt "scatter" (fun b -> J.Bool b) t.scatter
      @@ opt "adaptive" (fun b -> J.Bool b) t.adaptive
      @@ opt "fusion" (fun i -> J.Int i) t.fusion
      @@ opt "strategy" (fun s -> J.String (Mempool.strategy_name s)) t.strategy
      @@ opt "rr_config" rr_config_json t.rr_config
      @@ opt "max_attempts" (fun i -> J.Int i) t.max_attempts
      @@ opt "buckets" (fun i -> J.Int i) t.buckets
      @@ opt "split_unlink" (fun b -> J.Bool b) t.split_unlink
      @@ opt "shards" (fun i -> J.Int i) t.shards
      @@ opt "fuse" (fun b -> J.Bool b) t.fuse
      @@ opt "pool" (fun b -> J.Bool b) t.pool
      @@ opt "hotcache" (fun b -> J.Bool b) t.hotcache
      @@ opt "slo_us" (fun i -> J.Int i) t.slo_us
      @@ []))

  let of_json json =
    let ( let* ) = Result.bind in
    let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
    (* Every key a parser looks at; whatever else the document carries is
       a knob this spec cannot express, so it is rejected below rather
       than silently dropped. *)
    let known = ref [ "label" ] in
    let member name =
      known := name :: !known;
      J.member name json
    in
    let require name conv =
      match member name with
      | None -> fail "Spec.of_json: missing %S" name
      | Some v -> (
          match conv v with
          | Some x -> Ok x
          | None -> fail "Spec.of_json: bad %S" name)
    in
    let optional name conv =
      match member name with
      | None -> Ok None
      | Some v -> (
          match conv v with
          | Some x -> Ok (Some x)
          | None -> fail "Spec.of_json: bad %S" name)
    in
    let rr_config_of v =
      let f name = Option.bind (J.member name v) in
      match
        ( f "slots_per_thread" J.to_int,
          f "buckets" J.to_int,
          f "assoc" J.to_int,
          f "dm_eager_unlink" J.to_bool )
      with
      | Some slots_per_thread, Some buckets, Some assoc, Some dm_eager_unlink
        ->
          Some { Rr.Config.slots_per_thread; buckets; assoc; dm_eager_unlink }
      | _ -> None
    in
    let* structure =
      require "structure" (fun v ->
          Option.bind (J.to_string_opt v) structure_of_name)
    in
    let* kind =
      require "kind" (fun v -> Option.bind (J.to_string_opt v) kind_of_name)
    in
    let* window = optional "window" J.to_int in
    let* scatter = optional "scatter" J.to_bool in
    let* adaptive = optional "adaptive" J.to_bool in
    let* fusion = optional "fusion" J.to_int in
    let* strategy =
      optional "strategy" (fun v ->
          Option.bind (J.to_string_opt v) strategy_of_name)
    in
    let* rr_config = optional "rr_config" rr_config_of in
    let* max_attempts = optional "max_attempts" J.to_int in
    let* buckets = optional "buckets" J.to_int in
    let* split_unlink = optional "split_unlink" J.to_bool in
    let* shards = optional "shards" J.to_int in
    let* fuse = optional "fuse" J.to_bool in
    let* pool = optional "pool" J.to_bool in
    let* hotcache = optional "hotcache" J.to_bool in
    let* slo_us = optional "slo_us" J.to_int in
    let* () =
      let unknown (k, _) = not (List.mem k !known) in
      match json with
      | J.Obj fields -> (
          match List.find_opt unknown fields with
          | Some (k, _) -> fail "Spec.of_json: unknown key %S" k
          | None -> Ok ())
      | _ -> fail "Spec.of_json: not an object"
    in
    let* t =
      match
        v ?window ?scatter ?adaptive ?fusion ?strategy ?rr_config ?max_attempts
          ?buckets ?split_unlink ?shards ?fuse ?pool ?hotcache ?slo_us
          structure kind
      with
      | t -> Ok t
      | exception Invalid_argument m -> Error m
    in
    (* the label is derived, so a mismatch means the document was edited
       inconsistently (or produced by a different Spec version) *)
    match J.member "label" json with
    | None -> Ok t
    | Some l -> (
        match J.to_string_opt l with
        | Some l when String.equal l (label t) -> Ok t
        | Some l -> fail "Spec.of_json: label %S does not match spec %S" l (label t)
        | None -> fail "Spec.of_json: bad \"label\"")
end

let make (s : Spec.t) =
  let { Spec.structure; kind; window; scatter; adaptive; fusion; strategy;
        rr_config; max_attempts; buckets; split_unlink; shards = _; fuse = _;
        pool = _; hotcache = _; slo_us = _ } = s in
  let build () =
    match structure with
    | Spec.Slist | Spec.Hashset ->
        (* the hash set is the list over buckets, 64 unless the spec says *)
        let buckets =
          if structure = Spec.Slist then None
          else Some (Option.value buckets ~default:64)
        in
        Store.pack (module Store.Hoh_list)
          (Structs.Hoh_list.create ~mode:kind ?buckets ?window ?scatter
             ?adaptive ?fusion ?strategy ?rr_config ?max_attempts ())
    | Spec.Dlist ->
        Store.pack (module Store.Hoh_dlist)
          (Structs.Hoh_dlist.create ~mode:kind ?window ?scatter ?adaptive
             ?fusion ?strategy ?rr_config ?max_attempts
             ?split_unlink ())
    | Spec.Bst_int ->
        Store.pack (module Store.Hoh_bst_int)
          (Structs.Hoh_bst_int.create ~mode:kind ?window ?scatter ?adaptive
             ?fusion ?strategy ?rr_config ?max_attempts ())
    | Spec.Bst_ext ->
        Store.pack (module Store.Hoh_bst_ext)
          (Structs.Hoh_bst_ext.create ~mode:kind ?window ?scatter ?adaptive
             ?fusion ?strategy ?rr_config ?max_attempts ())
    | Spec.Skiplist ->
        Store.pack (module Store.Hoh_skiplist)
          (Structs.Hoh_skiplist.create ~mode:kind ?window ?scatter ?adaptive
             ?fusion ?strategy ?rr_config ?max_attempts ())
  in
  { label = Spec.label s; make = build }

let lf_list reclaim =
  {
    label = (match reclaim with `Leak -> "LFLeak" | `Hp -> "LFHP");
    make =
      (fun () ->
        Store.pack (module Store.Harris_list)
          (Lockfree.Harris_list.create ~reclaim ()));
  }

let nm_tree () =
  {
    label = "LFLeak-NM";
    make =
      (fun () ->
        Store.pack (module Store.Nm_tree) (Lockfree.Nm_tree.create ()));
  }

let best_window ~threads = if threads <= 4 then 16 else 8
