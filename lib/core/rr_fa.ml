(** RR-FA: fully associative reservations (paper Listing 2).

    A transactional linked list holds one node per registered thread; each
    node carries the thread's reservation slots. [Revoke] traverses the
    whole list — O(T) work and a read of every thread's slots, which is why
    it is prone to conflicts with concurrent [Reserve]/[Release] — while
    [Reserve], [Release] and [Get] touch only the caller's node. *)

type 'r slots = 'r option Tm.tvar array

type 'r lnode = { slots : 'r slots; next : 'r lnode option Tm.tvar }

type 'r t = {
  equal : 'r -> 'r -> bool;
  k : int;
  head : 'r lnode option Tm.tvar;
  mine : 'r lnode option Tm.tvar array;  (** per-thread registration *)
}

let name = "RR-FA"
let strict = true
let local_reserve = false

let create ?(config = Rr_config.default) ~hash:_ ~equal () =
  Rr_config.validate config;
  {
    equal;
    k = config.slots_per_thread;
    head = Tm.tvar None;
    mine = Array.init Tm.Thread.max_threads (fun _ -> Tm.tvar None);
  }

let my_lnode t txn =
  let mine = t.mine.(Tm.thread_id txn) in
  match Tm.read txn mine with
  | Some n -> n
  | None ->
      let n =
        {
          slots = Array.init t.k (fun _ -> Tm.tvar None);
          next = Tm.tvar None;
        }
      in
      Tm.write txn n.next (Tm.read txn t.head);
      Tm.write txn t.head (Some n);
      Tm.write txn mine (Some n);
      n

let register t txn = ignore (my_lnode t txn)

(* Find the first slot satisfying [pred]; scanning stops early so a
   transaction's read set stays proportional to the slots it inspects. *)
let find_slot txn slots pred =
  let n = Array.length slots in
  let rec go i =
    if i >= n then None
    else
      let v = Tm.read txn slots.(i) in
      if pred v then Some slots.(i) else go (i + 1)
  in
  go 0

let holds t txn slots r =
  find_slot txn slots (function Some r' -> t.equal r' r | None -> false)

let reserve t txn r =
  let n = my_lnode t txn in
  match holds t txn n.slots r with
  | Some _ -> ()
  | None -> (
      match find_slot txn n.slots (fun v -> v = None) with
      | Some slot -> Tm.write txn slot (Some r)
      | None -> invalid_arg "Rr_fa.reserve: reservation set full")

let release t txn r =
  let n = my_lnode t txn in
  match holds t txn n.slots r with
  | Some slot -> Tm.write txn slot None
  | None -> ()

let release_all t txn =
  let n = my_lnode t txn in
  Array.iter
    (fun slot -> if Tm.read txn slot <> None then Tm.write txn slot None)
    n.slots

let get t txn r =
  let n = my_lnode t txn in
  match holds t txn n.slots r with Some _ -> Some r | None -> None

let revoke t txn r =
  let rec walk = function
    | None -> ()
    | Some n ->
        Dst.point Dst.Rr_revoke_step;
        Array.iter
          (fun slot ->
            match Tm.read txn slot with
            | Some r' when t.equal r' r -> Tm.write txn slot None
            | Some _ | None -> ())
          n.slots;
        walk (Tm.read txn n.next)
  in
  walk (Tm.read txn t.head)
