type node = {
  id : int;
  pstate : int Atomic.t;
  mutable key : int;  (** written before publication, constant while linked *)
  next : link Atomic.t;
}

and link = { marked : bool; tail : node option }

let unmarked tail = { marked = false; tail }

let make id =
  { id; pstate = Atomic.make 0; key = min_int; next = Atomic.make (unmarked None) }

let poison n =
  n.key <- min_int;
  Atomic.set n.next { marked = true; tail = None }

type t = {
  head : node;
  pool : node Mempool.t;
  hazard : node Reclaim.Hazard.t option;
  leaked : int Atomic.t;  (** nodes unlinked but never reclaimed (`Leak) *)
}

let create ?(reclaim = `Leak) ?(hp_threshold = 64) ?strategy () =
  let pool =
    Mempool.create ?strategy ~make ~node_id:(fun n -> n.id)
      ~state:(fun n -> n.pstate)
      ~poison ()
  in
  let hazard =
    match reclaim with
    | `Leak -> None
    | `Hp ->
        Some
          (Reclaim.Hazard.create ~slots_per_thread:3 ~scan_threshold:hp_threshold
             ~free:(fun ~thread n -> Mempool.free pool ~thread n)
             ~node_id:(fun n -> n.id)
             ())
  in
  { head = make (-1); pool; hazard; leaked = Atomic.make 0 }

let name t = match t.hazard with None -> "LFLeak" | Some _ -> "LFHP"

let protect t ~thread slot n =
  match t.hazard with
  | None -> ()
  | Some h -> Reclaim.Hazard.protect h ~thread ~slot n

let clear_hazards t ~thread =
  match t.hazard with
  | None -> ()
  | Some h -> Reclaim.Hazard.clear_all h ~thread

let retire t ~thread n =
  match t.hazard with
  | None -> Atomic.incr t.leaked
  | Some h -> Reclaim.Hazard.retire h ~thread n

exception Restart

(* Michael's find: returns (prev, plink, curr) with [prev.next == plink],
   [plink = {false; Some curr}] (or tail), and [curr.key >= key]; unlinks
   marked nodes along the way. Hazard slots: 0 protects curr, 2 protects
   prev. *)
let find t ~thread key =
  let rec from_head () =
    match walk t.head (Atomic.get t.head.next) with
    | r -> r
    | exception Restart -> from_head ()
  and walk prev plink =
    match plink.tail with
    | None -> (prev, plink, None)
    | Some curr ->
        protect t ~thread 0 curr;
        if Atomic.get prev.next != plink then raise Restart;
        let clink = Atomic.get curr.next in
        if clink.marked then begin
          (* Help: physically unlink the logically deleted [curr]. *)
          let next = unmarked clink.tail in
          if Atomic.compare_and_set prev.next plink next then begin
            retire t ~thread curr;
            walk prev next
          end
          else raise Restart
        end
        else if curr.key >= key then (prev, plink, Some curr)
        else begin
          protect t ~thread 2 curr;
          walk curr clink
        end
  in
  from_head ()

let lookup t ~thread key =
  let _, _, curr = find t ~thread key in
  let r = match curr with Some c -> c.key = key | None -> false in
  clear_hazards t ~thread;
  r

let insert t ~thread key =
  if key <= min_int + 1 then invalid_arg "Harris_list: key out of range";
  let n = (Mempool.alloc t.pool ~thread : node Mempool.fresh :> node) in
  n.key <- key;
  let rec loop () =
    let prev, plink, curr = find t ~thread key in
    match curr with
    | Some c when c.key = key ->
        Mempool.free t.pool ~thread n;
        false
    | _ ->
        Atomic.set n.next (unmarked curr);
        if Atomic.compare_and_set prev.next plink (unmarked (Some n)) then true
        else loop ()
  in
  let r = loop () in
  clear_hazards t ~thread;
  r

let remove t ~thread key =
  let rec loop () =
    let prev, plink, curr = find t ~thread key in
    match curr with
    | Some c when c.key = key ->
        let clink = Atomic.get c.next in
        if clink.marked then loop ()
        else if
          Atomic.compare_and_set c.next clink
            { marked = true; tail = clink.tail }
        then begin
          (* Try to unlink; on failure the next traversal helps. *)
          if Atomic.compare_and_set prev.next plink (unmarked clink.tail) then
            retire t ~thread c
          else ignore (find t ~thread key);
          true
        end
        else loop ()
    | _ -> false
  in
  let r = loop () in
  clear_hazards t ~thread;
  r

let finalize_thread t ~thread =
  clear_hazards t ~thread;
  match t.hazard with
  | None -> ()
  | Some h -> Reclaim.Hazard.scan h ~thread

let drain t =
  match t.hazard with None -> () | Some h -> Reclaim.Hazard.drain h

let to_list t =
  let rec go acc = function
    | None -> List.rev acc
    | Some n -> go (n.key :: acc) (Atomic.get n.next).tail
  in
  go [] (Atomic.get t.head.next).tail

let size t = List.length (to_list t)

let check t =
  let rec go prev_key = function
    | None -> Ok ()
    | Some n ->
        if (Atomic.get n.next).marked then
          Error (Printf.sprintf "marked node %d still linked" n.id)
        else if n.key = min_int then
          Error (Printf.sprintf "poisoned node %d linked" n.id)
        else if not (Mempool.is_live t.pool n) then
          Error (Printf.sprintf "freed node %d linked" n.id)
        else if n.key <= prev_key then
          Error (Printf.sprintf "keys not sorted at %d" n.key)
        else go n.key (Atomic.get n.next).tail
  in
  go min_int (Atomic.get t.head.next).tail

let pool_stats t = Mempool.stats t.pool
let pool_live t = Mempool.live t.pool

let hazard_metrics t =
  match t.hazard with None -> None | Some h -> Some (Reclaim.Hazard.metrics h)
