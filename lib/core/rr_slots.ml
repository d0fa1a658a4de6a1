(** Owner-local reservation slots: the per-thread reservation set [R_t]
    of RR-V (paper Listing 4: [(r, V_t)] pairs) and of RR-XO/RR-SO
    (Listing 3: [r] alone, tagged [()]).

    Each thread owns [K] plain slots that only it reads or writes, so a
    slot write is not a shared-memory write: a transaction that only
    reserves and releases leaves the TM's write set empty and commits on
    the read-only path (no lock, no clock bump, no write-back). Every
    write registers {!Tm.on_abort} to put back the slot's previous
    contents, so a conflict abort, an exception out of a speculative or
    serial run and an enclosing transaction's abort all restore the set —
    GCC TM's undo log for thread-local variables. *)

type ('r, 'a) t = {
  equal : 'r -> 'r -> bool;
  rows : ('r * 'a) option array array;  (** [threads][K]; owner-only *)
}

let create ~k ~equal =
  {
    equal;
    rows = Array.init Tm.Thread.max_threads (fun _ -> Array.make k None);
  }

(* Top-level loops, so a lookup allocates no closure. *)
let rec find equal cells r i =
  if i >= Array.length cells then -1
  else
    match Array.unsafe_get cells i with
    | Some (r', _) when equal r' r -> i
    | Some _ | None -> find equal cells r (i + 1)

let rec free cells i =
  if i >= Array.length cells then -1
  else
    match Array.unsafe_get cells i with
    | None -> i
    | Some _ -> free cells (i + 1)

(* The one slot store: undo-logged with the enclosing attempt. *)
let set txn cells i v =
  let old = cells.(i) in
  cells.(i) <- v;
  Tm.on_abort txn (fun () -> cells.(i) <- old)

let held t txn r =
  let cells = t.rows.(Tm.thread_id txn) in
  let i = find t.equal cells r 0 in
  if i < 0 then None else cells.(i)

let put t txn r a =
  let cells = t.rows.(Tm.thread_id txn) in
  let i = find t.equal cells r 0 in
  let i = if i >= 0 then i else free cells 0 in
  if i < 0 then invalid_arg "Rr.reserve: reservation set full";
  set txn cells i (Some (r, a))

let remove t txn r =
  let cells = t.rows.(Tm.thread_id txn) in
  let i = find t.equal cells r 0 in
  if i >= 0 then set txn cells i None

let clear t txn =
  let cells = t.rows.(Tm.thread_id txn) in
  for i = 0 to Array.length cells - 1 do
    match cells.(i) with Some _ -> set txn cells i None | None -> ()
  done
