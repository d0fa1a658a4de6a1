(** Shared core of RR-XO (exclusive ownership) and RR-SO (shared
    ownership) — the paper's Listing 3 generalized to [A] ownership arrays.

    An array of thread ids maps each hash bucket to the thread that most
    recently reserved a reference hashing there; [Revoke] is a single
    constant-time write of [-1]. The price is relaxation: a [Get] finds the
    reservation gone if {e any} other thread reserved a colliding reference
    (or, with one array, the same reference) in the meantime — a spurious
    drop that costs the victim a restart but never correctness. The
    reserved reference itself ([R_t]) lives in owner-local, undo-logged
    {!Rr_slots}, which roll back with the enclosing transaction as GCC TM's
    instrumentation of thread-local writes does; only the ownership
    publication is a TM write. *)

type 'r t = {
  hash : 'r -> int;
  ways : int;
  buckets : int;
  own : int Tm.tvar array array;  (** [ways][buckets] thread ids; -1 empty *)
  rt : ('r, unit) Rr_slots.t;
}

let create_t ~ways ~config ~hash ~equal =
  Rr_config.validate config;
  if ways < 1 then invalid_arg "Rr_own: ways < 1";
  {
    hash;
    ways;
    buckets = config.Rr_config.buckets;
    own =
      Array.init ways (fun _ ->
          Array.init config.Rr_config.buckets (fun _ -> Tm.tvar (-1)));
    rt = Rr_slots.create ~k:config.Rr_config.slots_per_thread ~equal;
  }

let register _t _txn = ()
let index t r = (t.hash r land max_int) mod t.buckets
let way_of t txn = Tm.thread_id txn mod t.ways

let reserve t txn r =
  Rr_slots.put t.rt txn r ();
  (* A blind write: Reserve never reads OWN (Listing 3), so two threads
     reserving colliding references conflict only at commit. *)
  Tm.write txn t.own.(way_of t txn).(index t r) (Tm.thread_id txn)

let release t txn r = Rr_slots.remove t.rt txn r
let release_all t txn = Rr_slots.clear t.rt txn

let get t txn r =
  match Rr_slots.held t.rt txn r with
  | None -> None
  | Some _ ->
      if Tm.read txn t.own.(way_of t txn).(index t r) = Tm.thread_id txn then
        Some r
      else None

let revoke t txn r =
  let i = index t r in
  for way = 0 to t.ways - 1 do
    Dst.point Dst.Rr_revoke_step;
    Tm.write txn t.own.(way).(i) (-1)
  done
