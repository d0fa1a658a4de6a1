(** RR-V: versioned reservations (paper Listing 4).

    An array of counters — functioning like STM ownership records — replaces
    the thread-id array of RR-XO. [Reserve] records the counter for the
    reference's bucket alongside the reference; [Get] re-reads the counter
    and succeeds only if unchanged; [Revoke] increments it. Any number of
    threads can reserve the same reference simultaneously, [Reserve] writes
    no shared memory, and [Revoke] is still O(1) (one read-modify-write). A
    spurious drop occurs only when a {e revocation} of a hash-colliding
    reference intervenes.

    The [(r, V_t)] pairs live in owner-local, undo-logged {!Rr_slots}, as
    GCC TM keeps the paper's thread-locals: [Reserve] and [Release] write
    nothing the TM publishes, so a hand-over-hand window that only walks
    and hands off commits read-only. *)

type 'r t = {
  hash : 'r -> int;
  buckets : int;
  v : int Tm.tvar array;
  rt : ('r, int) Rr_slots.t;
}

let name = "RR-V"
let strict = false
let local_reserve = true

let create ?(config = Rr_config.default) ~hash ~equal () =
  Rr_config.validate config;
  {
    hash;
    buckets = config.Rr_config.buckets;
    v = Array.init config.Rr_config.buckets (fun _ -> Tm.tvar 0);
    rt = Rr_slots.create ~k:config.Rr_config.slots_per_thread ~equal;
  }

let register _t _txn = ()
let index t r = (t.hash r land max_int) mod t.buckets
let reserve t txn r = Rr_slots.put t.rt txn r (Tm.read txn t.v.(index t r))
let release t txn r = Rr_slots.remove t.rt txn r
let release_all t txn = Rr_slots.clear t.rt txn

let get t txn r =
  match Rr_slots.held t.rt txn r with
  | Some (_, vt) when Tm.read txn t.v.(index t r) = vt -> Some r
  | Some _ | None -> None

let revoke t txn r =
  let cell = t.v.(index t r) in
  Tm.write txn cell (Tm.read txn cell + 1)
