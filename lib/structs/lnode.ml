type t = {
  mutable state : int;
  id : int;
  key : int Tm.tvar;
  next : t option Tm.tvar;
  prev : t option Tm.tvar;
  deleted : bool Tm.tvar;
  rc : Reclaim.Rc.t;
}

(* The pool's state word is field 0, viewed as an [Atomic.t] the way the
   tvar lock word is (DESIGN.md decision 1); it is never a plain field. *)
external state_word : t -> int Atomic.t = "%identity"

let poisoned_key = min_int

let make id =
  {
    state = 0;
    id;
    key = Tm.tvar poisoned_key;
    next = Tm.tvar None;
    prev = Tm.tvar None;
    deleted = Tm.tvar false;
    rc = Reclaim.Rc.make 0;
  }

(* Version-bumping writes: a doomed transaction that read this node before
   it was freed can no longer pass commit-time validation. *)
let poison n =
  Tm.poke n.key poisoned_key;
  Tm.poke n.next None;
  Tm.poke n.prev None;
  Tm.poke n.deleted true

let tvar_ids n =
  [
    Tm.tvar_id n.key;
    Tm.tvar_id n.next;
    Tm.tvar_id n.prev;
    Tm.tvar_id n.deleted;
  ]

let make_pool ?strategy () =
  Mempool.create ?strategy ~make ~node_id:(fun n -> n.id)
    ~state:state_word ~poison ~tvar_ids
    ~probe_ids:(fun n -> [ Tm.tvar_id n.deleted ])
    ()

let sentinel () = make (-1)

let hash n =
  let h = n.id * 0x9e3779b1 in
  h lxor (h lsr 16)

let equal a b = a == b

let alloc pool ~thread =
  let n = Mempool.alloc pool ~thread in
  (* Re-initialization pokes on a node no thread can reach yet: exempt from
     TxSan's non-transactional-access rule, like the poison pokes in free. *)
  San.exempt_begin ();
  Tm.poke n.deleted false;
  Tm.poke n.next None;
  Tm.poke n.prev None;
  San.exempt_end ();
  n
