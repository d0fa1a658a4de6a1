type t = {
  mutable state : int;
  id : int;
  key : int Tm.tvar;
  left : t option Tm.tvar;
  right : t option Tm.tvar;
  deleted : bool Tm.tvar;
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
    left = Tm.tvar None;
    right = Tm.tvar None;
    deleted = Tm.tvar false;
  }

let poison n =
  Tm.poke n.key poisoned_key;
  Tm.poke n.left None;
  Tm.poke n.right None;
  Tm.poke n.deleted true

let tvar_ids n =
  [
    Tm.tvar_id n.key;
    Tm.tvar_id n.left;
    Tm.tvar_id n.right;
    Tm.tvar_id n.deleted;
  ]

let make_pool ?strategy () =
  Mempool.create ?strategy ~make ~node_id:(fun n -> n.id)
    ~state:state_word ~poison ~tvar_ids
    ~probe_ids:(fun n -> [ Tm.tvar_id n.deleted ])
    ()

let sentinel ~key =
  let n = make (-1) in
  Tm.poke n.key key;
  n

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
  Tm.poke n.left None;
  Tm.poke n.right None;
  San.exempt_end ();
  n
