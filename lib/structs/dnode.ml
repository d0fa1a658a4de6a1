type t = {
  mutable state : int;
  id : int;
  mutable key : int;
  next : t Tm.tvar;
  prev : t Tm.tvar;
}

(* The pool's state word is field 0, viewed as an [Atomic.t] the way the
   tvar lock word is (DESIGN.md decision 1); it is never a plain field. *)
external state_word : t -> int Atomic.t = "%identity"

let nil =
  Tm.knot (fun self ->
      { state = 0; id = -1; key = 0; next = self (); prev = self () })

let make id =
  { state = 0; id; key = 0; next = Tm.tvar nil; prev = Tm.tvar nil }

(* The key is left as it was, as in [Lnode.poison]. *)
let poison n =
  Tm.poke n.next nil;
  Tm.poke n.prev n

let tvar_ids n = [ Tm.tvar_id n.next; Tm.tvar_id n.prev ]

let make_pool ?strategy () =
  Mempool.create ?strategy ~make ~node_id:(fun n -> n.id)
    ~state:state_word ~poison ~tvar_ids ()

let set_key (n : t Mempool.fresh) k = (n :> t).key <- k
let deleted txn n = Tm.read txn n.prev == n
let mark_deleted txn n = Tm.write txn n.prev n
let peek_deleted n = Tm.peek n.prev == n
let sentinel () = make (-1)

let equal a b = a == b

let alloc pool ~thread =
  let fresh = Mempool.alloc pool ~thread in
  let n = (fresh : t Mempool.fresh :> t) in
  (* Re-initialization pokes on a node no thread can reach yet: exempt from
     TxSan's non-transactional-access rule, like the poison pokes in free. *)
  San.exempt_begin ();
  Tm.poke n.next nil;
  Tm.poke n.prev nil;
  San.exempt_end ();
  fresh
