type t = {
  mutable state : int;
  id : int;
  mutable key : int;
  left : t Tm.tvar;
  right : t Tm.tvar;
}

(* The pool's state word is field 0, viewed as an [Atomic.t] the way the
   tvar lock word is (DESIGN.md decision 1); it is never a plain field. *)
external state_word : t -> int Atomic.t = "%identity"

let nil =
  Tm.knot (fun self ->
      { state = 0; id = -1; key = 0; left = self (); right = self () })

let make id =
  { state = 0; id; key = 0; left = Tm.tvar nil; right = Tm.tvar nil }

(* The key is left as it was: a reader still holding the node loads it
   before a link these pokes have moved past its snapshot (see [route]). *)
let poison n =
  Tm.poke n.left nil;
  Tm.poke n.right n

let tvar_ids n = [ Tm.tvar_id n.left; Tm.tvar_id n.right ]

let make_pool ?strategy () =
  Mempool.create ?strategy ~make ~node_id:(fun n -> n.id)
    ~state:state_word ~poison ~tvar_ids ()

(* A key is a plain field, so a reader loads it first and then one of the
   node's links through the TM. The only stores to a key are [set_key] on
   a node no other thread can reach, program-ordered after the version
   bumps of the free that unlinked its last incarnation and of the
   [alloc] that handed it out. A reader whose load sees such a store
   therefore sees those versions, which are past its snapshot, in the
   link load that follows: the same plain-then-lock load order as the
   seqlock pair in [Tm.read] (DESIGN.md decision 1). *)
type step = Left of t | Right of t | Hit of t

let route txn n k =
  let nk = n.key in
  if k < nk then Left (Tm.read txn n.left)
  else if k > nk then Right (Tm.read txn n.right)
  else Hit (Tm.read txn n.right)

let key txn n =
  let k = n.key in
  ignore (Tm.read txn n.left);
  k

let set_key (n : t Mempool.fresh) k = (n :> t).key <- k

let deleted txn n = Tm.read txn n.right == n
let mark_deleted txn n = Tm.write txn n.right n
let peek_deleted n = Tm.peek n.right == n

let sentinel ~key =
  let n = make (-1) in
  n.key <- key;
  n

let equal a b = a == b

let alloc pool ~thread =
  let fresh = Mempool.alloc pool ~thread in
  let n = (fresh : t Mempool.fresh :> t) in
  (* Re-initialization pokes on a node no thread can reach yet: exempt from
     TxSan's non-transactional-access rule, like the poison pokes in free. *)
  San.exempt_begin ();
  Tm.poke n.left nil;
  Tm.poke n.right nil;
  San.exempt_end ();
  fresh
