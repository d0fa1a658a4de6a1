type t = {
  mutable state : int;
  id : int;
  mutable key : int;
  next : t Tm.tvar;
}

(* The pool's state word is field 0, viewed as an [Atomic.t] the way the
   tvar lock word is (DESIGN.md decision 1); it is never a plain field. *)
external state_word : t -> int Atomic.t = "%identity"

let nil = Tm.knot (fun self -> { state = 0; id = -1; key = 0; next = self () })
let make id = { state = 0; id; key = 0; next = Tm.tvar nil }

(* A version-bumping write: a doomed transaction that read this node before
   it was freed can no longer pass commit-time validation. The key is left
   as it was: a reader still holding the node loads it before the link this
   poke moves past its snapshot (see [key]). *)
let poison n = Tm.poke n.next n
let tvar_ids n = [ Tm.tvar_id n.next ]

let make_pool ?strategy () =
  Mempool.create ?strategy ~make ~node_id:(fun n -> n.id)
    ~state:state_word ~poison ~tvar_ids ()

(* The plain key is validated by the [next] read after it, as a tree key is
   by [Tnode.route]: the only stores to a key are [set_key] on a node no
   other thread can reach, program-ordered after the version bumps of the
   free and the [alloc] that recycled it. *)
let key txn n =
  let k = n.key in
  ignore (Tm.read txn n.next);
  k

let set_key (n : t Mempool.fresh) k = (n :> t).key <- k
let deleted txn n = Tm.read txn n.next == n
let mark_deleted txn n = Tm.write txn n.next n
let peek_deleted n = Tm.peek n.next == n
let sentinel () = make (-1)

let equal a b = a == b

let alloc pool ~thread =
  let fresh = Mempool.alloc pool ~thread in
  let n = (fresh : t Mempool.fresh :> t) in
  (* Re-initialization poke on a node no thread can reach yet: exempt from
     TxSan's non-transactional-access rule, like the poison pokes in free. *)
  San.exempt_begin ();
  Tm.poke n.next nil;
  San.exempt_end ();
  fresh
