type t = {
  mutable state : int;
  id : int;
  mutable key : int;
  next : t Tm.tvar array;
  mutable level : int;
}

(* The pool's state word is field 0, viewed as an [Atomic.t] the way the
   tvar lock word is (DESIGN.md decision 1); it is never a plain field. *)
external state_word : t -> int Atomic.t = "%identity"

let max_level = 16
let top = max_level - 1

let nil =
  Tm.knot (fun self ->
      {
        state = 0;
        id = -1;
        key = 0;
        next = Array.init max_level (fun _ -> self ());
        level = 0;
      })

let make id =
  {
    state = 0;
    id;
    key = 0;
    next = Array.init max_level (fun _ -> Tm.tvar nil);
    level = 0;
  }

(* The key and the level are left as they were, as in [Lnode.poison]. *)
let poison n =
  Array.iteri (fun l nx -> Tm.poke nx (if l = top then n else nil)) n.next

let tvar_ids n = Array.to_list (Array.map Tm.tvar_id n.next)

let make_pool ?strategy () =
  Mempool.create ?strategy ~make ~node_id:(fun n -> n.id)
    ~state:state_word ~poison ~tvar_ids ()

(* [next_below]'s answer for a node that is not below the key: a static
   node that no link holds and no code reads through. *)
let above = { state = 0; id = -2; key = 0; next = [||]; level = 0 }

(* Each plain load is validated by a read of one of the node's links after
   it, as in [Lnode.key]: the level-[l] link the walk follows next when the
   key is below, which is returned so the walk reads it once, else the top
   link, which only the node's own removal (and a full-height neighbour)
   writes, so the read costs no new conflicts. *)
let next_below txn n k l =
  if n == nil then above
  else if n.key < k then Tm.read txn n.next.(l)
  else begin
    ignore (Tm.read txn n.next.(top));
    above
  end

(* A hint carried from an earlier window was reached through no link in
   this transaction's read set, so an extension could rescue a read of its
   top link that a recycling commit moved past the snapshot, and the plain
   loads before it could pair an old incarnation's key with the new one's
   links. The caller has read the top link already (the deletion check);
   reading it again after the loads makes the pair a seqlock: a commit
   between the two reads fails the extension's validation of the first. *)
let spans txn n k l =
  let nk = n.key and nl = n.level in
  ignore (Tm.read txn n.next.(top));
  nk < k && nl > l

let key txn n =
  let k = n.key in
  ignore (Tm.read txn n.next.(top));
  k

let level txn n =
  let l = n.level in
  ignore (Tm.read txn n.next.(top));
  l

let set_key (n : t Mempool.fresh) k = (n :> t).key <- k
let set_level (n : t Mempool.fresh) l = (n :> t).level <- l
let deleted txn n = Tm.read txn n.next.(top) == n
let mark_deleted txn n = Tm.write txn n.next.(top) n
let peek_deleted n = Tm.peek n.next.(top) == n

let sentinel () =
  let n = make (-1) in
  n.level <- max_level;
  n

let equal a b = a == b

let alloc pool ~thread =
  let fresh = Mempool.alloc pool ~thread in
  let n = (fresh : t Mempool.fresh :> t) in
  (* Re-initialization pokes on a node no thread can reach yet: exempt from
     TxSan's non-transactional-access rule, like the poison pokes in free. *)
  San.exempt_begin ();
  Array.iteri (fun l nx -> Tm.poke nx (if l = top then n else nil)) n.next;
  San.exempt_end ();
  fresh

let link_top txn n ~height = if height < max_level then Tm.write txn n.next.(top) nil
