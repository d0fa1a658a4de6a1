type t = {
  mutable state : int;
  id : int;
  key : int Tm.tvar;
  next : t Tm.tvar array;
  level : int Tm.tvar;
}

(* The pool's state word is field 0, viewed as an [Atomic.t] the way the
   tvar lock word is (DESIGN.md decision 1); it is never a plain field. *)
external state_word : t -> int Atomic.t = "%identity"

let max_level = 16
let poisoned_key = min_int

let nil =
  Tm.knot (fun self ->
      {
        state = 0;
        id = -1;
        key = Tm.tvar poisoned_key;
        next = Array.init max_level (fun _ -> self ());
        level = Tm.tvar 0;
      })

let make id =
  {
    state = 0;
    id;
    key = Tm.tvar poisoned_key;
    next = Array.init max_level (fun _ -> Tm.tvar nil);
    level = Tm.tvar 0;
  }

let poison n =
  Tm.poke n.key poisoned_key;
  Tm.poke n.level 0;
  Array.iteri
    (fun l nx -> Tm.poke nx (if l = max_level - 1 then n else nil))
    n.next

let tvar_ids n =
  Tm.tvar_id n.key :: Tm.tvar_id n.level
  :: Array.to_list (Array.map Tm.tvar_id n.next)

let make_pool ?strategy () =
  Mempool.create ?strategy ~make ~node_id:(fun n -> n.id)
    ~state:state_word ~poison ~tvar_ids ()

let deleted txn n = Tm.read txn n.next.(max_level - 1) == n
let mark_deleted txn n = Tm.write txn n.next.(max_level - 1) n
let peek_deleted n = Tm.peek n.next.(max_level - 1) == n

let sentinel () =
  let n = make (-1) in
  Tm.poke n.level max_level;
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
  Array.iter (fun nx -> Tm.poke nx nil) n.next;
  San.exempt_end ();
  n
