(* Seeded lint violations, one per rule (plus one extra site omission
   and a second node module's bare [make]).
   This file is never compiled — [data_only_dirs] keeps it out of the
   build — it only feeds the checker's --expect-violations self-test,
   proving [dune build @lint] would fail on each discipline breach. *)

(* [site-label] x2: transaction entries without abort attribution. *)
let unlabelled_window t step = Rr.Hoh.apply_stamped ~rr:t.ops step
let unlabelled_txn body = Tm.atomic body

(* [raw-atomic]: poking a tvar payload behind the TM's back. *)
let backdoor_write n = Atomic.set n.Snode.key 0

(* [free-discipline]: an immediate free inside a window body would race
   the revoke that only takes effect at commit. *)
let eager_free pool txn ~thread n =
  ignore txn;
  Mempool.free pool ~thread n

(* [pool-alloc] x2: a node the pool never sees gets no shadow slot, no
   poisoning, no reuse — whichever node module it comes from. *)
let rogue_node () = Lnode.make 42
let rogue_dnode () = Dnode.make 7
