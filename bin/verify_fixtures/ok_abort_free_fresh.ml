open Structs

(* Zero diagnostics expected: the other side of bad_abort_free.ml. [n]
   comes from [Lnode.alloc] with the [Mempool.fresh] type, which the
   verifier sees through, so the on_abort free returns a node this
   transaction allocated and never published. *)

let push (pool : Lnode.t Mempool.t) (prev : Lnode.t) =
  Tm.atomic ~site:"fixture.push" (fun txn ->
      let n = Lnode.alloc pool ~thread:0 in
      Tm.on_abort txn (fun () -> Mempool.free pool ~thread:0 (n :> Lnode.t));
      Lnode.set_key n 1;
      Tm.write txn prev.Lnode.next (n :> Lnode.t))
