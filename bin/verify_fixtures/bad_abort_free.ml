open Structs

(* HV006 in an on_abort callback: the aborted attempt never published a
   node it allocated, so an abort may return one; [n] was read from a
   link, may still be reachable, and is freed all the same. *)

let drop_next (pool : Lnode.t Mempool.t) (prev : Lnode.t) =
  Tm.atomic ~site:"fixture.drop_next" (fun txn ->
      let n = Tm.read txn prev.Lnode.next in
      Tm.on_abort txn (fun () -> Mempool.free pool ~thread:0 n);
      Tm.write txn prev.Lnode.next (Tm.read txn n.Lnode.next))
