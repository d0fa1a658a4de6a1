open Structs

(* HV006 one helper below a window: the helper frees immediately, and the
   window that calls it is where the free races the revoke. The helper
   reaches [Mempool.free] through a module alias. A helper that takes the
   transaction itself is reported at its own free. *)

module P = Mempool

let raw_free pool n = P.free pool ~thread:0 n

let eager_free pool (txn : Tm.txn) ~thread n =
  ignore txn;
  Mempool.free pool ~thread n

let remove_head (pool : Lnode.t Mempool.t) (head : Lnode.t Tm.tvar)
    (ops : Lnode.t Rr.ops) =
  Tm.atomic ~site:"fixture.remove_head" (fun txn ->
      let n = Tm.read txn head in
      Tm.write txn head (Tm.read txn n.Lnode.next);
      ops.Rr.revoke txn n;
      raw_free pool n)
