open Structs

(* HV006 three helpers below a window. The files sort caller first
   (bad_free_deep, deep_free_1, deep_free_2, deep_free_3), so each
   helper's summary reaches its caller one summary pass later: the report
   needs the summary fixpoint, not a fixed number of passes. *)

let remove_head (pool : Lnode.t Mempool.t) (head : Lnode.t Tm.tvar)
    (ops : Lnode.t Rr.ops) =
  Tm.atomic ~site:"fixture.remove_head_deep" (fun txn ->
      let n = Tm.read txn head in
      Tm.write txn head (Tm.read txn n.Lnode.next);
      ops.Rr.revoke txn n;
      Deep_free_1.retire pool n)
