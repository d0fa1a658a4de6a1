open Structs

(* HV006: Mempool.free inside the window instead of Tm.defer — the free
   races the revoke it is supposed to follow. *)

let bad_raw_free (pool : Lnode.t Mempool.t) (t : Lnode.t Tm.tvar)
    (ops : Lnode.t Rr.ops) =
  Tm.atomic ~site:"fixture.raw_free" (fun txn ->
      let n = Tm.read txn t in
      ops.Rr.revoke txn n;
      Mempool.free pool ~thread:0 n)
