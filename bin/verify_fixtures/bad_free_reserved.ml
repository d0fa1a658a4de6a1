open Structs

(* HV003: the node is freed while this very function still holds a
   reservation on it — revoke-before-free is the whole protocol. *)

let bad_free_reserved (pool : Lnode.t Mempool.t) (t : Lnode.t Tm.tvar)
    (ops : Lnode.t Rr.ops) =
  Tm.atomic ~site:"fixture.free_reserved" (fun txn ->
      let n = Tm.read txn t in
      ops.Rr.reserve txn n;
      Tm.defer txn (fun () -> Mempool.free pool ~thread:0 n);
      ops.Rr.release txn n)
