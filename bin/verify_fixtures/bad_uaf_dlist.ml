open Structs

(* A doubly linked unlink that frees the node while its own reservation
   on it is still live: the release comes after the free is scheduled. *)

let unlink_bad (pool : Dnode.t Mempool.t) (head : Dnode.t Tm.tvar)
    (ops : Dnode.t Rr.ops) =
  Tm.atomic ~site:"fixture.uaf_dlist" (fun txn ->
      let n = Tm.read txn head in
      ops.Rr.reserve txn n;
      let nx = Tm.read txn n.Dnode.next in
      Tm.write txn head nx;
      Tm.defer txn (fun () -> Mempool.free pool ~thread:0 n);
      ops.Rr.release txn n)
