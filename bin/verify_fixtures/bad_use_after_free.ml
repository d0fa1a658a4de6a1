open Structs

(* HV002: dereference of a node after it went back to the pool. *)

let bad_use_after_free (pool : Lnode.t Mempool.t) =
  let n = (Lnode.alloc pool ~thread:0 :> Lnode.t) in
  Mempool.free pool ~thread:0 n;
  n.Lnode.key
