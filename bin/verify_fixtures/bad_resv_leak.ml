open Structs

(* HV004: the window commits with its reservation neither released,
   revoked, nor handed over. *)

let bad_resv_leak (t : Lnode.t Tm.tvar) (ops : Lnode.t Rr.ops) =
  Tm.atomic ~site:"fixture.resv_leak" (fun txn ->
      let n = Tm.read txn t in
      ops.Rr.reserve txn n;
      Lnode.key txn n)
