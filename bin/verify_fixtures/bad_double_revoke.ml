open Structs

(* HV005: revoking a node that this path already revoked. *)

let bad_double_revoke (t : Lnode.t Tm.tvar) (ops : Lnode.t Rr.ops) =
  Tm.atomic ~site:"fixture.double_revoke" (fun txn ->
      let n = Tm.read txn t in
      ops.Rr.revoke txn n;
      ops.Rr.revoke txn n)
