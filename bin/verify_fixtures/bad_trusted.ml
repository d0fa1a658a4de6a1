(* HV000: a [@hohtx.trusted] suppression must say why. *)

let[@hohtx.trusted] bad_no_reason (t : int Tm.tvar) =
  Tm.atomic ~site:"fixture.trusted" (fun txn -> Tm.read txn t)
