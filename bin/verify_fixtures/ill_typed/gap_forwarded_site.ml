(* A wrapper that forwards an optional site: called as [labelled t], its
   transaction would run unlabelled. A required label takes no [?site]. *)

let labelled ?site (t : int Tm.tvar) =
  Tm.atomic ?site (fun txn -> Tm.read txn t)
