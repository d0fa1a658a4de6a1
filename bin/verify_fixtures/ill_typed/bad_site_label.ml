(* A transaction without [~site]: its aborts and sanitizer reports could
   not name the operation. [site] is a required label, so the call is a
   partial application awaiting it, not a transaction. *)

let unlabelled_txn (t : int Tm.tvar) : int =
  Tm.atomic (fun txn -> Tm.read txn t)
