(* The stamped transaction entry without [~site], through a module alias. *)

module T = Tm

let unlabelled_stamped_txn (t : int Tm.tvar) : int =
  (T.atomic_stamped (fun txn -> Tm.read txn t)).Tm.value
