open Structs

(* HV010: transaction entry points without [~site], so abort attribution
   and sanitizer reports cannot name the operation. The aliases resolve
   through the typedtree, alias of an alias included. *)

module H = Rr.Hoh
module H2 = H
module T = Tm

let unlabelled_txn body = Tm.atomic body

let unlabelled_window (ops : Lnode.t Rr.ops) step =
  Rr.Hoh.apply_stamped ~rr:ops step

let aliased_txn (t : int Tm.tvar) = T.atomic (fun txn -> Tm.read txn t)

let aliased_window (ops : Lnode.t Rr.ops) =
  H.apply ~rr:ops (fun _txn ~start:_ -> Rr.Hoh.Finish ())

let alias_of_alias (ops : Lnode.t Rr.ops) =
  H2.apply ~rr:ops (fun _txn ~start:_ -> Rr.Hoh.Finish ())
