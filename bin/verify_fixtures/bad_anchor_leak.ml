open Structs

(* HV004 beside an [Anchor]: the anchor hands over the reservation it
   names, like [Hand_off], so only the second node's reservation leaks. *)

let bad_anchor_leak (t : Lnode.t Tm.tvar) (ops : Lnode.t Rr.ops) =
  Tm.atomic ~site:"fixture.anchor_leak" (fun txn ->
      let a = Tm.read txn t in
      let b = Tm.read txn a.Lnode.next in
      ops.Rr.reserve txn a;
      ops.Rr.reserve txn b;
      Rr.Hoh.Anchor a)
