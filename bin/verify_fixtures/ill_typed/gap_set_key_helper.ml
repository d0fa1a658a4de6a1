open Structs

(* A node read from a link that comes back through a helper: a typestate
   analysis loses track of it (the list round trip), the type does not. *)

let set_key_through_helper (head : Lnode.t) k =
  Tm.atomic ~site:"fixture.set_key_helper" (fun txn ->
      let n = List.hd [ Tm.read txn head.Lnode.next ] in
      Lnode.set_key n k)
