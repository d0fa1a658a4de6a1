open Structs

(* A tree key is a plain field; setting it on a node read from a link
   rewrites a key that concurrent readers route by. Only a node fresh from
   [Tnode.alloc] has the type [set_key] takes. *)

let bad_set_key (t : Tnode.t Tm.tvar) =
  Tm.atomic ~site:"fixture.set_key" (fun txn ->
      let n = Tm.read txn t in
      Tnode.set_key n 0)
