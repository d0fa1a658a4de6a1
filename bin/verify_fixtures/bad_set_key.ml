open Structs

(* HV009: a tree key is a plain field; setting it on a node read from a
   link rewrites a key that concurrent readers route by. *)

let bad_set_key (t : Tnode.t Tm.tvar) =
  Tm.atomic ~site:"fixture.set_key" (fun txn ->
      let n = Tm.read txn t in
      Tnode.set_key n 0)
