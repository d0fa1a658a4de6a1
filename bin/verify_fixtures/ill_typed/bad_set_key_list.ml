open Structs

(* A list key is a plain field; setting it on a node read from a link
   rewrites a key that concurrent walks compare against. *)

let bad_set_key_list (head : Lnode.t) k =
  Tm.atomic ~site:"fixture.set_key_list" (fun txn ->
      let n = Tm.read txn head.Lnode.next in
      Lnode.set_key n k)
