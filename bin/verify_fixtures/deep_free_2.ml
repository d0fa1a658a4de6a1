(* Second helper of the bad_free_deep.ml chain. *)

let recycle pool n = Deep_free_3.give_back pool n
