(* First helper of the bad_free_deep.ml chain. *)

let retire pool n = Deep_free_2.recycle pool n
