(* Last helper of the bad_free_deep.ml chain: the eager free itself,
   outside any transaction, so only the window at the top is reported. *)

let give_back pool n = Mempool.free pool ~thread:0 n
