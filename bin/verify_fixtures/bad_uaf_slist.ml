open Structs

(* Differential fixture for DESIGN.md bug #2 (use-after-free): a
   list-remove that reclaims the unlinked node directly inside the window
   — no revoke, no deferral — exactly the seeded TxSan bug, decided
   statically. *)

let remove_bad (pool : Lnode.t Mempool.t) (head : Lnode.t Tm.tvar) k =
  Tm.atomic ~site:"fixture.uaf_slist" (fun txn ->
      let curr = Tm.read txn head in
      if curr == Lnode.nil then false
      else if Lnode.key txn curr = k then begin
        Tm.write txn head (Tm.read txn curr.Lnode.next);
        Mempool.free pool ~thread:0 curr;
        true
      end
      else false)
