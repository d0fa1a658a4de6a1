open Structs

(* HV009: Tm.poke on a shared node's payload inside a transaction
   bypasses the TM — no version bump, no validation. *)

let bad_raw_access (t : Lnode.t Tm.tvar) =
  Tm.atomic ~site:"fixture.raw_access" (fun txn ->
      let n = Tm.read txn t in
      Tm.poke n.Lnode.next Lnode.nil)
