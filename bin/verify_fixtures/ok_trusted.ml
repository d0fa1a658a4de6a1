open Structs

(* Zero diagnostics expected: the violation below is real (a raw free in
   a window) but carries a reasoned [@hohtx.trusted] waiver — the
   verifier counts it instead of reporting it. *)

let[@hohtx.trusted
     "fixture: exercises the suppression path; the free is unreachable"]
    ok_waived (pool : Lnode.t Mempool.t) (t : Lnode.t Tm.tvar) =
  Tm.atomic ~site:"fixture.trusted" (fun txn ->
      let n = Tm.read txn t in
      if false then Mempool.free pool ~thread:0 n)
