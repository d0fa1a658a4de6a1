open Structs

(* HV004 through an early return: the found-branch returns with the
   reservation still live; only the miss-branch releases. *)

let bad_resv_leak_return (t : Lnode.t Tm.tvar) (ops : Lnode.t Rr.ops) k =
  Tm.atomic ~site:"fixture.resv_leak_return" (fun txn ->
      let n = Tm.read txn t in
      if n == Lnode.nil then false
      else begin
        ops.Rr.reserve txn n;
        if Lnode.key txn n = k then true (* leaks the reservation *)
        else begin
          ops.Rr.release txn n;
          false
        end
      end)
