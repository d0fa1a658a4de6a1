open Structs

(* HV001 through Mode.apply: its step is a window step, so the checked
   [~start] it receives is good for that window only. Kept in an outer
   ref, it is a carried pointer in the next window, and dereferencing it
   there without an RR check is reported. *)

let bad_mode_step (m : Lnode.t Mode.t) k =
  let last = ref Lnode.nil in
  Mode.apply m ~thread:0 ~site:"fixture.mode_step" (fun txn ~start ->
      match start with
      | Some n ->
          last := n;
          Rr.Hoh.Hand_off n
      | None ->
          let n = !last in
          Rr.Hoh.Finish (n != Lnode.nil && n.Lnode.key = k))
