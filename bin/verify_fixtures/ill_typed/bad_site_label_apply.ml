open Structs

(* A hand-over-hand operation without [~site], called through an alias of
   an alias: the call is a partial application awaiting the label, not a
   run of the windows. *)

module H = Rr.Hoh
module H2 = H

let unlabelled_window (ops : Lnode.t Rr.ops) : unit =
  H2.apply ~rr:ops (fun _txn ~start:_ -> Rr.Hoh.Finish ())
