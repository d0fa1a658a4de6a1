open Structs

(* The stamped hand-over-hand entry without [~site]: the serialization
   checker's operations must be labelled as well. *)

let unlabelled_stamped_window (ops : Lnode.t Rr.ops) : unit * int =
  Rr.Hoh.apply_stamped ~rr:ops (fun _txn ~start:_ -> Rr.Hoh.Finish ())
