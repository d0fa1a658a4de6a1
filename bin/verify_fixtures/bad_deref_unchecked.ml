open Structs

(* HV001: a pointer carried across a window boundary is dereferenced in
   the next window without an RR check. *)

let bad_deref_unchecked (t : Lnode.t Tm.tvar) =
  let cur = ref Lnode.nil in
  Tm.atomic ~site:"fixture.deref_unchecked" (fun txn -> cur := Tm.read txn t);
  (* new window: [!cur] is a carried pointer, never re-checked *)
  Tm.atomic ~site:"fixture.deref_unchecked" (fun txn ->
      let n = !cur in
      if n == Lnode.nil then 0 else n.Lnode.key)
