open Structs

(* Zero diagnostics expected: a carried pointer that tests equal to
   [Lnode.nil] is the static end-of-list node, never freed, so reading
   through it needs no RR check. The other branch of the same test is
   bad_deref_unchecked.ml. *)

let ok_nil_test (t : Lnode.t Tm.tvar) =
  let cur = ref Lnode.nil in
  Tm.atomic ~site:"fixture.nil_test" (fun txn -> cur := Tm.read txn t);
  Tm.atomic ~site:"fixture.nil_test" (fun txn ->
      let n = !cur in
      if n != Lnode.nil then false else Tm.read txn n.Lnode.next == n)
