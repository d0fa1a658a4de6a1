open Structs

(* Differential fixture for DESIGN.md bug #3 (unchecked carry): a
   skiplist-style traversal hint carried across windows and trusted
   without revalidation. *)

let search_from_hint_bad (head : Lnode.t Tm.tvar) k =
  let start = ref Lnode.nil in
  Tm.atomic ~site:"fixture.hint" (fun txn -> start := Tm.read txn head);
  Tm.atomic ~site:"fixture.search" (fun txn ->
      let n = if !start != Lnode.nil then !start else Tm.read txn head in
      if n == Lnode.nil then raise Exit;
      (* stale hint used unrevalidated: no ops.get between windows *)
      n.Lnode.key = k)
