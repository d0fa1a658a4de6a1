open Structs

(* HV001 on an exception edge: the happy path checks the carry, the
   exception handler dereferences it unchecked. *)

exception Lost

let find_or_fail (ops : Lnode.t Rr.ops) txn n =
  match ops.Rr.get txn n with Some ok -> ok | None -> raise Lost

let bad_deref_exn_path (t : Lnode.t Tm.tvar) (ops : Lnode.t Rr.ops) =
  let cur = ref Lnode.nil in
  Tm.atomic ~site:"fixture.deref_exn_path" (fun txn -> cur := Tm.read txn t);
  Tm.atomic ~site:"fixture.deref_exn_path" (fun txn ->
      let n = !cur in
      if n == Lnode.nil then 0
      else
        match find_or_fail ops txn n with
        | ok -> Lnode.key txn ok
        | exception Lost ->
            (* carried and unchecked: the reservation may be gone *)
            n.Lnode.key)
