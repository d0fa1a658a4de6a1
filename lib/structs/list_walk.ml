(* The key is a plain field: each node's key load is followed by the read
   of its [next], which validates it (see [Lnode.key]) and is the link the
   walk follows. *)
let walk txn ~key ~prev ~budget =
  let rec go prev curr i =
    if curr == Lnode.nil then `Absent (prev, curr)
    else
      let k = curr.Lnode.key in
      let next = Tm.read txn curr.Lnode.next in
      if k = key then `Found (prev, curr)
      else if k > key then `Absent (prev, curr)
      else if i >= budget then `Window curr
      else go curr next (i + 1)
  in
  go prev (Tm.read txn prev.Lnode.next) 1
