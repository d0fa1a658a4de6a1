let walk txn ~key ~prev ~budget =
  let rec go prev curr i =
    if curr == Lnode.nil then `Absent (prev, curr)
    else
      let k = Tm.read txn curr.Lnode.key in
      if k = key then `Found (prev, curr)
      else if k > key then `Absent (prev, curr)
      else if i >= budget then `Window curr
      else go curr (Tm.read txn curr.Lnode.next) (i + 1)
  in
  go prev (Tm.read txn prev.Lnode.next) 1
