type logged = {
  op : Workload.op;
  key : int;
  result : bool;
  earliest : int;  (** = [stamp] for point operations *)
  stamp : int;
}

(* Successful inserts and removes write set content in their final
   transaction and carry its commit stamp. The stamp is unique to the
   transaction, not to the write: a fused batch or a cross-shard multi
   stamps all its writes alike (the stable sort keeps each thread's issue
   order among them). Everything else is placed after writers with the
   same stamp (a reader with stamp s observed exactly the writes with
   stamps <= s, so a multi's Gets, which run after its writes, see
   them). *)
let is_writer l =
  match (l.op, l.result) with
  | (Workload.Insert | Workload.Remove), true -> true
  | _ -> false

let check ~initial logs =
  let all =
    List.concat_map Array.to_list logs
    |> List.stable_sort (fun a b ->
           match compare a.stamp b.stamp with
           | 0 -> compare (is_writer b) (is_writer a) (* writers first *)
           | c -> c)
  in
  let model = Hashtbl.create 4096 in
  (* key -> stamp of the insert that made it present *)
  List.iter (fun k -> Hashtbl.replace model k 0) initial;
  let fail l expected =
    Error
      (Printf.sprintf
         "serialization violation: %s %d at stamp %d (earliest %d) returned \
          %b, expected %b%s"
         (match l.op with
         | Workload.Insert -> "insert"
         | Workload.Remove -> "remove"
         | Workload.Lookup -> "lookup")
         l.key l.stamp l.earliest l.result expected
         (match Hashtbl.find_opt model l.key with
         | Some s -> Printf.sprintf " (present since %d)" s
         | None -> " (absent)"))
  in
  let replay l =
    let present = Hashtbl.mem model l.key in
    match l.op with
    | Workload.Lookup -> if present <> l.result then fail l present else Ok ()
    | Workload.Insert ->
        if present then if l.result then fail l false else Ok ()
        else if l.result then begin
          Hashtbl.replace model l.key l.stamp;
          Ok ()
        end
        else fail l true
    | Workload.Remove ->
        if l.result then
          if present then begin
            Hashtbl.remove model l.key;
            Ok ()
          end
          else fail l false
        else if not present then Ok ()
        else if
          (* Interval-linearized fast-fail: valid iff the key was absent at
             some point in (earliest, stamp], i.e. it is absent now or its
             current presence began inside the interval. *)
          l.earliest < l.stamp && Hashtbl.find model l.key > l.earliest
        then Ok ()
        else fail l false
  in
  let rec go = function
    | [] -> Ok ()
    | l :: rest -> ( match replay l with Ok () -> go rest | e -> e)
  in
  go all
