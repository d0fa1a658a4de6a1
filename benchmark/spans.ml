(* Bench-side trace spans of the traced run.

   Each request gets one [request] span, from the time it was issued to
   the moment its reply is seen, and child
   spans around the calls the client made into a layer on its behalf.
   Children share the request's id and name the request span as parent.
   Spans go into a preallocated per-client buffer and are written out when
   the workload ends; once the buffer is full, further requests go
   untraced (the per-layer metrics do not depend on the buffer: they are
   computed from every request as it completes). *)

open Bigarray

type kind =
  | Request
  | Submit  (** [Service.submit] *)
  | Pending
      (** from the submit's return to the last poll that still found the
          ticket unfinished: time the service provably still held it *)
  | Await  (** a blocking [Service.await] *)
  | Try_await  (** the [Service.try_await] poll that found the reply *)
  | Multi  (** [Service.multi] *)
  | Store_get
  | Store_insert
  | Store_remove

let name = function
  | Request -> "request"
  | Submit -> "service.submit"
  | Pending -> "service.pending"
  | Await -> "service.await"
  | Try_await -> "service.try_await"
  | Multi -> "service.multi"
  | Store_get -> "store.get"
  | Store_insert -> "store.insert"
  | Store_remove -> "store.remove"

let kinds =
  [ Request; Submit; Pending; Await; Try_await; Multi; Store_get;
    Store_insert; Store_remove ]

let code k =
  let rec go i = function
    | [] -> assert false
    | k' :: rest -> if k' = k then i else go (i + 1) rest
  in
  go 0 kinds

let capacity = 1 lsl 18

type col = (int, int_elt, c_layout) Array1.t

type t = {
  rid : col;
  kind : col;
  parent : col;
  t0 : col;
  t1 : col;
  mutable used : int;
}

let create () =
  let col () = Array1.create int c_layout capacity in
  { rid = col (); kind = col (); parent = col (); t0 = col (); t1 = col ();
    used = 0 }

let add t ~rid ~kind ~parent ~t0 ~t1 =
  let i = t.used in
  t.rid.{i} <- rid;
  t.kind.{i} <- code kind;
  t.parent.{i} <- parent;
  t.t0.{i} <- t0;
  t.t1.{i} <- t1;
  t.used <- i + 1;
  i

(* Record one request and its children, or nothing once fewer than
   [1 + List.length children] slots remain. *)
let request t ~rid ~t0 ~t1 children =
  if t.used + 1 + List.length children <= capacity then begin
    let p = add t ~rid ~kind:Request ~parent:(-1) ~t0 ~t1 in
    List.iter
      (fun (kind, c0, c1) -> ignore (add t ~rid ~kind ~parent:p ~t0:c0 ~t1:c1))
      children
  end

let fields = [ "client"; "span"; "parent"; "request"; "name"; "start_ns"; "end_ns" ]

(* One JSON document per workload: a field list and one row per span.
   [span] and [parent] index the client's own rows; a root has parent -1. *)
let write path ~workload (clients : t array) =
  let oc = open_out path in
  Printf.fprintf oc "{\"workload\":%S,\"fields\":[%s],\"spans\":[" workload
    (String.concat "," (List.map (Printf.sprintf "%S") fields));
  let first = ref true in
  Array.iteri
    (fun c t ->
      for i = 0 to t.used - 1 do
        if not !first then output_char oc ',';
        first := false;
        Printf.fprintf oc "\n[%d,%d,%d,%d,%S,%d,%d]" c i t.parent.{i} t.rid.{i}
          (name (List.nth kinds t.kind.{i}))
          t.t0.{i} t.t1.{i}
      done)
    clients;
  output_string oc "\n]}\n";
  close_out oc

(* Check a written trace: every child lies inside its parent, and the
   parent is a [request] span carrying the same request id. Returns the
   span count. *)
let check_file path =
  let module J = Telemetry.Json in
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let ( let* ) = Result.bind in
  let* doc = J.of_string text in
  let* rows =
    match Option.bind (J.member "spans" doc) J.to_list with
    | Some rows -> Ok rows
    | None -> Error "no spans list"
  in
  let row r =
    match r with
    | J.List [ J.Int c; J.Int i; J.Int p; J.Int rid; J.String n; J.Int s; J.Int e ]
      ->
        Ok (c, i, p, rid, n, s, e)
    | _ -> Error "malformed span row"
  in
  let* rows =
    List.fold_right
      (fun r acc ->
        let* acc = acc in
        let* x = row r in
        Ok (x :: acc))
      rows (Ok [])
  in
  let index = Hashtbl.create 1024 in
  List.iter (fun ((c, i, _, _, _, _, _) as x) -> Hashtbl.replace index (c, i) x) rows;
  let* () =
    List.fold_left
      (fun acc (c, i, p, rid, n, s, e) ->
        let* () = acc in
        if e < s then Error (Printf.sprintf "span %d/%d (%s) ends before it starts" c i n)
        else if p < 0 then
          if n = "request" then Ok ()
          else Error (Printf.sprintf "span %d/%d (%s) has no parent" c i n)
        else
          match Hashtbl.find_opt index (c, p) with
          | None -> Error (Printf.sprintf "span %d/%d: parent %d missing" c i p)
          | Some (_, _, _, prid, pn, ps, pe) ->
              if pn <> "request" then
                Error (Printf.sprintf "span %d/%d: parent is %s, not request" c i pn)
              else if prid <> rid then
                Error (Printf.sprintf "span %d/%d: request id %d, parent's %d" c i rid prid)
              else if s < ps || e > pe then
                Error
                  (Printf.sprintf "span %d/%d (%s) [%d,%d] outside its request [%d,%d]"
                     c i n s e ps pe)
              else Ok ())
      (Ok ()) rows
  in
  Ok (List.length rows)
