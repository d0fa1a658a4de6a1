include Store_intf

let op_key = function
  | Get k | Insert k | Remove k -> k
  | Scan { low; _ } -> low

let positive = function
  | Found | Inserted | Removed -> true
  | Keys ks -> ks <> []
  | Absent | Duplicate | Missing | Overload -> false

let outcome_name = function
  | Found -> "found"
  | Absent -> "absent"
  | Inserted -> "inserted"
  | Duplicate -> "duplicate"
  | Removed -> "removed"
  | Missing -> "missing"
  | Keys _ -> "keys"
  | Overload -> "overload"

type t = Packed : (module S with type t = 'a) * 'a -> t

let pack m s = Packed (m, s)

let name (Packed ((module M), s)) = M.name s
let stamped (Packed ((module M), s)) = M.stamped s
let get (Packed ((module M), s)) ~thread k = M.get s ~thread k
let insert (Packed ((module M), s)) ~thread k = M.insert s ~thread k
let remove (Packed ((module M), s)) ~thread k = M.remove s ~thread k

let scan (Packed ((module M), s)) ~thread ~low ~count =
  M.scan s ~thread ~low ~count

let batch ?(fuse = false) (Packed ((module M), s)) ~thread ops =
  M.batch s ~thread ~fuse ops

let stats (Packed ((module M), s)) = M.stats s
let finalize_thread (Packed ((module M), s)) ~thread = M.finalize_thread s ~thread
let drain (Packed ((module M), s)) = M.drain s
let size (Packed ((module M), s)) = M.size s
let contents (Packed ((module M), s)) = M.contents s
let check (Packed ((module M), s)) = M.check s
let pool_live (Packed ((module M), s)) = M.pool_live s
let max_backlog (Packed ((module M), s)) = M.max_backlog s
let leaked (Packed ((module M), s)) = M.leaked s

let exec st ~thread = function
  | Get k -> get st ~thread k
  | Insert k -> insert st ~thread k
  | Remove k -> remove st ~thread k
  | Scan { low; count } -> scan st ~thread ~low ~count

(* ---- the shared implementation over structure primitives ----

   Each concrete structure exposes the same stamped point operations; one
   record of closures captures them and a single module [Prim] lifts the
   record to the full [S] signature (typed replies, scan, batching,
   stats). The record is private to this module: consumers see only [S]
   and the packed [t]. *)

type prim = {
  pr_name : string;
  pr_stamped : bool;
  pr_insert : thread:int -> int -> bool * int;
  pr_remove : thread:int -> int -> bool * int * int;
      (* (result, earliest, stamp) — see {!Store_intf.reply} *)
  pr_lookup : thread:int -> int -> bool * int;
  pr_finalize : thread:int -> unit;
  pr_drain : unit -> unit;
  pr_size : unit -> int;
  pr_contents : unit -> int list;
  pr_check : unit -> (unit, string) Stdlib.result;
  pr_pool_live : unit -> int option;
  pr_max_backlog : unit -> int option;
  pr_leaked : unit -> int option;
}

module Prim : S with type t = prim = struct
  type t = prim

  let name p = p.pr_name
  let stamped p = p.pr_stamped

  let get p ~thread k =
    let r, s = p.pr_lookup ~thread k in
    { outcome = (if r then Found else Absent); earliest = s; stamp = s }

  let insert p ~thread k =
    let r, s = p.pr_insert ~thread k in
    { outcome = (if r then Inserted else Duplicate); earliest = s; stamp = s }

  let remove p ~thread k =
    let r, e, s = p.pr_remove ~thread k in
    { outcome = (if r then Removed else Missing); earliest = e; stamp = s }

  let scan p ~thread ~low ~count =
    if count < 0 then invalid_arg "Store.scan: negative count";
    let hits = ref [] in
    let earliest = ref 0 and stamp = ref 0 in
    for k = low + count - 1 downto low do
      let r, s = p.pr_lookup ~thread k in
      if !stamp = 0 then stamp := s;
      earliest := s;
      if r then hits := k :: !hits
    done;
    (* probes ran high-to-low, so [stamp] is the first probe's stamp and
       [earliest] the last; order the interval *)
    let lo = min !earliest !stamp and hi = max !earliest !stamp in
    { outcome = Keys !hits; earliest = lo; stamp = hi }

  let exec1 p ~thread = function
    | Get k -> get p ~thread k
    | Insert k -> insert p ~thread k
    | Remove k -> remove p ~thread k
    | Scan { low; count } -> scan p ~thread ~low ~count

  let batch p ~thread ~fuse ops =
    if (not fuse) || Array.length ops <= 1 then
      Array.map (exec1 p ~thread) ops
    else
      (* One irrevocable serial transaction for the whole batch: nested
         structure transactions flatten into it, and deferred reservation
         and reclamation hand-offs run at its single commit. It would be
         abort-safe speculatively too (spares go back through
         [Tm.on_abort]); it stays serial for the scans' sake (DESIGN.md,
         decision 10). *)
      let r =
        Tm.atomic_stamped ~site:"store.batch" ~max_attempts:0 (fun _txn ->
            Array.map (exec1 p ~thread) ops)
      in
      Array.map
        (fun reply -> { reply with earliest = r.Tm.stamp; stamp = r.Tm.stamp })
        r.Tm.value

  let stats p = Telemetry.Report.snapshot ~label:p.pr_name ()
  let finalize_thread p ~thread = p.pr_finalize ~thread
  let drain p = p.pr_drain ()
  let size p = p.pr_size ()
  let contents p = p.pr_contents ()
  let check p = p.pr_check ()
  let pool_live p = p.pr_pool_live ()
  let max_backlog p = p.pr_max_backlog ()
  let leaked p = p.pr_leaked ()
end

let of_prim p = Packed ((module Prim), p)

let hazard_backlog metrics =
  Option.map (fun m -> m.Reclaim.Hazard.max_backlog) metrics

let of_hoh_list l =
  let open Structs.Hoh_list in
  of_prim
    {
      pr_name = name l;
      pr_stamped = true;
      pr_insert = (fun ~thread k -> insert_s l ~thread k);
      pr_remove =
        (fun ~thread k ->
          let r, s = remove_s l ~thread k in
          (r, s, s));
      pr_lookup = (fun ~thread k -> lookup_s l ~thread k);
      pr_finalize = (fun ~thread -> finalize_thread l ~thread);
      pr_drain = (fun () -> drain l);
      pr_size = (fun () -> size l);
      pr_contents = (fun () -> to_list l);
      pr_check = (fun () -> check l);
      pr_pool_live = (fun () -> Some (pool_live l));
      pr_max_backlog = (fun () -> hazard_backlog (hazard_metrics l));
      pr_leaked = (fun () -> None);
    }

let of_hoh_dlist l =
  let open Structs.Hoh_dlist in
  of_prim
    {
      pr_name = name l;
      pr_stamped = true;
      pr_insert = (fun ~thread k -> insert_s l ~thread k);
      pr_remove = (fun ~thread k -> remove_s l ~thread k);
      pr_lookup = (fun ~thread k -> lookup_s l ~thread k);
      pr_finalize = (fun ~thread -> finalize_thread l ~thread);
      pr_drain = (fun () -> drain l);
      pr_size = (fun () -> size l);
      pr_contents = (fun () -> to_list l);
      pr_check = (fun () -> check l);
      pr_pool_live = (fun () -> Some (pool_live l));
      pr_max_backlog = (fun () -> hazard_backlog (hazard_metrics l));
      pr_leaked = (fun () -> None);
    }

let of_bst_int t =
  let open Structs.Hoh_bst_int in
  of_prim
    {
      pr_name = name t;
      pr_stamped = true;
      pr_insert = (fun ~thread k -> insert_s t ~thread k);
      pr_remove =
        (fun ~thread k ->
          let r, s = remove_s t ~thread k in
          (r, s, s));
      pr_lookup = (fun ~thread k -> lookup_s t ~thread k);
      pr_finalize = (fun ~thread -> finalize_thread t ~thread);
      pr_drain = (fun () -> drain t);
      pr_size = (fun () -> size t);
      pr_contents = (fun () -> to_list t);
      pr_check = (fun () -> check t);
      pr_pool_live = (fun () -> Some (pool_live t));
      pr_max_backlog = (fun () -> None);
      pr_leaked = (fun () -> None);
    }

let of_bst_ext t =
  let open Structs.Hoh_bst_ext in
  of_prim
    {
      pr_name = name t;
      pr_stamped = true;
      pr_insert = (fun ~thread k -> insert_s t ~thread k);
      pr_remove =
        (fun ~thread k ->
          let r, s = remove_s t ~thread k in
          (r, s, s));
      pr_lookup = (fun ~thread k -> lookup_s t ~thread k);
      pr_finalize = (fun ~thread -> finalize_thread t ~thread);
      pr_drain = (fun () -> drain t);
      pr_size = (fun () -> size t);
      pr_contents = (fun () -> to_list t);
      pr_check = (fun () -> check t);
      pr_pool_live = (fun () -> Some (pool_live t));
      pr_max_backlog = (fun () -> hazard_backlog (hazard_metrics t));
      pr_leaked = (fun () -> None);
    }

let of_hashset t =
  let open Structs.Hoh_hashset in
  of_prim
    {
      pr_name = name t;
      pr_stamped = true;
      pr_insert = (fun ~thread k -> insert_s t ~thread k);
      pr_remove =
        (fun ~thread k ->
          let r, s = remove_s t ~thread k in
          (r, s, s));
      pr_lookup = (fun ~thread k -> lookup_s t ~thread k);
      pr_finalize = (fun ~thread -> finalize_thread t ~thread);
      pr_drain = (fun () -> drain t);
      pr_size = (fun () -> size t);
      pr_contents = (fun () -> to_list t);
      pr_check = (fun () -> check t);
      pr_pool_live = (fun () -> Some (pool_live t));
      pr_max_backlog = (fun () -> hazard_backlog (hazard_metrics t));
      pr_leaked = (fun () -> None);
    }

let of_skiplist t =
  let open Structs.Hoh_skiplist in
  of_prim
    {
      pr_name = name t;
      pr_stamped = true;
      pr_insert = (fun ~thread k -> insert_s t ~thread k);
      pr_remove =
        (fun ~thread k ->
          let r, s = remove_s t ~thread k in
          (r, s, s));
      pr_lookup = (fun ~thread k -> lookup_s t ~thread k);
      pr_finalize = (fun ~thread -> finalize_thread t ~thread);
      pr_drain = (fun () -> drain t);
      pr_size = (fun () -> size t);
      pr_contents = (fun () -> to_list t);
      pr_check = (fun () -> check t);
      pr_pool_live = (fun () -> Some (pool_live t));
      pr_max_backlog = (fun () -> hazard_backlog (hazard_metrics t));
      pr_leaked = (fun () -> None);
    }

let of_harris_list l =
  let open Lockfree.Harris_list in
  let leaked () =
    match hazard_metrics l with
    | Some _ -> None
    | None -> Some ((pool_stats l).Mempool.Stats.live - size l)
  in
  of_prim
    {
      pr_name = name l;
      pr_stamped = false;
      pr_insert = (fun ~thread k -> (insert l ~thread k, 0));
      pr_remove = (fun ~thread k -> (remove l ~thread k, 0, 0));
      pr_lookup = (fun ~thread k -> (lookup l ~thread k, 0));
      pr_finalize = (fun ~thread -> finalize_thread l ~thread);
      pr_drain = (fun () -> drain l);
      pr_size = (fun () -> size l);
      pr_contents = (fun () -> to_list l);
      pr_check = (fun () -> check l);
      pr_pool_live = (fun () -> Some (pool_live l));
      pr_max_backlog = (fun () -> hazard_backlog (hazard_metrics l));
      pr_leaked = leaked;
    }

let of_nm_tree t =
  let open Lockfree.Nm_tree in
  of_prim
    {
      pr_name = name t;
      pr_stamped = false;
      pr_insert = (fun ~thread k -> (insert t ~thread k, 0));
      pr_remove = (fun ~thread k -> (remove t ~thread k, 0, 0));
      pr_lookup = (fun ~thread k -> (lookup t ~thread k, 0));
      pr_finalize = (fun ~thread -> finalize_thread t ~thread);
      pr_drain = (fun () -> drain t);
      pr_size = (fun () -> size t);
      pr_contents = (fun () -> to_list t);
      pr_check = (fun () -> check t);
      pr_pool_live = (fun () -> None);
      pr_max_backlog = (fun () -> None);
      pr_leaked = (fun () -> Some (allocated t - reachable t));
    }
