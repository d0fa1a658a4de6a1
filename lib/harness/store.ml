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

(* ---- one implementation over the shared set signature ----

   Every structure exposes the operations of {!Structs.Set_intf.S}; one
   functor lifts them to the full [S] signature (typed replies, scan,
   batching, stats). *)

module Of_set (M : Structs.Set_intf.S) : S with type t = M.t = struct
  type t = M.t

  let name = M.name
  let stamped _ = true

  let get p ~thread k =
    let r, s = M.lookup_s p ~thread k in
    { outcome = (if r then Found else Absent); earliest = s; stamp = s }

  let insert p ~thread k =
    let r, s = M.insert_s p ~thread k in
    { outcome = (if r then Inserted else Duplicate); earliest = s; stamp = s }

  let remove p ~thread k =
    let r, e, s = M.remove_s p ~thread k in
    { outcome = (if r then Removed else Missing); earliest = e; stamp = s }

  let scan p ~thread ~low ~count =
    if count < 0 then invalid_arg "Store.scan: negative count";
    let hits = ref [] in
    let earliest = ref 0 and stamp = ref 0 in
    for k = low + count - 1 downto low do
      let r, s = M.lookup_s p ~thread k in
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

  let stats p = Telemetry.Report.snapshot ~label:(M.name p) ()
  let finalize_thread = M.finalize_thread
  let drain = M.drain
  let size = M.size
  let contents = M.to_list
  let check = M.check
  let pool_live p = Some (M.pool_live p)

  let max_backlog p =
    Option.map (fun m -> m.Reclaim.Hazard.max_backlog) (M.hazard_metrics p)

  let leaked _ = None
end

module Hoh_list = Of_set (Structs.Hoh_list)
module Hoh_dlist = Of_set (Structs.Hoh_dlist)
module Hoh_bst_int = Of_set (Structs.Hoh_bst_int)
module Hoh_bst_ext = Of_set (Structs.Hoh_bst_ext)
module Hoh_skiplist = Of_set (Structs.Hoh_skiplist)

(* The lock-free baselines have no stamps and no windows: their replies
   carry zeros, which the serialization checker skips. *)
module Unstamped (L : sig
  type t

  val insert : t -> thread:int -> int -> bool
  val remove : t -> thread:int -> int -> bool
  val lookup : t -> thread:int -> int -> bool
end) =
struct
  let insert_s l ~thread k = (L.insert l ~thread k, 0)
  let remove_s l ~thread k = (L.remove l ~thread k, 0, 0)
  let lookup_s l ~thread k = (L.lookup l ~thread k, 0)
  let window_size _ = 0
  let fuse_budget _ ~thread:_ = 0
end

module Harris_list = struct
  module L = Lockfree.Harris_list

  include Of_set (struct
    include L
    include Unstamped (L)
  end)

  let stamped _ = false

  let leaked l =
    match L.hazard_metrics l with
    | Some _ -> None
    | None -> Some ((L.pool_stats l).Mempool.Stats.live - L.size l)
end

module Nm_tree = struct
  module L = Lockfree.Nm_tree

  (* no pool and no hazard pointers: the tree leaks by design *)
  include Of_set (struct
    include L
    include Unstamped (L)

    let pool_stats _ = invalid_arg "Nm_tree: no pool"
    let pool_live _ = 0
    let hazard_metrics _ = None
  end)

  let stamped _ = false
  let pool_live _ = None
  let leaked t = Some (L.allocated t - L.reachable t)
end
