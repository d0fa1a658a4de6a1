(* Interprocedural effect rows.

   A summary is computed bottom-up per function (module-level bindings and
   local [let]/[let rec] closures alike) and applied at call sites, so a
   helper like [List_walk.walk] advances its caller's typestate instead of
   havocking it. Transfers are per-parameter: what protocol operations the
   callee performs on that argument, and what it therefore requires of the
   argument's abstract state. *)

type ptransfer = {
  mutable derefs : bool;  (* reads/writes a field of this parameter *)
  mutable checks : bool;  (* upgrades it via Get / an equality witness *)
  mutable reserves : bool;
  mutable releases : bool;
  mutable revokes : bool;  (* revoke / Mode.invalidate *)
  mutable frees : bool;  (* Mempool.free / Mode.dispose *)
  mutable requires_retired : bool;
      (* the free path expects the node already revoked (dispose-style);
         calling it on an un-revoked node is free-under-live-reservation *)
}

let fresh_ptransfer () =
  {
    derefs = false;
    checks = false;
    reserves = false;
    releases = false;
    revokes = false;
    frees = false;
    requires_retired = false;
  }

(* Where the returned node (if any) comes from: a fresh pool allocation, a
   shared transactional read, or one of the parameters passed through. *)
type src = Sfresh | Sshared | Sparam of int

type t = {
  params : ptransfer array;
  mutable ret_sources : src list;  (* [] = the result carries no node *)
  mutable may_raise : bool;
  mutable releases_all : bool;  (* discharges every live reservation *)
  mutable eager_free : bool;
      (* runs Mempool.free outside Tm.defer, a ~free closure or a
         Tm.current_txn None branch, itself or through a callee *)
}

let create ~arity =
  {
    params = Array.init arity (fun _ -> fresh_ptransfer ());
    ret_sources = [];
    may_raise = false;
    releases_all = false;
    eager_free = false;
  }

let param t i =
  if i >= 0 && i < Array.length t.params then Some t.params.(i) else None

let add_ret_source t s =
  if not (List.mem s t.ret_sources) then t.ret_sources <- s :: t.ret_sources

(* The global summary table: module-level functions keyed by
   (immediate module basename, value name), refilled by each of the
   driver's passes until it stops changing.  "Basename" strips dune's wrapping prefix, so
   [Structs__List_walk.walk] and [List_walk.walk] resolve identically. *)
let table : (string * string, t) Hashtbl.t = Hashtbl.create 256

let record ~modname ~name summary =
  Hashtbl.replace table (modname, name) summary

let lookup ~modname ~name = Hashtbl.find_opt table (modname, name)
let reset () = Hashtbl.reset table
