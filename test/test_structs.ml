(* Tests for the transactional data structures: Listing 5's singly linked
   list, the doubly linked list with split unlink-and-revoke, and the
   internal/external unbalanced BSTs — across every reservation mode. *)

let checkb = Alcotest.(check bool)
let check = Alcotest.(check int)

open Harness

let rr_kinds = Factories.rr_kinds

module Spec = Factories.Spec

(* Every factory under test is a [Spec.t]; the HTM (plain single-
   transaction) variants take the structure's default window. *)
let spec ?window ?buckets ?fusion structure kind =
  Factories.make (Spec.v ?window ?buckets ?fusion structure kind)

let slist_factories =
  List.map (fun (_, k) -> spec ~window:3 Spec.Slist k) rr_kinds
  @ [
      spec Spec.Slist Structs.Mode.Htm;
      spec ~window:3 Spec.Slist Structs.Mode.Tmhp;
      spec ~window:3 Spec.Slist Structs.Mode.Ref;
      spec ~window:3 Spec.Slist Structs.Mode.Ebr;
    ]

let dlist_factories =
  List.map (fun (_, k) -> spec ~window:3 Spec.Dlist k) rr_kinds
  @ [
      spec Spec.Dlist Structs.Mode.Htm;
      spec ~window:3 Spec.Dlist Structs.Mode.Tmhp;
      spec ~window:3 Spec.Dlist Structs.Mode.Ref;
      spec ~window:3 Spec.Dlist Structs.Mode.Ebr;
    ]

let bst_int_factories =
  List.map (fun (_, k) -> spec ~window:3 Spec.Bst_int k) rr_kinds
  @ [ spec Spec.Bst_int Structs.Mode.Htm ]

let bst_ext_factories =
  List.map (fun (_, k) -> spec ~window:3 Spec.Bst_ext k) rr_kinds
  @ [
      spec Spec.Bst_ext Structs.Mode.Htm;
      spec ~window:3 Spec.Bst_ext Structs.Mode.Tmhp;
      spec ~window:3 Spec.Bst_ext Structs.Mode.Ebr;
    ]

(* hash set: use few buckets so chains are long enough to exercise
   hand-over-hand windows and reservations *)
let hashset_factories =
  List.map (fun (_, k) -> spec ~buckets:4 ~window:3 Spec.Hashset k) rr_kinds
  @ [
      spec ~buckets:4 Spec.Hashset Structs.Mode.Htm;
      spec ~buckets:4 ~window:3 Spec.Hashset Structs.Mode.Tmhp;
      spec ~buckets:4 ~window:3 Spec.Hashset Structs.Mode.Ref;
      spec ~buckets:4 ~window:3 Spec.Hashset Structs.Mode.Ebr;
    ]

let skiplist_factories =
  List.map (fun (_, k) -> spec ~window:3 Spec.Skiplist k) rr_kinds
  @ [
      spec Spec.Skiplist Structs.Mode.Htm;
      spec ~window:3 Spec.Skiplist Structs.Mode.Tmhp;
      spec ~window:3 Spec.Skiplist Structs.Mode.Ebr;
    ]

let all_factories =
  List.concat
    [
      List.map (fun f -> ("slist", f)) slist_factories;
      List.map (fun f -> ("dlist", f)) dlist_factories;
      List.map (fun f -> ("bst-int", f)) bst_int_factories;
      List.map (fun f -> ("bst-ext", f)) bst_ext_factories;
      List.map (fun f -> ("hashset", f)) hashset_factories;
      List.map (fun f -> ("skiplist", f)) skiplist_factories;
    ]

(* ---- sequential semantics against a Set model ---- *)

type op = I of int | R of int | L of int

let gen_ops =
  let open QCheck.Gen in
  let key = map (fun k -> k + 1) (int_bound 30) in
  list_size (int_bound 60)
    (oneof
       [ map (fun k -> I k) key; map (fun k -> R k) key; map (fun k -> L k) key ])

let print_ops ops =
  String.concat ";"
    (List.map
       (function
         | I k -> Printf.sprintf "I%d" k
         | R k -> Printf.sprintf "R%d" k
         | L k -> Printf.sprintf "L%d" k)
       ops)

(* Shrink both the op list (drop ops) and individual keys (toward 1), so
   counterexamples come back as the shortest sequence over the smallest
   keys that still disagrees with the model. *)
let shrink_op op yield =
  let key k mk = QCheck.Shrink.int k (fun k' -> if k' >= 1 then yield (mk k')) in
  match op with
  | I k -> key k (fun k -> I k)
  | R k -> key k (fun k -> R k)
  | L k -> key k (fun k -> L k)

let shrink_ops = QCheck.Shrink.list ~shrink:shrink_op

let arb_ops = QCheck.make ~print:print_ops ~shrink:shrink_ops gen_ops

(* Boolean views of the typed Store replies, for model comparison. *)
let ins st ~thread k = Store.positive (Store.insert st ~thread k).Store.outcome
let rem st ~thread k = Store.positive (Store.remove st ~thread k).Store.outcome
let mem st ~thread k = Store.positive (Store.get st ~thread k).Store.outcome

(* Drive a store and a Hashtbl model through the same op sequence; true
   iff every op agreed, the final contents match, and invariants hold.
   With [nested], each op runs inside its own enclosing transaction, as a
   service multi or fused batch runs it. *)
let agrees_with_model ?(nested = false) (h : Store.t) tid ops =
  let model = Hashtbl.create 64 in
  let run f = if nested then Tm.atomic (fun _ -> f ()) else f () in
  let ok =
    List.for_all
      (fun op ->
        match op with
        | I k ->
            let expected = not (Hashtbl.mem model k) in
            if expected then Hashtbl.replace model k ();
            run (fun () -> ins h ~thread:tid k) = expected
        | R k ->
            let expected = Hashtbl.mem model k in
            if expected then Hashtbl.remove model k;
            run (fun () -> rem h ~thread:tid k) = expected
        | L k -> run (fun () -> mem h ~thread:tid k) = Hashtbl.mem model k)
      ops
  in
  Store.finalize_thread h ~thread:tid;
  Store.drain h;
  let contents = List.sort compare (Store.contents h) in
  let model_contents =
    List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) model [])
  in
  ok && contents = model_contents && Store.check h = Ok ()

let qcheck_sequential (family, f) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s/%s sequential model" family f.Factories.label)
    ~count:60 arb_ops
    (fun ops ->
      Tm.Thread.with_registered (fun tid ->
          agrees_with_model (f.Factories.make ()) tid ops))

(* Window-randomized variant: the hand-over-hand window is part of the
   generated input (1..4, so the single-node window edge is exercised),
   over the structures where the window governs hand-off frequency —
   dlist, hashset, skiplist and both trees — for every RR flavour. On the
   internal tree this checks the side a removal takes from the descent,
   across window boundaries and the root re-descent. Two more inputs
   check an operation's own state across its windows (the dlist remove's
   phase, the skiplist's resume level, a consumed spare): whether each op
   runs nested in its own enclosing transaction, and the fusion ceiling
   (1 or 4), under which fused windows share one transaction. Only the
   op list shrinks: a short op list at the original settings is the more
   useful counterexample. *)
let gen_windowed =
  QCheck.Gen.(
    quad
      (map (fun w -> 1 + w) (int_bound 3))
      bool
      (oneofl [ 1; 4 ])
      gen_ops)

let arb_windowed =
  QCheck.make
    ~print:(fun (w, nested, fusion, ops) ->
      Printf.sprintf "window=%d nested=%b fusion=%d [%s]" w nested fusion
        (print_ops ops))
    ~shrink:(fun (w, nested, fusion, ops) yield ->
      shrink_ops ops (fun ops -> yield (w, nested, fusion, ops)))
    gen_windowed

let qcheck_windowed (family, structure, buckets) (kname, kind) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s/%s windowed model" family kname)
    ~count:40 arb_windowed
    (fun (window, nested, fusion, ops) ->
      Tm.Thread.with_registered (fun tid ->
          let f = spec ~window ~fusion ?buckets structure kind in
          agrees_with_model ~nested (f.Factories.make ()) tid ops))

let windowed_tests =
  List.concat_map
    (fun target -> List.map (qcheck_windowed target) rr_kinds)
    [
      ("dlist", Spec.Dlist, None);
      ("hashset", Spec.Hashset, Some 4);
      ("skiplist", Spec.Skiplist, None);
      ("bst-int", Spec.Bst_int, None);
      ("bst-ext", Spec.Bst_ext, None);
    ]

(* REF keeps its counts in the mode, one per pool id, not in the nodes.
   Over every structure that runs REF, the model must agree and, after
   the thread finalizes and the mode drains, every live pool node must be
   a linked one: a count left pinned or a free skipped shows as a leak.
   Nested ops check the spares an enclosing transaction frees. *)
let qcheck_ref_no_leaks (family, structure, buckets) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s/REF model, no leaked nodes" family)
    ~count:40 arb_windowed
    (fun (window, nested, fusion, ops) ->
      Tm.Thread.with_registered (fun tid ->
          let h =
            (spec ~window ~fusion ?buckets structure Structs.Mode.Ref)
              .Factories.make ()
          in
          agrees_with_model ~nested h tid ops
          && Store.pool_live h = Some (Store.size h)))

let ref_tests =
  List.map qcheck_ref_no_leaks
    [
      ("slist", Spec.Slist, None);
      ("dlist", Spec.Dlist, None);
      ("hashset", Spec.Hashset, Some 4);
    ]

(* ---- targeted unit tests ---- *)

let with_handle f g =
  Tm.Thread.with_registered (fun tid -> g tid (f.Factories.make ()))

let test_empty_ops (_, f) () =
  with_handle f (fun tid h ->
      checkb "lookup on empty" false (mem h ~thread:tid 5);
      checkb "remove on empty" false (rem h ~thread:tid 5);
      check "size 0" 0 (Store.size h);
      checkb "check ok" true (Store.check h = Ok ()))

let test_duplicate_insert (_, f) () =
  with_handle f (fun tid h ->
      checkb "first insert" true (ins h ~thread:tid 7);
      checkb "duplicate rejected" false (ins h ~thread:tid 7);
      check "size 1" 1 (Store.size h))

let test_sorted_contents (_, f) () =
  with_handle f (fun tid h ->
      List.iter
        (fun k -> ignore (ins h ~thread:tid k))
        [ 5; 1; 9; 3; 7; 2; 8 ];
      Alcotest.(check (list int))
        "contents sorted" [ 1; 2; 3; 5; 7; 8; 9 ]
        (Store.contents h))

let test_remove_all (family, f) () =
  with_handle f (fun tid h ->
      let keys = List.init 40 (fun i -> i + 1) in
      List.iter (fun k -> ignore (ins h ~thread:tid k)) keys;
      List.iter
        (fun k ->
          checkb "removed" true (rem h ~thread:tid k))
        keys;
      check "empty at end" 0 (Store.size h);
      Store.finalize_thread h ~thread:tid;
      Store.drain h;
      (match Store.pool_live h with
      | Some live ->
          check (family ^ " precise reclamation: no live nodes") 0 live
      | None -> ());
      checkb "check ok" true (Store.check h = Ok ()))

(* Interleaved single-thread churn exercises node reuse heavily. *)
let test_churn (_, f) () =
  with_handle f (fun tid h ->
      let rng = Test_util.Prng.create 99 in
      let model = Hashtbl.create 64 in
      for _ = 1 to 3000 do
        let k = 1 + Test_util.Prng.int rng 16 in
        match Test_util.Prng.int rng 3 with
        | 0 ->
            let e = not (Hashtbl.mem model k) in
            if e then Hashtbl.replace model k ();
            checkb "insert agrees" e (ins h ~thread:tid k)
        | 1 ->
            let e = Hashtbl.mem model k in
            if e then Hashtbl.remove model k;
            checkb "remove agrees" e (rem h ~thread:tid k)
        | _ ->
            checkb "lookup agrees" (Hashtbl.mem model k)
              (mem h ~thread:tid k)
      done;
      checkb "structure intact" true (Store.check h = Ok ()))

(* ---- concurrent stress with full verification via the driver ---- *)

let driver_case name f spec =
  Alcotest.test_case name `Slow (fun () ->
      Tm.Thread.with_registered (fun _ ->
          let h = f.Factories.make () in
          let r = Driver.run spec h in
          match r.Driver.verdict with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: %s" name e))

let stress_spec =
  Workload.spec ~key_bits:6 ~lookup_pct:30 ~threads:4 ~ops_per_thread:2500 ()

let stress_cases =
  List.map
    (fun (family, f) ->
      driver_case
        (Printf.sprintf "%s/%s serializable under contention" family
           f.Factories.label)
        f stress_spec)
    all_factories

(* ---- structure-specific behaviour ---- *)

let test_dlist_split_ablation () =
  Tm.Thread.with_registered (fun _ ->
      List.iter
        (fun split_unlink ->
          let l =
            Structs.Hoh_dlist.create
              ~mode:(Structs.Mode.Rr_kind (module Rr.Fa))
              ~window:3 ~split_unlink ()
          in
          let h = Store.pack (module Store.Hoh_dlist) l in
          let spec =
            Workload.spec ~key_bits:5 ~lookup_pct:20 ~threads:4
              ~ops_per_thread:1500 ()
          in
          let r = Driver.run spec h in
          match r.Driver.verdict with
          | Ok () -> ()
          | Error e -> Alcotest.failf "split_unlink=%b: %s" split_unlink e)
        [ true; false ])

let test_tmhp_no_recycled_resumes () =
  Tm.Thread.with_registered (fun _ ->
      let before = Atomic.get Structs.Mode.tmhp_gen_violations in
      let h = (spec ~window:3 Spec.Slist Structs.Mode.Tmhp).Factories.make () in
      let spec =
        Workload.spec ~key_bits:5 ~lookup_pct:10 ~threads:4
          ~ops_per_thread:2000 ()
      in
      let r = Driver.run spec h in
      checkb "run ok" true (r.Driver.verdict = Ok ());
      check "hazard protocol never resumes a recycled node" before
        (Atomic.get Structs.Mode.tmhp_gen_violations))

let test_tmhp_reclaims_on_drain () =
  Tm.Thread.with_registered (fun tid ->
      let l = Structs.Hoh_list.create ~mode:Structs.Mode.Tmhp ~window:4 () in
      List.iter
        (fun k -> ignore (Structs.Hoh_list.insert l ~thread:tid k))
        (List.init 100 (fun i -> i + 1));
      List.iter
        (fun k -> ignore (Structs.Hoh_list.remove l ~thread:tid k))
        (List.init 100 (fun i -> i + 1));
      Structs.Hoh_list.finalize_thread l ~thread:tid;
      Structs.Hoh_list.drain l;
      (match Structs.Hoh_list.hazard_metrics l with
      | Some m ->
          check "retired everything" 100 m.Reclaim.Hazard.retired_total;
          check "drained backlog" 0 m.Reclaim.Hazard.backlog;
          checkb "deferral was real (backlog grew past 1)" true
            (m.Reclaim.Hazard.max_backlog > 1)
      | None -> Alcotest.fail "expected hazard metrics");
      check "pool empty" 0 (Structs.Hoh_list.pool_stats l).Mempool.Stats.live)

let test_rr_list_reclaims_immediately () =
  Tm.Thread.with_registered (fun tid ->
      let l =
        Structs.Hoh_list.create
          ~mode:(Structs.Mode.Rr_kind (module Rr.V))
          ~window:4 ()
      in
      ignore (Structs.Hoh_list.insert l ~thread:tid 1);
      ignore (Structs.Hoh_list.insert l ~thread:tid 2);
      let live () = (Structs.Hoh_list.pool_stats l).Mempool.Stats.live in
      check "two live" 2 (live ());
      ignore (Structs.Hoh_list.remove l ~thread:tid 1);
      (* precise: the node is back in the pool the moment remove returns *)
      check "freed immediately, no drain needed" 1 (live ()))

(* Owner-local reservations: a window that only walks and hands off
   writes no tvar, so it commits read-only and never bumps the clock. A
   64-key RR-V list at window 4 walks about 15 windows to key 120; only
   the final, linking window of an update commits, plus the node's alloc
   or free poke. *)
let test_handoff_clock_traffic () =
  Tm.Thread.with_registered (fun thread ->
      let l =
        Structs.Hoh_list.create
          ~mode:(Structs.Mode.Rr_kind (module Rr.V))
          ~window:4 ~scatter:false ()
      in
      for i = 1 to 64 do
        ignore (Structs.Hoh_list.insert l ~thread (2 * i))
      done;
      let bumps f =
        let c0 = Tm.clock () in
        ignore (f ());
        Tm.clock () - c0
      in
      check "lookup 120 (hit)" 0
        (bumps (fun () -> Structs.Hoh_list.lookup l ~thread 120));
      check "lookup 121 (miss)" 0
        (bumps (fun () -> Structs.Hoh_list.lookup l ~thread 121));
      check "insert 121: the commit and the alloc poke" 2
        (bumps (fun () -> Structs.Hoh_list.insert l ~thread 121));
      check "remove 121: the commit and the free poke" 2
        (bumps (fun () -> Structs.Hoh_list.remove l ~thread 121)))

(* The window policy every structure shares ({!Structs.Mode}): where an
   operation's windows begin and end. Under RR-V with no scatter, one
   lookup of a deep key commits one transaction per window, so the count
   pins the first-window budget, the continuation budget and the trees'
   resumed-window floor at windows 1 and 3. Under HTM every operation is
   one transaction. Each row fills its structure with [keys] in order (an
   ascending fill makes the trees one deep spine) and looks up [deep].
   Skiplist towers are a hash of the key, so the row holds whichever
   thread id the suite hands the test. *)
let test_window_pins () =
  Tm.Thread.with_registered (fun thread ->
      let commits f =
        let s = Tm.Thread.stats () in
        let c0 = Tm.Stats.commits s in
        ignore (f ());
        Tm.Stats.commits s - c0
      in
      let upto n = List.init n (fun i -> i + 1) in
      let of_spec ?buckets ?fusion structure ?window ?scatter kind =
        (Factories.make
           (Spec.v ?window ?scatter ?fusion ?buckets structure kind))
          .Factories.make ()
      in
      let rows =
        [
          ("slist", of_spec Spec.Slist, upto 32, 32, (32, 11));
          ("hashset", of_spec ~buckets:2 Spec.Hashset, upto 64, 64, (32, 11));
          ("dlist", of_spec Spec.Dlist, upto 32, 32, (32, 11));
          ("bst-int", of_spec Spec.Bst_int, upto 24, 24, (25, 12));
          ("bst-ext", of_spec Spec.Bst_ext, upto 24, 24, (25, 12));
          ("skiplist", of_spec Spec.Skiplist, upto 64, 40, (12, 4));
        ]
      in
      List.iter
        (fun (name, make, keys, deep, (at1, at3)) ->
          let store ?window ?scatter kind =
            let st = make ?window ?scatter kind in
            List.iter
              (fun k -> checkb (name ^ ": fill") true (ins st ~thread k))
              keys;
            st
          in
          List.iter
            (fun (window, want) ->
              let st =
                store ~window ~scatter:false
                  (Structs.Mode.Rr_kind (module Rr.V))
              in
              check
                (Printf.sprintf "%s: lookup %d at window %d, windows" name deep
                   window)
                want
                (commits (fun () -> mem st ~thread deep)))
            [ (1, at1); (3, at3) ];
          let st = store Structs.Mode.Htm in
          List.iter
            (fun (op, f) ->
              check (Printf.sprintf "%s: htm %s, transactions" name op) 1
                (commits (fun () -> f st ~thread deep)))
            [ ("lookup", mem); ("remove", rem); ("insert", ins) ])
        rows;
      (* Fusion reaches the skiplist: a hand-off keeps its resume level
         through [Tm.assign], so fused windows share one transaction. The
         fill's clean commits raise the fuse budget to its ceiling, so the
         deep lookup's 7 windows commit as 4 + 3. *)
      List.iter
        (fun (fusion, want) ->
          let st =
            of_spec ~fusion Spec.Skiplist ~window:1 ~scatter:false
              (Structs.Mode.Rr_kind (module Rr.V))
          in
          List.iter
            (fun k -> checkb "skiplist: fill" true (ins st ~thread k))
            (upto 64);
          check
            (Printf.sprintf "skiplist: lookup 63 at window 1, fusion %d, \
                             transactions" fusion)
            want
            (commits (fun () -> mem st ~thread 63)))
        [ (1, 7); (4, 2) ])

(* RR-V with a probe on [release_all], which the window engine calls at
   the end of every window, inside its transaction: it records whether the
   window ran unlogged and how many reads it logged. *)
module Logged_probe = struct
  include Rr.V

  let windows : (bool * int) list ref = ref []

  let release_all t txn =
    windows := (Tm.is_unlogged txn, Tm.reads_logged txn) :: !windows;
    Rr.V.release_all t txn
end

(* Unlogged hand-over-hand windows under RR-V: every lookup and traversal
   window keeps no read set, and an update that writes commits exactly one
   logged window, the one that acts from its anchor node. An update that
   writes nothing (an insert of a present key, a removal of an absent one)
   finishes unlogged. Each structure is filled with 1..64 in order at
   window 3, no scatter, so each operation walks several windows. *)
let test_unlogged_windows () =
  Tm.Thread.with_registered (fun thread ->
      let probe = Structs.Mode.Rr_kind (module Logged_probe) in
      let windows f =
        Logged_probe.windows := [];
        let r = f () in
        let ws = List.rev !Logged_probe.windows in
        let logged = List.filter (fun (unlogged, _) -> not unlogged) ws in
        List.iter
          (fun (unlogged, reads) ->
            if unlogged then check "an unlogged window logs no read" 0 reads)
          ws;
        (r, List.length ws, List.length logged)
      in
      List.iter
        (fun (name, structure, buckets) ->
          let st =
            (Factories.make
               (Spec.v ~window:3 ~scatter:false ?buckets structure probe))
              .Factories.make ()
          in
          for k = 1 to 64 do
            checkb (name ^ ": fill") true (ins st ~thread k)
          done;
          let expect what (result, logged) f =
            let r, n, l = windows f in
            checkb (Printf.sprintf "%s: %s result" name what) result r;
            checkb (Printf.sprintf "%s: %s walked windows" name what) true
              (n > 1);
            check (Printf.sprintf "%s: %s logged windows" name what) logged l
          in
          expect "lookup 60 (hit)" (true, 0) (fun () -> mem st ~thread 60);
          expect "lookup 99 (miss)" (false, 0) (fun () -> mem st ~thread 99);
          expect "insert 60 (present)" (false, 0) (fun () ->
              ins st ~thread 60);
          expect "remove 60" (true, 1) (fun () -> rem st ~thread 60);
          expect "remove 60 (absent)" (false, 0) (fun () ->
              rem st ~thread 60);
          expect "insert 60" (true, 1) (fun () -> ins st ~thread 60);
          checkb (name ^ ": check") true (Store.check st = Ok ()))
        [
          ("slist", Spec.Slist, None);
          ("hashset", Spec.Hashset, Some 2);
          ("dlist", Spec.Dlist, None);
          ("bst-int", Spec.Bst_int, None);
          ("bst-ext", Spec.Bst_ext, None);
          ("skiplist", Spec.Skiplist, None);
        ])

(* Two-child removal copies: a fresh node carrying the successor's key
   replaces the removed one, so the removal allocates one node and frees
   two (the removed node and the successor). [Hoh_bst_int.t] is abstract:
   the test reaches the root sentinel through the record's field 1
   ([root]) to find the removed node's id. *)
let test_bst_int_two_child_removal () =
  Tm.Thread.with_registered (fun tid ->
      let t =
        Structs.Hoh_bst_int.create
          ~mode:(Structs.Mode.Rr_kind (module Rr.Fa))
          ~window:16 ()
      in
      List.iter
        (fun k -> ignore (Structs.Hoh_bst_int.insert t ~thread:tid k))
        [ 50; 30; 70; 20; 40; 60; 80; 65 ];
      let root : Structs.Tnode.t = Obj.obj (Obj.field (Obj.repr t) 1) in
      check "field 1 is the root sentinel" max_int root.Structs.Tnode.key;
      let top = Tm.peek root.Structs.Tnode.left in
      check "the node holding 50" 50 top.Structs.Tnode.key;
      let stats () = Structs.Hoh_bst_int.pool_stats t in
      let before = stats () in
      checkb "remove root (two children)" true
        (Structs.Hoh_bst_int.remove t ~thread:tid 50);
      let after = stats () in
      check "one alloc: the copy" 1
        (after.Mempool.Stats.allocs - before.Mempool.Stats.allocs);
      check "two frees: the removed node and the successor" 2
        (after.Mempool.Stats.frees - before.Mempool.Stats.frees);
      let rec ids n =
        if n == Structs.Tnode.nil then []
        else
          (n.Structs.Tnode.id :: ids (Tm.peek n.Structs.Tnode.left))
          @ ids (Tm.peek n.Structs.Tnode.right)
      in
      checkb "the removed node is no longer linked" false
        (List.mem top.Structs.Tnode.id (ids (Tm.peek root.Structs.Tnode.left)));
      Alcotest.(check (list int))
        "leftmost of right subtree copied in"
        [ 20; 30; 40; 60; 65; 70; 80 ]
        (Structs.Hoh_bst_int.to_list t);
      checkb "invariants hold" true (Structs.Hoh_bst_int.check t = Ok ());
      checkb "swapped key still found" true
        (Structs.Hoh_bst_int.lookup t ~thread:tid 60);
      checkb "removed key gone" false
        (Structs.Hoh_bst_int.lookup t ~thread:tid 50);
      check "pool live = size" 7
        (Structs.Hoh_bst_int.pool_stats t).Mempool.Stats.live)

let test_bst_int_chain_removal () =
  Tm.Thread.with_registered (fun tid ->
      let t =
        Structs.Hoh_bst_int.create
          ~mode:(Structs.Mode.Rr_kind (module Rr.Xo))
          ~window:2 ()
      in
      (* degenerate (sorted-insert) tree forces deep hand-over-hand chains *)
      for k = 1 to 60 do
        ignore (Structs.Hoh_bst_int.insert t ~thread:tid k)
      done;
      check "depth is linear" 60 (Structs.Hoh_bst_int.depth t);
      for k = 1 to 60 do
        checkb "found" true (Structs.Hoh_bst_int.lookup t ~thread:tid k)
      done;
      for k = 60 downto 1 do
        checkb "removed" true (Structs.Hoh_bst_int.remove t ~thread:tid k)
      done;
      check "empty" 0 (Structs.Hoh_bst_int.size t))

let test_bst_ext_structure () =
  Tm.Thread.with_registered (fun tid ->
      let t =
        Structs.Hoh_bst_ext.create
          ~mode:(Structs.Mode.Rr_kind (module Rr.V))
          ~window:16 ()
      in
      List.iter
        (fun k -> ignore (Structs.Hoh_bst_ext.insert t ~thread:tid k))
        [ 10; 5; 15; 3; 7 ];
      check "size" 5 (Structs.Hoh_bst_ext.size t);
      (* external tree: n leaves and n-1 routers *)
      check "pool live = 2n-1" 9
        (Structs.Hoh_bst_ext.pool_stats t).Mempool.Stats.live;
      checkb "remove leaf" true (Structs.Hoh_bst_ext.remove t ~thread:tid 3);
      check "leaf and router reclaimed" 7
        (Structs.Hoh_bst_ext.pool_stats t).Mempool.Stats.live;
      checkb "invariants" true (Structs.Hoh_bst_ext.check t = Ok ());
      checkb "last leaf removable" true
        (List.for_all
           (fun k -> Structs.Hoh_bst_ext.remove t ~thread:tid k)
           [ 10; 5; 15; 7 ]);
      check "empty tree" 0 (Structs.Hoh_bst_ext.size t);
      check "nothing live" 0
        (Structs.Hoh_bst_ext.pool_stats t).Mempool.Stats.live;
      checkb "reinsert into empty works" true
        (Structs.Hoh_bst_ext.insert t ~thread:tid 42))

let test_key_range_checks () =
  Tm.Thread.with_registered (fun tid ->
      let l =
        Structs.Hoh_list.create ~mode:(Structs.Mode.Rr_kind (module Rr.V)) ()
      in
      checkb "rejects sentinel-range keys" true
        (match Structs.Hoh_list.insert l ~thread:tid min_int with
        | _ -> false
        | exception Invalid_argument _ -> true);
      let t = Structs.Hoh_bst_ext.create ~mode:Structs.Mode.Htm () in
      checkb "bst rejects max_int" true
        (match Structs.Hoh_bst_ext.insert t ~thread:tid max_int with
        | _ -> false
        | exception Invalid_argument _ -> true))

(* A tree key is a plain field that only a node no thread can reach has
   set, so [Tnode.route] validates each key load with the link read after
   it. Here a transaction reaches [n] through [root]'s link; on its first
   attempt only, [n] is unlinked, freed and handed out again with the
   very key the search is after. The key load then hits, and only the
   link read on the hit branch, whose version the free and the alloc have
   moved past the snapshot, can abort the attempt; the retry finds the
   tree as it is after the change, without the key. *)
let test_recycled_key_aborts () =
  Tm.Thread.with_registered (fun thread ->
      let open Structs in
      let pool = Tnode.make_pool () in
      let root = Tnode.sentinel ~key:max_int in
      let n = Tnode.alloc pool ~thread in
      Tnode.set_key n 10;
      Tm.poke root.Tnode.left n;
      let recycled = ref false in
      let r =
        Tm.atomic_stamped ~site:"test.recycled_key" (fun txn ->
            let c = Tm.read txn root.Tnode.left in
            if not !recycled then begin
              recycled := true;
              Tm.poke root.Tnode.left Tnode.nil;
              Mempool.free pool ~thread c;
              let m = Tnode.alloc pool ~thread in
              checkb "the pool hands the node out again" true (m == c);
              Tnode.set_key m 20
            end;
            c != Tnode.nil
            &&
            match Tnode.route txn c 20 with
            | Tnode.Hit _ -> true
            | Tnode.Left _ | Tnode.Right _ -> false)
      in
      check "the attempt that loaded the recycled key aborted" 2
        r.Tm.attempts;
      checkb "the answer is the tree's after the change" false r.Tm.value)

(* The list structures' records are abstract; a test that works behind a
   structure's back reaches its head sentinel ([Hoh_dlist], [Hoh_skiplist])
   or its bucket heads ([Hoh_list], one for the list) through field 1, and
   its pool through its mode, field 0, guarded so a moved layout fails the
   test rather than crashing it. *)
let head_and_pool name v =
  let f i = Obj.field (Obj.repr v) i in
  checkb (name ^ ": fields 0 and 1 are blocks") true
    (Obj.is_block (f 0) && Obj.is_block (f 1));
  let mode : _ Structs.Mode.t = Obj.obj (f 0) in
  (Obj.obj (f 1), mode.Structs.Mode.pool)

(* The list counterpart of [tnode: recycled key aborts]: [List_walk.walk]
   loads each node's plain key and then reads its [next], which validates
   the load. The transaction reads the link from [head] to [a -> c]; on its
   first attempt only, that link is cut (the unlinking commit's change to
   the read set), and [c], still linked from [a], is freed and handed out
   again with the key the walk is after. The walk from [a] reaches [c]
   through a link no one changed and loads the new key; only the read of
   [c.next], whose version the free and the alloc moved past the
   snapshot, can abort the attempt. The retry finds [head] cut. *)
let test_slist_recycled_key_aborts () =
  Tm.Thread.with_registered (fun thread ->
      let open Structs in
      let pool = Lnode.make_pool () in
      let node k next =
        let n = Lnode.alloc pool ~thread in
        Lnode.set_key n k;
        Tm.poke n.Lnode.next next;
        n
      in
      let c = node 10 Lnode.nil in
      let head = Lnode.sentinel () in
      Tm.poke head.Lnode.next (node 5 c);
      let recycled = ref false in
      let r =
        Tm.atomic_stamped ~site:"test.recycled_key" (fun txn ->
            let a = Tm.read txn head.Lnode.next in
            if not !recycled then begin
              recycled := true;
              Tm.poke head.Lnode.next Lnode.nil;
              Mempool.free pool ~thread c;
              let m = Lnode.alloc pool ~thread in
              checkb "the pool hands the node out again" true (m == c);
              Lnode.set_key m 20
            end;
            a != Lnode.nil
            &&
            match List_walk.walk txn ~key:20 ~prev:a ~budget:max_int with
            | `Found _ -> true
            | `Absent _ | `Window _ -> false)
      in
      check "the attempt that loaded the recycled key aborted" 2
        r.Tm.attempts;
      checkb "the answer is the list's after the change" false r.Tm.value)

(* [Hoh_dlist]'s own walk, through a lookup flattened into an enclosing
   transaction. The walk starts at the head sentinel and would abort on a
   cut head link before it reached the recycled node, so here the node
   stays linked (it is recycled behind the list's back) and [guard], read
   before the change, stands for the link the unlinking commit changed:
   it is what makes the timestamp extension fail. *)
let test_dlist_recycled_key_aborts () =
  Tm.Thread.with_registered (fun thread ->
      let open Structs in
      let t = Hoh_dlist.create ~mode:(Mode.Rr_kind (module Rr.V)) () in
      checkb "insert 10" true (Hoh_dlist.insert t ~thread 10);
      let (head : Dnode.t), (pool : Dnode.t Mempool.t) =
        head_and_pool "dlist" t
      in
      check "field 1 is the head sentinel" (-1) head.Dnode.id;
      let c = Tm.peek head.Dnode.next in
      check "the node holding 10" 10 c.Dnode.key;
      checkb "the mode's pool holds the node" true (Mempool.is_live pool c);
      let guard = Tm.tvar 0 and recycled = ref false in
      let r =
        Tm.atomic_stamped ~site:"test.recycled_key" (fun txn ->
            ignore (Tm.read txn guard);
            if not !recycled then begin
              recycled := true;
              Tm.poke guard 1;
              Mempool.free pool ~thread c;
              let m = Dnode.alloc pool ~thread in
              checkb "the pool hands the node out again" true (m == c);
              Dnode.set_key m 20
            end;
            Hoh_dlist.lookup t ~thread 20)
      in
      check "the attempt that loaded the recycled key aborted" 2
        r.Tm.attempts;
      checkb "the retry reads the node as it is now" true r.Tm.value)

(* The skiplist's carried hint: a pinned schedule parks a removal in
   [fresh_pred] after the deletion check on its level-1 hint and after
   the plain loads of the hint's key and level, and another thread then
   removes the hint's key and inserts one that recycles the node at a
   lower height ([Dst_scenarios.recycled_hint]). The re-read of the top
   link fails its timestamp extension, since the deletion check logged
   that link, so the window runs twice; the retry refuses the recycled
   hint and descends again. *)
let test_skiplist_recycled_hint_aborts () =
  let ext_fails = ref (-1) in
  let o =
    Dst.Explore.replay
      (Dst_scenarios.recycled_hint ~a_ext_fails:ext_fails)
      Dst_scenarios.sched_recycled_hint
  in
  (match o.Dst.Sched.failure with
  | Some f -> Alcotest.failf "%a" Dst.Sched.pp_failure f
  | None -> ());
  checkb "the run completed" false o.Dst.Sched.hung;
  check "the window that re-read the hint aborted once" 1 !ext_fails

(* Poison leaves a key as it was, so [check] can no longer spot a freed
   node by a poisoned key: it finds one linked through the deletion mark
   that poison writes and, once that mark is undone, through
   [Mempool.is_live]. Each case frees a linked node (key 2) behind the
   structure's back. *)
let expect_freed name ~check ~unmark ~id ~mark ~live =
  let err = Alcotest.(check (result unit string)) in
  err (name ^ ": found by the deletion mark")
    (Error (Printf.sprintf mark id)) (check ());
  unmark ();
  err (name ^ ": found by the pool")
    (Error (Printf.sprintf live id)) (check ())

let test_slist_freed_node_fails_check () =
  Tm.Thread.with_registered (fun thread ->
      let open Structs in
      let l = Hoh_list.create ~mode:(Mode.Rr_kind (module Rr.V)) () in
      List.iter (fun k -> ignore (Hoh_list.insert l ~thread k)) [ 1; 2; 3; 4 ];
      let (heads : Lnode.t array), (pool : Lnode.t Mempool.t) =
        head_and_pool "slist" l
      in
      let n = Tm.peek (Tm.peek heads.(0).Lnode.next).Lnode.next in
      let succ = Tm.peek n.Lnode.next in
      checkb "slist: the mode's pool holds the node" true (Mempool.is_live pool n);
      Mempool.free pool ~thread n;
      expect_freed "slist"
        ~check:(fun () -> Hoh_list.check l)
        ~unmark:(fun () -> Tm.poke n.Lnode.next succ)
        ~id:n.Lnode.id ~mark:"deleted node %d (key 2) linked"
        ~live:"freed node %d (key 2) linked")

let test_hashset_freed_node_fails_check () =
  Tm.Thread.with_registered (fun thread ->
      let open Structs in
      let h =
        Hoh_list.create ~mode:(Mode.Rr_kind (module Rr.V)) ~buckets:1 ()
      in
      List.iter (fun k -> ignore (Hoh_list.insert h ~thread k)) [ 1; 2; 3; 4 ];
      let (heads : Lnode.t array), (pool : Lnode.t Mempool.t) =
        head_and_pool "hashset" h
      in
      let n = Tm.peek (Tm.peek heads.(0).Lnode.next).Lnode.next in
      let succ = Tm.peek n.Lnode.next in
      check "hashset: the node holding 2" 2 n.Lnode.key;
      checkb "hashset: the mode's pool holds the node" true (Mempool.is_live pool n);
      Mempool.free pool ~thread n;
      expect_freed "hashset"
        ~check:(fun () -> Hoh_list.check h)
        ~unmark:(fun () -> Tm.poke n.Lnode.next succ)
        ~id:n.Lnode.id ~mark:"deleted node %d (key 2) linked"
        ~live:"freed node %d (key 2) linked")

let test_dlist_freed_node_fails_check () =
  Tm.Thread.with_registered (fun thread ->
      let open Structs in
      let l = Hoh_dlist.create ~mode:(Mode.Rr_kind (module Rr.V)) () in
      List.iter (fun k -> ignore (Hoh_dlist.insert l ~thread k)) [ 1; 2; 3; 4 ];
      let (head : Dnode.t), (pool : Dnode.t Mempool.t) =
        head_and_pool "dlist" l
      in
      let n = Tm.peek (Tm.peek head.Dnode.next).Dnode.next in
      let pred = Tm.peek n.Dnode.prev and succ = Tm.peek n.Dnode.next in
      checkb "dlist: the mode's pool holds the node" true (Mempool.is_live pool n);
      Mempool.free pool ~thread n;
      expect_freed "dlist"
        ~check:(fun () -> Hoh_dlist.check l)
        ~unmark:(fun () ->
          Tm.poke n.Dnode.prev pred;
          Tm.poke n.Dnode.next succ)
        ~id:n.Dnode.id ~mark:"deleted node %d (key 2) linked"
        ~live:"freed node %d (key 2) linked")

let test_skiplist_freed_node_fails_check () =
  Tm.Thread.with_registered (fun thread ->
      let open Structs in
      let sl = Hoh_skiplist.create ~mode:(Mode.Rr_kind (module Rr.V)) () in
      List.iter
        (fun k -> ignore (Hoh_skiplist.insert sl ~thread k))
        [ 1; 2; 3; 4 ];
      let (head : Snode.t), (pool : Snode.t Mempool.t) =
        head_and_pool "skiplist" sl
      in
      let n = Tm.peek (Tm.peek head.Snode.next.(0)).Snode.next.(0) in
      let tower = Array.map Tm.peek n.Snode.next in
      check "skiplist: the node holding 2" 2 n.Snode.key;
      checkb "skiplist: the mode's pool holds the node" true (Mempool.is_live pool n);
      Mempool.free pool ~thread n;
      expect_freed "skiplist"
        ~check:(fun () -> Hoh_skiplist.check sl)
        ~unmark:(fun () -> Array.iteri (fun l v -> Tm.poke n.Snode.next.(l) v) tower)
        ~id:n.Snode.id ~mark:"deleted node %d linked"
        ~live:"freed node %d linked")

let test_mode_restrictions () =
  checkb "internal tree rejects TMHP" true
    (match Structs.Hoh_bst_int.create ~mode:Structs.Mode.Tmhp () with
    | _ -> false
    | exception Invalid_argument _ -> true);
  checkb "internal tree rejects EBR" true
    (match Structs.Hoh_bst_int.create ~mode:Structs.Mode.Ebr () with
    | _ -> false
    | exception Invalid_argument _ -> true);
  checkb "external tree rejects REF" true
    (match Structs.Hoh_bst_ext.create ~mode:Structs.Mode.Ref () with
    | _ -> false
    | exception Invalid_argument _ -> true);
  checkb "internal tree rejects REF" true
    (match Structs.Hoh_bst_int.create ~mode:Structs.Mode.Ref () with
    | _ -> false
    | exception Invalid_argument _ -> true);
  checkb "skiplist rejects REF" true
    (match Structs.Hoh_skiplist.create ~mode:Structs.Mode.Ref () with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* REF's count table grows on demand, under a lock, while other threads
   read it without one. One domain inserts ascending keys, so every insert
   walks to the tail and reserves ever newer pool ids: the table grows
   from empty through about nine doublings. Meanwhile the other domain
   reserves through lookups and removes over the same keys, reading the
   table as it is replaced. A count lost in a copy would pin a node or
   free one twice. *)
let test_ref_count_table_growth () =
  let keys = 512 in
  let l = Structs.Hoh_list.create ~mode:Structs.Mode.Ref ~window:4 () in
  let inserted = Atomic.make false in
  let churn =
    Domain.spawn (fun () ->
        Tm.Thread.with_registered (fun thread ->
            let rng = Test_util.Prng.create 17 in
            let ops = ref 0 in
            while (not (Atomic.get inserted)) || !ops < 500 do
              incr ops;
              let k = 1 + Test_util.Prng.int rng keys in
              if Test_util.Prng.int rng 4 = 0 then
                ignore (Structs.Hoh_list.remove l ~thread k)
              else ignore (Structs.Hoh_list.lookup l ~thread k)
            done;
            Structs.Hoh_list.finalize_thread l ~thread))
  in
  Tm.Thread.with_registered (fun thread ->
      for k = 1 to keys do
        ignore (Structs.Hoh_list.insert l ~thread k)
      done;
      Structs.Hoh_list.finalize_thread l ~thread);
  Atomic.set inserted true;
  Domain.join churn;
  Structs.Hoh_list.drain l;
  checkb "more than 256 pool ids: several doublings" true
    ((Structs.Hoh_list.pool_stats l).Mempool.Stats.fresh > 256);
  checkb "check ok" true (Structs.Hoh_list.check l = Ok ());
  check "leaked" 0
    (Structs.Hoh_list.pool_live l - Structs.Hoh_list.size l)

(* A quiescent walk tests the deletion mark before it follows [next], so a
   self-linked node ends it: [check] names the node, and [to_list] and
   [size] return, for the list and for the hash set (the list over
   buckets). [Hoh_list.t] is abstract, so the test reaches the bucket
   sentinels through the record's field 1 ([heads], one for the list);
   the guards fail the test, rather than crash it, if that layout
   moves. *)
let test_self_link_ends_walks () =
  let field1 name v =
    let f = Obj.field (Obj.repr v) 1 in
    checkb (name ^ ": field 1 is a block") true (Obj.is_block f);
    f
  in
  let sentinel name f : Structs.Lnode.t =
    check (name ^ ": a 4-field node") 4 (Obj.size f);
    let h : Structs.Lnode.t = Obj.obj f in
    check (name ^ ": the sentinel") (-1) h.Structs.Lnode.id;
    h
  in
  let self_link h ~nth =
    let rec go n i =
      if i = 0 then n else go (Tm.peek n.Structs.Lnode.next) (i - 1)
    in
    let n = go h nth in
    Tm.poke n.Structs.Lnode.next n;
    n
  in
  Tm.Thread.with_registered (fun thread ->
      let rr = Structs.Mode.Rr_kind (module Rr.V) in
      let l = Structs.Hoh_list.create ~mode:rr () in
      List.iter
        (fun k -> ignore (Structs.Hoh_list.insert l ~thread k))
        [ 1; 2; 3; 4 ];
      let heads : Obj.t = field1 "slist" l in
      check "slist: one head" 1 (Obj.size heads);
      let n = self_link (sentinel "slist" (Obj.field heads 0)) ~nth:2 in
      Alcotest.(check (result unit string))
        "slist: check names the node"
        (Error
           (Printf.sprintf "deleted node %d (key 2) linked" n.Structs.Lnode.id))
        (Structs.Hoh_list.check l);
      Alcotest.(check (list int))
        "slist: to_list stops at it" [ 1; 2 ] (Structs.Hoh_list.to_list l);
      check "slist: size" 2 (Structs.Hoh_list.size l);
      let h = Structs.Hoh_list.create ~mode:rr ~buckets:1 () in
      List.iter
        (fun k -> ignore (Structs.Hoh_list.insert h ~thread k))
        [ 1; 2; 3; 4 ];
      let heads : Obj.t = field1 "hashset" h in
      check "hashset: one bucket" 1 (Obj.size heads);
      let n = self_link (sentinel "hashset" (Obj.field heads 0)) ~nth:3 in
      Alcotest.(check (result unit string))
        "hashset: check names the node"
        (Error
           (Printf.sprintf "deleted node %d (key 3) linked" n.Structs.Lnode.id))
        (Structs.Hoh_list.check h);
      Alcotest.(check (list int))
        "hashset: to_list stops at it" [ 1; 2; 3 ]
        (Structs.Hoh_list.to_list h);
      check "hashset: size" 3 (Structs.Hoh_list.size h))

(* Per-node footprint in words, pinned so a field or block added to a node
   shows up here. A node record is a header plus one word per field, the
   first of which is the pool's state word; a tvar is 3 (one block:
   header, lock word, payload; the uid lives in the lock word). A link
   holds the node or the module's shared [nil] directly, with no option
   box, and [nil] is not counted.
   No node carries a reference count: REF keeps its counts in the mode.
   Each list has its exact-fit node: [Lnode] is the singly linked
   [{key, next}], and only the doubly linked [Dnode] has a [prev]. *)
let test_node_layout () =
  Tm.Thread.with_registered (fun tid ->
      let words name pool alloc nil =
        let n = alloc pool ~thread:tid in
        let w =
          Obj.reachable_words (Obj.repr n) - Obj.reachable_words (Obj.repr nil)
        in
        let field0 () : int = Obj.obj (Obj.field (Obj.repr n) 0) in
        check (name ^ ": field 0 is odd while live") 1 (field0 () land 1);
        Mempool.free pool ~thread:tid n;
        check (name ^ ": field 0 is even once freed") 0 (field0 () land 1);
        checkb (name ^ ": freeing nil raises") true
          (match Mempool.free pool ~thread:tid nil with
          | () -> false
          | exception Mempool.Double_free _ -> true);
        w
      in
      let record fields = 1 + fields and tvar = 3 in
      check "tnode: 5 fields, 2 tvars (12)" (record 5 + (2 * tvar))
        (words "tnode"
           (Structs.Tnode.make_pool ())
           Structs.Tnode.alloc Structs.Tnode.nil);
      check "lnode: 4 fields, 1 tvar (8)" (record 4 + tvar)
        (words "lnode"
           (Structs.Lnode.make_pool ())
           Structs.Lnode.alloc Structs.Lnode.nil);
      check "dnode: 5 fields, 2 tvars (12)" (record 5 + (2 * tvar))
        (words "dnode"
           (Structs.Dnode.make_pool ())
           Structs.Dnode.alloc Structs.Dnode.nil);
      check "snode: 5 fields, a tower of 16 (71)"
        (record 5 + record Structs.Snode.max_level
        + (Structs.Snode.max_level * tvar))
        (words "snode"
           (Structs.Snode.make_pool ())
           Structs.Snode.alloc Structs.Snode.nil))

(* The whole structure grows by exactly one node's words per key: no link
   carries a box of its own. Measured at three sizes, [words - keys x node]
   must be the same constant (the sentinels, pool and mode). *)
let test_structure_footprint () =
  Tm.Thread.with_registered (fun thread ->
      let rr = Structs.Mode.Rr_kind (module Rr.V) in
      let per_key name ~node_words ~insert ~repr =
        let filled = ref 0 in
        let fill_to n =
          while !filled < n do
            incr filled;
            checkb (name ^ ": insert") true (insert !filled)
          done;
          Obj.reachable_words (repr ()) - (n * node_words)
        in
        let c1 = fill_to 1024 in
        let c2 = fill_to 2048 in
        let c4 = fill_to 4096 in
        check (name ^ ": 1024 -> 2048 keys, words - keys x node") c1 c2;
        check (name ^ ": 2048 -> 4096 keys, words - keys x node") c2 c4
      in
      let bst = Structs.Hoh_bst_int.create ~mode:rr () in
      (* a scattered key order keeps the unbalanced tree shallow *)
      per_key "bst-int" ~node_words:12
        ~insert:(fun i ->
          Structs.Hoh_bst_int.insert bst ~thread (i * 7919 mod 4099))
        ~repr:(fun () -> Obj.repr bst);
      (* an external tree holds a leaf and a router per key *)
      let ext = Structs.Hoh_bst_ext.create ~mode:rr () in
      per_key "bst-ext" ~node_words:(2 * 12)
        ~insert:(fun i ->
          Structs.Hoh_bst_ext.insert ext ~thread (i * 7919 mod 4099))
        ~repr:(fun () -> Obj.repr ext);
      (* descending keys insert at the head: O(1) per insert *)
      let sl = Structs.Hoh_list.create ~mode:rr () in
      per_key "slist" ~node_words:8
        ~insert:(fun i -> Structs.Hoh_list.insert sl ~thread (10_000 - i))
        ~repr:(fun () -> Obj.repr sl);
      let dl = Structs.Hoh_dlist.create ~mode:rr () in
      per_key "dlist" ~node_words:12
        ~insert:(fun i -> Structs.Hoh_dlist.insert dl ~thread (10_000 - i))
        ~repr:(fun () -> Obj.repr dl);
      let hs = Structs.Hoh_list.create ~mode:rr ~buckets:64 () in
      per_key "hashset" ~node_words:8
        ~insert:(fun i -> Structs.Hoh_list.insert hs ~thread (10_000 - i))
        ~repr:(fun () -> Obj.repr hs))

let test_skiplist_structure () =
  Tm.Thread.with_registered (fun tid ->
      let sl =
        Structs.Hoh_skiplist.create
          ~mode:(Structs.Mode.Rr_kind (module Rr.V))
          ~window:4 ()
      in
      for k = 1 to 500 do
        checkb "insert" true (Structs.Hoh_skiplist.insert sl ~thread:tid k)
      done;
      check "size" 500 (Structs.Hoh_skiplist.size sl);
      checkb "multi-level invariants" true
        (Structs.Hoh_skiplist.check sl = Ok ());
      let hist = Structs.Hoh_skiplist.levels_histogram sl in
      checkb "some tall towers exist" true
        (Array.exists (fun c -> c > 0) (Array.sub hist 3 (Array.length hist - 3)));
      checkb "height-1 dominates (geometric)" true
        (hist.(1) > hist.(2) && hist.(2) > hist.(3));
      for k = 1 to 500 do
        checkb "remove" true (Structs.Hoh_skiplist.remove sl ~thread:tid k)
      done;
      check "precise reclamation" 0
        (Structs.Hoh_skiplist.pool_stats sl).Mempool.Stats.live)

(* Operations compose: because nested Tm.atomic calls flatten into the
   enclosing transaction, a remove-from-one/insert-into-other pair wrapped
   in an outer transaction moves an element between two structures
   atomically — concurrent observers never see the element in both or in
   neither. *)
let test_atomic_cross_structure_move () =
  Tm.Thread.with_registered (fun tid ->
      let mk () =
        Structs.Hoh_list.create
          ~mode:(Structs.Mode.Rr_kind (module Rr.V))
          ~window:4 ()
      in
      let a = mk () and b = mk () in
      for k = 1 to 32 do
        ignore (Structs.Hoh_list.insert a ~thread:tid k)
      done;
      let stop = Atomic.make false in
      let violations = Atomic.make 0 in
      let observer =
        Domain.spawn (fun () ->
            Tm.Thread.with_registered (fun otid ->
                while not (Atomic.get stop) do
                  for k = 1 to 32 do
                    let in_both =
                      Tm.atomic (fun _ ->
                          let ia = Structs.Hoh_list.lookup a ~thread:otid k in
                          let ib = Structs.Hoh_list.lookup b ~thread:otid k in
                          (ia, ib))
                    in
                    match in_both with
                    | true, true | false, false -> Atomic.incr violations
                    | _ -> ()
                  done
                done))
      in
      (* move everything a -> b, one atomic move at a time *)
      for k = 1 to 32 do
        let moved =
          Tm.atomic (fun _ ->
              let r = Structs.Hoh_list.remove a ~thread:tid k in
              if r then assert (Structs.Hoh_list.insert b ~thread:tid k);
              r)
        in
        checkb "moved" true moved
      done;
      Atomic.set stop true;
      Domain.join observer;
      check "no observer saw a torn move" 0 (Atomic.get violations);
      check "a empty" 0 (Structs.Hoh_list.size a);
      check "b full" 32 (Structs.Hoh_list.size b))

let test_hashset_buckets () =
  Tm.Thread.with_registered (fun tid ->
      let h =
        Structs.Hoh_list.create
          ~mode:(Structs.Mode.Rr_kind (module Rr.V))
          ~buckets:2 ~window:2 ()
      in
      for k = 1 to 200 do
        checkb "insert" true (Structs.Hoh_list.insert h ~thread:tid k)
      done;
      check "size" 200 (Structs.Hoh_list.size h);
      Alcotest.(check (list int))
        "sorted contents"
        (List.init 200 (fun i -> i + 1))
        (Structs.Hoh_list.to_list h);
      checkb "bucket invariants" true (Structs.Hoh_list.check h = Ok ());
      for k = 1 to 200 do
        checkb "remove" true (Structs.Hoh_list.remove h ~thread:tid k)
      done;
      check "reclaimed" 0
        (Structs.Hoh_list.pool_stats h).Mempool.Stats.live)

let test_ebr_defers_then_reclaims () =
  Tm.Thread.with_registered (fun tid ->
      let l = Structs.Hoh_list.create ~mode:Structs.Mode.Ebr ~window:4 () in
      List.iter
        (fun k -> ignore (Structs.Hoh_list.insert l ~thread:tid k))
        (List.init 100 (fun i -> i + 1));
      List.iter
        (fun k -> ignore (Structs.Hoh_list.remove l ~thread:tid k))
        (List.init 100 (fun i -> i + 1));
      Structs.Hoh_list.finalize_thread l ~thread:tid;
      Structs.Hoh_list.drain l;
      (match Structs.Hoh_list.hazard_metrics l with
      | Some m ->
          check "all retired" 100 m.Reclaim.Hazard.retired_total;
          check "all freed after drain" 100 m.Reclaim.Hazard.freed_total;
          checkb "epoch advanced" true (m.Reclaim.Hazard.scans > 0)
      | None -> Alcotest.fail "expected epoch metrics");
      check "pool empty" 0 (Structs.Hoh_list.pool_stats l).Mempool.Stats.live)

let () =
  let unit_cases name f =
    List.map
      (fun ((family, fac) as x) ->
        Alcotest.test_case
          (Printf.sprintf "%s/%s %s" family fac.Factories.label name)
          `Quick (f x))
      all_factories
  in
  Alcotest.run "structs"
    [
      ("empty", unit_cases "empty ops" test_empty_ops);
      ("duplicates", unit_cases "duplicate insert" test_duplicate_insert);
      ("sorted", unit_cases "sorted contents" test_sorted_contents);
      ("remove-all", unit_cases "remove all + reclamation" test_remove_all);
      ( "churn",
        List.map
          (fun ((family, fac) as x) ->
            Alcotest.test_case
              (Printf.sprintf "%s/%s churn" family fac.Factories.label)
              `Slow (test_churn x))
          all_factories );
      ("stress", stress_cases);
      ( "specifics",
        [
          Alcotest.test_case "dlist split ablation" `Slow
            test_dlist_split_ablation;
          Alcotest.test_case "tmhp: no recycled resumes" `Slow
            test_tmhp_no_recycled_resumes;
          Alcotest.test_case "tmhp: deferred reclamation" `Quick
            test_tmhp_reclaims_on_drain;
          Alcotest.test_case "rr: immediate reclamation" `Quick
            test_rr_list_reclaims_immediately;
          Alcotest.test_case "bst-int: two-child removal" `Quick
            test_bst_int_two_child_removal;
          Alcotest.test_case "bst-int: degenerate chain" `Quick
            test_bst_int_chain_removal;
          Alcotest.test_case "bst-ext: structure and reclamation" `Quick
            test_bst_ext_structure;
          Alcotest.test_case "tnode: recycled key aborts" `Quick
            test_recycled_key_aborts;
          Alcotest.test_case "slist: recycled key aborts" `Quick
            test_slist_recycled_key_aborts;
          Alcotest.test_case "dlist: recycled key aborts" `Quick
            test_dlist_recycled_key_aborts;
          Alcotest.test_case "skiplist: recycled hint aborts" `Quick
            test_skiplist_recycled_hint_aborts;
          Alcotest.test_case "key range" `Quick test_key_range_checks;
          Alcotest.test_case "mode restrictions" `Quick test_mode_restrictions;
          Alcotest.test_case "ref: count table growth" `Quick
            test_ref_count_table_growth;
          Alcotest.test_case "self-link ends walks" `Quick
            test_self_link_ends_walks;
          Alcotest.test_case "slist: freed node fails check" `Quick
            test_slist_freed_node_fails_check;
          Alcotest.test_case "hashset: freed node fails check" `Quick
            test_hashset_freed_node_fails_check;
          Alcotest.test_case "dlist: freed node fails check" `Quick
            test_dlist_freed_node_fails_check;
          Alcotest.test_case "skiplist: freed node fails check" `Quick
            test_skiplist_freed_node_fails_check;
          Alcotest.test_case "node layout" `Quick test_node_layout;
          Alcotest.test_case "structure footprint" `Quick
            test_structure_footprint;
          Alcotest.test_case "hashset buckets" `Quick test_hashset_buckets;
          Alcotest.test_case "atomic cross-structure move" `Slow
            test_atomic_cross_structure_move;
          Alcotest.test_case "skiplist structure" `Quick
            test_skiplist_structure;
          Alcotest.test_case "ebr: deferred reclamation" `Quick
            test_ebr_defers_then_reclaims;
          Alcotest.test_case "rr-v: read-only hand-offs" `Quick
            test_handoff_clock_traffic;
          Alcotest.test_case "window pins" `Quick test_window_pins;
          Alcotest.test_case "rr-v: unlogged windows" `Quick
            test_unlogged_windows;
        ] );
      ( "properties",
        List.map
          (fun x -> QCheck_alcotest.to_alcotest (qcheck_sequential x))
          all_factories );
      ( "windowed-properties",
        List.map QCheck_alcotest.to_alcotest windowed_tests );
      ("ref-properties", List.map QCheck_alcotest.to_alcotest ref_tests);
    ]
