(* Tests for the explicit pool allocator (precise-reclamation substrate). *)

type obj = { id : int; state : int Atomic.t; mutable payload : int }

let make_pool ?strategy ?batch () =
  Mempool.create ?strategy ?batch
    ~make:(fun id -> { id; state = Atomic.make 0; payload = 0 })
    ~node_id:(fun o -> o.id)
    ~state:(fun o -> o.state)
    ~poison:(fun o -> o.payload <- -1)
    ()

(* A fresh node, coerced as a structure coerces a spare when it links it. *)
let alloc p ~thread = (Mempool.alloc p ~thread : obj Mempool.fresh :> obj)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_alloc_free_reuse () =
  let p = make_pool ~strategy:Mempool.Size_class () in
  let a = alloc p ~thread:0 in
  a.payload <- 42;
  checkb "live after alloc" true (Mempool.is_live p a);
  Mempool.free p ~thread:0 a;
  checkb "not live after free" false (Mempool.is_live p a);
  check "poisoned" (-1) a.payload;
  let b = alloc p ~thread:0 in
  checkb "immediate reuse (precise reclamation)" true (a == b);
  check "same id across reuse" a.id b.id

let test_unique_ids () =
  let p = make_pool () in
  let objs = List.init 100 (fun _ -> alloc p ~thread:0) in
  let ids = List.sort_uniq compare (List.map (fun o -> o.id) objs) in
  check "all ids distinct" 100 (List.length ids)

let test_double_free () =
  let p = make_pool () in
  let a = alloc p ~thread:0 in
  Mempool.free p ~thread:0 a;
  Alcotest.check_raises "double free detected" (Mempool.Double_free a.id)
    (fun () -> Mempool.free p ~thread:0 a)

let test_free_unallocated () =
  let p = make_pool () in
  let a = alloc p ~thread:0 in
  Mempool.free p ~thread:0 a;
  (* freeing a fabricated-but-never-allocated node: simulate via reuse *)
  let b = alloc p ~thread:0 in
  Mempool.free p ~thread:0 b;
  Alcotest.check_raises "free of free node" (Mempool.Double_free b.id)
    (fun () -> Mempool.free p ~thread:0 b)

let test_stats_accounting () =
  let p = make_pool ~strategy:Mempool.Thread_arena () in
  let objs = List.init 50 (fun _ -> alloc p ~thread:0) in
  List.iteri (fun i o -> if i < 30 then Mempool.free p ~thread:0 o) objs;
  let st = Mempool.stats p in
  check "allocs" 50 st.Mempool.Stats.allocs;
  check "frees" 30 st.Mempool.Stats.frees;
  check "live" 20 st.Mempool.Stats.live;
  check "fresh" 50 st.Mempool.Stats.fresh;
  checkb "high water >= live" true (st.Mempool.Stats.high_water >= 20)

let test_high_water () =
  let p = make_pool () in
  let objs = List.init 10 (fun _ -> alloc p ~thread:0) in
  List.iter (Mempool.free p ~thread:0) objs;
  let o = alloc p ~thread:0 in
  ignore o;
  let st = Mempool.stats p in
  check "high water is the peak" 10 st.Mempool.Stats.high_water;
  check "live now" 1 st.Mempool.Stats.live

let test_size_class_hits_global () =
  let p = make_pool ~strategy:Mempool.Size_class () in
  let a = alloc p ~thread:0 in
  Mempool.free p ~thread:0 a;
  ignore (alloc p ~thread:1);
  let st = Mempool.stats p in
  (* every alloc/free touches the shared list under size-class *)
  checkb "global ops counted" true (st.Mempool.Stats.global_ops >= 3)

let test_thread_arena_local () =
  let p = make_pool ~strategy:Mempool.Thread_arena ~batch:64 () in
  let a = alloc p ~thread:0 in
  Mempool.free p ~thread:0 a;
  let g0 = (Mempool.stats p).Mempool.Stats.global_ops in
  let b = alloc p ~thread:0 in
  checkb "arena returns local node" true (a == b);
  let g1 = (Mempool.stats p).Mempool.Stats.global_ops in
  check "local reuse avoids the global freelist" g0 g1

let test_arena_spill_and_steal () =
  let p = make_pool ~strategy:Mempool.Thread_arena ~batch:4 () in
  (* thread 0 frees enough to spill a batch to the global stack *)
  let objs = List.init 16 (fun _ -> alloc p ~thread:0) in
  List.iter (Mempool.free p ~thread:0) objs;
  (* thread 1 should be able to reuse spilled nodes *)
  let got = List.init 4 (fun _ -> alloc p ~thread:1) in
  let reused = List.filter (fun o -> List.memq o objs) got in
  checkb "cross-thread reuse via batches" true (List.length reused > 0)

let test_flush_arenas () =
  let p = make_pool ~strategy:Mempool.Thread_arena () in
  let a = alloc p ~thread:2 in
  Mempool.free p ~thread:2 a;
  Mempool.flush_arenas p;
  (* after flush, another thread can see it through the global list *)
  let b = alloc p ~thread:3 in
  checkb "flushed node reusable elsewhere" true (a == b)

(* ---- the state word: a counter whose parity is live/free ---- *)

let test_generation_counts_allocs () =
  let p = make_pool ~strategy:Mempool.Size_class () in
  let a = alloc p ~thread:0 in
  check "first alloc" 1 (Mempool.generation p a);
  for g = 2 to 5 do
    Mempool.free p ~thread:0 a;
    check "free keeps the generation" (g - 1) (Mempool.generation p a);
    let b = alloc p ~thread:0 in
    checkb "same slot back" true (a == b);
    check "alloc adds exactly one" g (Mempool.generation p a)
  done

let test_live_follows_parity () =
  let p = make_pool () in
  let a = alloc p ~thread:0 in
  for _ = 1 to 3 do
    checkb "odd word, live" true (Atomic.get a.state land 1 = 1);
    checkb "is_live while allocated" true (Mempool.is_live p a);
    Mempool.free p ~thread:0 a;
    checkb "even word, free" true (Atomic.get a.state land 1 = 0);
    checkb "not is_live once freed" false (Mempool.is_live p a);
    (* At every generation, freeing a free node is still a double free. *)
    Alcotest.check_raises "double free at any generation"
      (Mempool.Double_free a.id) (fun () -> Mempool.free p ~thread:0 a);
    checkb "same node back" true (alloc p ~thread:0 == a)
  done

let test_pooled_word_forced_odd () =
  let p = make_pool () in
  let a = alloc p ~thread:0 in
  Mempool.free p ~thread:0 a;
  (* Corrupt the pooled node's word to a live value: alloc must refuse it. *)
  Atomic.set a.state 5;
  Alcotest.check_raises "pooled node not free"
    (Failure "Mempool.alloc: pooled node was not free") (fun () ->
      ignore (alloc p ~thread:0))

let test_concurrent_balance () =
  Tm.Thread.with_registered (fun _ ->
      let p = make_pool ~strategy:Mempool.Thread_arena ~batch:8 () in
      let workers =
        List.init 4 (fun i ->
            Domain.spawn (fun () ->
                Tm.Thread.with_registered (fun tid ->
                    let held = ref [] in
                    let rng = ref (i + 5) in
                    let rand m =
                      rng := (!rng * 1103515245) + 12345;
                      !rng land 0x3FFFFFFF mod m
                    in
                    for _ = 1 to 5000 do
                      if rand 2 = 0 || !held = [] then
                        held := alloc p ~thread:tid :: !held
                      else
                        match !held with
                        | o :: rest ->
                            Mempool.free p ~thread:tid o;
                            held := rest
                        | [] -> ()
                    done;
                    List.iter (Mempool.free p ~thread:tid) !held)))
      in
      List.iter Domain.join workers;
      let st = Mempool.stats p in
      Alcotest.(check int) "all returned" 0 st.Mempool.Stats.live;
      Alcotest.(check int) "allocs = frees" st.Mempool.Stats.allocs
        st.Mempool.Stats.frees)

let qcheck_accounting =
  QCheck.Test.make ~name:"live = allocs - frees" ~count:100
    QCheck.(list (int_bound 1))
    (fun ops ->
      let p = make_pool () in
      let held = ref [] in
      let allocs = ref 0 and frees = ref 0 in
      List.iter
        (fun op ->
          if op = 0 || !held = [] then begin
            held := alloc p ~thread:0 :: !held;
            incr allocs
          end
          else
            match !held with
            | o :: rest ->
                Mempool.free p ~thread:0 o;
                incr frees;
                held := rest
            | [] -> ())
        ops;
      let st = Mempool.stats p in
      st.Mempool.Stats.live = !allocs - !frees
      && st.Mempool.Stats.allocs = !allocs
      && st.Mempool.Stats.frees = !frees)

let () =
  Alcotest.run "mempool"
    [
      ( "basics",
        [
          Alcotest.test_case "alloc-free-reuse" `Quick test_alloc_free_reuse;
          Alcotest.test_case "unique ids" `Quick test_unique_ids;
          Alcotest.test_case "double free" `Quick test_double_free;
          Alcotest.test_case "free of free" `Quick test_free_unallocated;
          Alcotest.test_case "stats" `Quick test_stats_accounting;
          Alcotest.test_case "high water" `Quick test_high_water;
        ] );
      ( "strategies",
        [
          Alcotest.test_case "size-class global traffic" `Quick
            test_size_class_hits_global;
          Alcotest.test_case "arena locality" `Quick test_thread_arena_local;
          Alcotest.test_case "arena spill/steal" `Quick
            test_arena_spill_and_steal;
          Alcotest.test_case "flush" `Quick test_flush_arenas;
        ] );
      ( "state word",
        [
          Alcotest.test_case "generation counts allocs" `Quick
            test_generation_counts_allocs;
          Alcotest.test_case "live follows parity" `Quick
            test_live_follows_parity;
          Alcotest.test_case "pooled word forced odd" `Quick
            test_pooled_word_forced_odd;
        ] );
      ( "concurrency",
        [ Alcotest.test_case "balance" `Quick test_concurrent_balance ] );
      ("properties", [ QCheck_alcotest.to_alcotest qcheck_accounting ]);
    ]
