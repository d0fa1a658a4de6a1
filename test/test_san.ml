(* Unit tests for TxSan: each rule id is tripped by a hand-built violating
   event history driven straight through the hook API (no TM, no real data
   structure), and a qcheck property checks that randomly generated *clean*
   histories never trip any rule. The san_smoke executable covers the
   end-to-end half: the same rules caught inside real DST replays. *)

let check_s = Alcotest.(check string)
let check_i = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let with_san f =
  San.reset ();
  San.set_enabled ~mode:San.Raise true;
  Fun.protect
    ~finally:(fun () ->
      San.set_enabled false;
      San.reset ())
    f

(* Run [f]; it must raise [San.Violation] with the given rule (and site,
   when one is pinned by the scenario rather than synthesized as "?"). *)
let expect ?site rule f =
  match f () with
  | () -> Alcotest.failf "expected a %s violation" (San.rule_id rule)
  | exception San.Violation r ->
      check_s "rule id" (San.rule_id rule) (San.rule_id r.San.rule);
      Option.iter (fun s -> check_s "site label" s r.San.site) site

(* A tiny identity pool: group + dense node ids, a payload tvar and a link
   tvar (the one the deletion check reads) per node, mirroring how Mempool
   feeds the sanitizer. Tvar uids just need to be distinct ints. *)
type ctx = { group : int; mutable clock : int }

let mk_ctx () = { group = San.fresh_group (); clock = 0 }
let tick c = c.clock <- c.clock + 1; c.clock
let key c i = San.node_key ~group:c.group ~node:i
let payload i = (i * 10) + 1
let link i = (i * 10) + 2

let alloc c ?(thread = 0) i =
  San.mp_alloc ~thread ~node:(key c i) ~tvars:[ payload i; link i ]
    ~stamp:(tick c)

let free c ?(thread = 0) ?(site = "test.free") i =
  San.mp_free ~thread ~site ~node:(key c i) ~stamp:(tick c)

(* A transaction that buffers [ops] and commits: rv is sampled before the
   body, now after it, exactly like the TM hook call sites. *)
let txn c ?(tid = 0) ?(site = "test.commit") ops =
  let rv = c.clock in
  ops ();
  San.tm_commit ~tid ~site ~rv ~now:(tick c)

(* ---- use-after-free ---- *)

let test_uaf_read () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      free c ~thread:1 ~site:"other.free" 1;
      expect San.Use_after_free ~site:"me.read" (fun () ->
          San.tm_read ~tid:0 ~site:"me.read" ~rv:(tick c) (payload 1)))

let test_uaf_deletion_check_exempt () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      free c 1;
      (* The deletion check on a freed node is the sanctioned move: poison
         guarantees the check observes the deletion. *)
      San.probe_begin ~tid:0;
      San.tm_read ~tid:0 ~site:"me.read" ~rv:(tick c) (link 1);
      San.probe_end ~tid:0;
      (* ...but the same tvar read outside the bracket is a violation. *)
      expect San.Use_after_free (fun () ->
          San.tm_read ~tid:0 ~site:"me.read" ~rv:c.clock (link 1)))

let test_uaf_bracket_closed_by_abort () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      free c 1;
      (* A deletion check cut short by an abort must not leave the thread
         exempt for its next attempt. *)
      San.probe_begin ~tid:0;
      San.tm_abort ~tid:0;
      expect San.Use_after_free (fun () ->
          San.tm_read ~tid:0 ~site:"me.read" ~rv:(tick c) (payload 1)))

(* The same rule end to end, through a real list pool and mode: after a
   node is freed, [Mode.t.deleted] on it answers true and stays quiet,
   while a transactional read of its key, or of the very link the check
   reads, outside the check is a use-after-free. *)
let test_uaf_key_read_outside_check () =
  Tm.Thread.with_registered (fun thread ->
      let pool = Structs.Lnode.make_pool () in
      let mode =
        Structs.Mode.create Structs.Mode.Tmhp ~pool
          ~deleted:Structs.Lnode.deleted
          ~mark_deleted:Structs.Lnode.mark_deleted ~hash:Structs.Lnode.hash
          ~equal:Structs.Lnode.equal ()
      in
      with_san (fun () ->
          let n = Structs.Lnode.alloc pool ~thread in
          Mempool.free pool ~thread n;
          checkb "the check sees the deletion" true
            (Tm.atomic ~site:"me.check" (fun txn ->
                 mode.Structs.Mode.deleted txn n));
          expect San.Use_after_free ~site:"me.key" (fun () ->
              ignore
                (Tm.atomic ~site:"me.key" (fun txn ->
                     Tm.read txn n.Structs.Lnode.key)));
          expect San.Use_after_free ~site:"me.link" (fun () ->
              ignore
                (Tm.atomic ~site:"me.link" (fun txn ->
                     Tm.read txn n.Structs.Lnode.next)))))

let test_uaf_write () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      free c 1;
      expect San.Use_after_free ~site:"me.write" (fun () ->
          San.tm_write ~tid:0 ~site:"me.write" ~rv:(tick c) (payload 1)))

let test_uaf_reserve_window () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      (* The reservation is buffered with the transaction; the node is freed
         while the transaction is in flight (rv < freed_stamp <= now), so
         the commit publishes a reservation on dead memory. *)
      expect San.Use_after_free ~site:"me.commit" (fun () ->
          let rv = c.clock in
          San.rr_reserve ~tid:0 ~node:(key c 1);
          free c ~thread:1 1;
          San.tm_commit ~tid:0 ~site:"me.commit" ~rv ~now:(tick c)))

let test_uaf_reserve_before_snapshot_is_quiet () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      free c 1;
      (* freed_stamp <= rv: the snapshot already saw the free, so the
         reserve-at-commit window check stays quiet (the *read* path is
         what catches stale pointers into pre-snapshot frees). *)
      txn c (fun () -> San.rr_reserve ~tid:0 ~node:(key c 1)));
  ()

let test_uaf_free_under_reservation () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      txn c ~tid:1 (fun () -> San.rr_reserve ~tid:1 ~node:(key c 1));
      (* Thread 1's reservation was never revoked: freeing now is exactly
         the bug revocable reservations exist to prevent. *)
      expect San.Use_after_free ~site:"me.free" (fun () ->
          free c ~thread:0 ~site:"me.free" 1))

let test_revoke_then_free_is_quiet () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      txn c ~tid:1 (fun () -> San.rr_reserve ~tid:1 ~node:(key c 1));
      (* Revocation cancels every thread's reservation before the free. *)
      txn c ~tid:0 (fun () ->
          San.rr_revoke ~tid:0 ~site:"me.remove" ~node:(key c 1));
      free c ~thread:0 1;
      San.window_finish ~tid:1)

(* ---- unchecked-carry ---- *)

let carry_handoff c ~tid i =
  txn c ~tid (fun () -> San.rr_reserve ~tid ~node:(key c i));
  San.window_handoff ~tid

let test_carry_unchecked_read () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      carry_handoff c ~tid:0 1;
      expect San.Unchecked_carry ~site:"me.read" (fun () ->
          San.tm_read ~tid:0 ~site:"me.read" ~rv:(tick c) (payload 1)))

let test_carry_checked_read_is_quiet () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      carry_handoff c ~tid:0 1;
      (* Reads *inside* the RR check are the check: exempt. *)
      San.rr_check_begin ~tid:0;
      San.tm_read ~tid:0 ~site:"me.check" ~rv:(tick c) (payload 1);
      San.rr_check_end ~tid:0 ~site:"me.check" ~node:(key c 1) ~ok:true;
      (* After a successful check the carry is legitimate. *)
      San.tm_read ~tid:0 ~site:"me.read" ~rv:(tick c) (payload 1);
      txn c (fun () -> San.rr_release_all ~tid:0);
      San.window_finish ~tid:0)

let test_carry_failed_check_restart_is_quiet () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      alloc c 2;
      carry_handoff c ~tid:0 1;
      (* A failed check means restart-from-head: the carried pointer is
         dropped and the thread may read other nodes freely. *)
      San.rr_check_begin ~tid:0;
      San.rr_check_end ~tid:0 ~site:"me.check" ~node:(key c 1) ~ok:false;
      San.tm_read ~tid:0 ~site:"me.read" ~rv:(tick c) (payload 2))

let test_carry_recycled_across_handoff () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      carry_handoff c ~tid:0 1;
      (* The carried node is revoked, freed, and recycled between hand-off
         and check; the check "succeeds" against the impostor. Buffered with
         the transaction, delivered at its commit. *)
      txn c ~tid:1 (fun () ->
          San.rr_revoke ~tid:1 ~site:"other.remove" ~node:(key c 1));
      free c ~thread:1 1;
      alloc c ~thread:1 1;
      expect San.Use_after_free ~site:"me.check" (fun () ->
          txn c (fun () ->
              San.rr_check_begin ~tid:0;
              San.rr_check_end ~tid:0 ~site:"me.check" ~node:(key c 1)
                ~ok:true)))

let test_hint_stale_use () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      txn c (fun () -> San.hint_note ~tid:0 ~node:(key c 1));
      (* The hinted node is recycled; dereferencing the hint without
         revalidation is DESIGN.md bug #3 in miniature. *)
      free c ~thread:1 1;
      alloc c ~thread:1 1;
      expect San.Unchecked_carry ~site:"me.hint" (fun () ->
          San.hint_use ~tid:0 ~site:"me.hint" ~node:(key c 1)
            ~revalidated:false))

let test_hint_revalidated_is_quiet () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      txn c (fun () -> San.hint_note ~tid:0 ~node:(key c 1));
      free c ~thread:1 1;
      alloc c ~thread:1 1;
      San.hint_use ~tid:0 ~site:"me.hint" ~node:(key c 1) ~revalidated:true;
      (* A hint that is still at its noted generation needs no excuse. *)
      txn c (fun () -> San.hint_note ~tid:0 ~node:(key c 1));
      San.hint_use ~tid:0 ~site:"me.hint" ~node:(key c 1) ~revalidated:false)

(* ---- reservation-leak ---- *)

let test_reservation_leak_on_finish () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      txn c (fun () -> San.rr_reserve ~tid:0 ~node:(key c 1));
      expect San.Reservation_leak (fun () -> San.window_finish ~tid:0))

let test_release_then_finish_is_quiet () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      alloc c 2;
      txn c (fun () ->
          San.rr_reserve ~tid:0 ~node:(key c 1);
          San.rr_reserve ~tid:0 ~node:(key c 2));
      txn c (fun () -> San.rr_release ~tid:0 ~node:(key c 1));
      txn c (fun () -> San.rr_release_all ~tid:0);
      San.window_finish ~tid:0)

let test_aborted_reserve_is_discarded () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      (* The reserving transaction aborts: the buffered reservation must
         die with it, so the window finishes clean. *)
      San.rr_reserve ~tid:0 ~node:(key c 1);
      San.tm_abort ~tid:0;
      San.window_finish ~tid:0)

let test_thread_exit_leak_is_counted_not_raised () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      txn c (fun () -> San.rr_reserve ~tid:0 ~node:(key c 1));
      (* thread_exit runs in finalizers: it must never raise, only count. *)
      San.thread_exit ~tid:0;
      check_i "leak counted" 1
        (List.assoc (San.rule_id San.Reservation_leak) (San.violations ()));
      match San.last_report () with
      | Some r ->
          check_s "rule id" (San.rule_id San.Reservation_leak)
            (San.rule_id r.San.rule)
      | None -> Alcotest.fail "expected a last report")

(* ---- lock-leak ---- *)

let test_lock_leak_at_commit () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      San.tm_lock ~tid:0 (payload 1);
      expect San.Lock_leak ~site:"me.commit" (fun () ->
          San.tm_commit ~tid:0 ~site:"me.commit" ~rv:c.clock ~now:(tick c)))

let test_lock_leak_at_abort () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      San.tm_lock ~tid:0 (payload 1);
      expect San.Lock_leak (fun () -> San.tm_abort ~tid:0))

let test_lock_unlock_is_quiet () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      San.tm_lock ~tid:0 (payload 1);
      San.tm_unlock ~tid:0 ~site:"me.commit" ~wv:(tick c) (payload 1);
      txn c (fun () -> ());
      (* Abort-path release (wv = -1) must also balance the books. *)
      San.tm_lock ~tid:0 (payload 1);
      San.tm_unlock ~tid:0 ~site:"me.abort" ~wv:(-1) (payload 1);
      San.tm_abort ~tid:0)

(* ---- double-revoke ---- *)

let test_double_revoke () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      txn c (fun () -> San.rr_revoke ~tid:0 ~site:"me.remove" ~node:(key c 1));
      expect San.Double_revoke ~site:"me.remove" (fun () ->
          txn c (fun () ->
              San.rr_revoke ~tid:0 ~site:"me.remove" ~node:(key c 1))))

(* The internal tree revokes the path above a key its two-child removal
   moves up, and those nodes stay in place, so one may be revoked again
   when it is itself removed. A revoker that read the node in its own
   transaction reached it in a validated snapshot: a fresh revoke. A read
   in an earlier transaction does not count. *)
let test_revoke_of_read_node_is_fresh () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      txn c (fun () -> San.rr_revoke ~tid:0 ~site:"me.path" ~node:(key c 1));
      txn c (fun () ->
          San.tm_read ~tid:0 ~site:"me.remove" ~rv:c.clock (link 1);
          San.rr_revoke ~tid:0 ~site:"me.remove" ~node:(key c 1));
      txn c (fun () ->
          San.tm_read ~tid:0 ~site:"me.lookup" ~rv:c.clock (link 1));
      expect San.Double_revoke ~site:"me.remove" (fun () ->
          txn c (fun () ->
              San.rr_revoke ~tid:0 ~site:"me.remove" ~node:(key c 1))))

(* TxSan hears of a commit after its locks are released, so another
   thread's later revoke and free of the node may reach it first. A
   revoke stamped no later than the free came before it. *)
let test_late_revoke_before_free_is_quiet () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      let rv = c.clock in
      let wv = tick c in
      txn c ~tid:1 (fun () ->
          San.tm_read ~tid:1 ~site:"other.remove" ~rv:c.clock (link 1);
          San.rr_revoke ~tid:1 ~site:"other.remove" ~node:(key c 1));
      free c ~thread:1 1;
      San.rr_revoke ~tid:0 ~site:"me.path" ~node:(key c 1);
      San.tm_commit ~tid:0 ~site:"me.path" ~rv ~now:wv)

(* The commit hook runs after the locks are released, so a reservation
   committed at stamp s can be applied after a revoke committed at s+1.
   In stamp order the revoke cancelled it: the free that follows the
   revoke must not see a live reservation. *)
let test_late_reserve_after_revoke_is_quiet () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      let rv = c.clock in
      let wv = tick c in
      txn c ~tid:1 (fun () ->
          San.tm_read ~tid:1 ~site:"other.remove" ~rv:c.clock (link 1);
          San.rr_revoke ~tid:1 ~site:"other.remove" ~node:(key c 1));
      San.rr_reserve ~tid:0 ~node:(key c 1);
      San.tm_commit ~tid:0 ~site:"me.walk" ~rv ~now:wv;
      free c ~thread:1 1)

let test_revoke_after_free () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      free c 1;
      expect San.Double_revoke ~site:"me.remove" (fun () ->
          txn c (fun () ->
              San.rr_revoke ~tid:0 ~site:"me.remove" ~node:(key c 1))))

let test_double_retire () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      San.retire ~thread:0 ~site:"me.remove" ~node:(key c 1);
      expect San.Double_revoke ~site:"me.remove" (fun () ->
          San.retire ~thread:0 ~site:"me.remove" ~node:(key c 1)))

let test_retire_after_free () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      free c 1;
      expect San.Double_revoke (fun () ->
          San.retire ~thread:0 ~site:"me.remove" ~node:(key c 1)))

let test_realloc_resets_retire_and_revoke () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      txn c (fun () -> San.rr_revoke ~tid:0 ~site:"a" ~node:(key c 1));
      San.retire ~thread:0 ~site:"a" ~node:(key c 1);
      free c 1;
      alloc c 1;
      (* A recycled slot starts a fresh revoke/retire cycle. *)
      txn c (fun () -> San.rr_revoke ~tid:0 ~site:"b" ~node:(key c 1));
      San.retire ~thread:0 ~site:"b" ~node:(key c 1))

(* ---- non-txn-access ---- *)

let test_nontxn_write_under_lock () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      San.tm_lock ~tid:2 (payload 1);
      expect San.Non_txn_access (fun () -> San.nontxn_write (payload 1));
      San.tm_unlock ~tid:2 ~site:"other.commit" ~wv:(tick c) (payload 1))

let test_nontxn_exempt_bracket () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      San.tm_lock ~tid:2 (payload 1);
      (* Pool-internal pokes (poison, re-init) run inside the bracket. *)
      San.exempt_begin ();
      San.nontxn_write (payload 1);
      San.exempt_end ();
      San.tm_unlock ~tid:2 ~site:"other.commit" ~wv:(tick c) (payload 1);
      San.nontxn_write (payload 1))

let test_nontxn_uaf () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      free c 1;
      expect San.Use_after_free (fun () -> San.nontxn_read (payload 1)))

(* ---- stale-read ---- *)

let test_stale_read_straddles_serial () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      San.tm_serial_begin ~tid:0 ~wv:10;
      expect San.Stale_read ~site:"me.read" (fun () ->
          San.tm_read ~tid:1 ~site:"me.read" ~rv:12 (payload 1));
      San.tm_serial_end ~tid:0)

let test_stale_read_negatives () =
  with_san (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      San.tm_serial_begin ~tid:0 ~wv:10;
      (* The serial writer reading its own stores is fine... *)
      San.tm_read ~tid:0 ~site:"me.read" ~rv:12 (payload 1);
      (* ...and a snapshot taken before the serial window opened cannot
         observe its half-published stores. *)
      San.tm_read ~tid:1 ~site:"me.read" ~rv:9 (payload 1);
      San.tm_serial_end ~tid:0;
      San.tm_read ~tid:1 ~site:"me.read" ~rv:12 (payload 1))

(* ---- Count mode ---- *)

let test_count_mode () =
  San.reset ();
  San.set_enabled ~mode:San.Count true;
  Fun.protect
    ~finally:(fun () ->
      San.set_enabled false;
      San.reset ())
    (fun () ->
      let c = mk_ctx () in
      alloc c 1;
      free c 1;
      (* No raise: benchmark workers must survive their own violations. *)
      San.tm_read ~tid:0 ~site:"me.read" ~rv:(tick c) (payload 1);
      San.tm_lock ~tid:0 (payload 1);
      San.tm_commit ~tid:0 ~site:"me.commit" ~rv:c.clock ~now:(tick c);
      check_i "uaf counted" 1
        (List.assoc (San.rule_id San.Use_after_free) (San.violations ()));
      check_i "lock leak counted" 1
        (List.assoc (San.rule_id San.Lock_leak) (San.violations ()));
      check_i "total" 2 (San.total_violations ());
      checkb "every rule listed" true
        (List.length (San.violations ()) = List.length San.all_rules))

(* ---- clean histories never trip (qcheck) ----

   Commands are interpreted against a tiny model that follows the
   discipline: reads target live nodes, frees happen only after every
   reservation was revoked or released, hints are revalidated when stale,
   windows finish with empty reservation sets. Any randomly chosen command
   that the model says would be a violation is skipped, so the resulting
   history is clean by construction — and TxSan must agree. *)

type cmd =
  | C_alloc of int
  | C_free of int
  | C_read of int
  | C_reserve of int
  | C_release of int
  | C_release_all
  | C_revoke of int
  | C_retire of int
  | C_finish
  | C_lock_txn of int
  | C_hint of int

let n_slots = 4

let gen_cmds =
  let open QCheck.Gen in
  let slot = int_bound (n_slots - 1) in
  let cmd =
    frequency
      [
        (3, map (fun i -> C_alloc i) slot);
        (2, map (fun i -> C_free i) slot);
        (4, map (fun i -> C_read i) slot);
        (3, map (fun i -> C_reserve i) slot);
        (2, map (fun i -> C_release i) slot);
        (1, return C_release_all);
        (2, map (fun i -> C_revoke i) slot);
        (1, map (fun i -> C_retire i) slot);
        (2, return C_finish);
        (1, map (fun i -> C_lock_txn i) slot);
        (2, map (fun i -> C_hint i) slot);
      ]
  in
  list_size (int_range 10 120) cmd

let run_clean_history cmds =
  let c = mk_ctx () in
  let live = Array.make n_slots false in
  let retired = Array.make n_slots false in
  let revoked = Array.make n_slots false in
  let reserved = ref [] in
  List.iter
    (fun cmd ->
      match cmd with
      | C_alloc i ->
          if not live.(i) then begin
            alloc c i;
            live.(i) <- true;
            retired.(i) <- false;
            revoked.(i) <- false
          end
      | C_free i ->
          if live.(i) && not (List.mem i !reserved) then begin
            free c i;
            live.(i) <- false
          end
      | C_read i ->
          if live.(i) then
            San.tm_read ~tid:0 ~site:"prop.read" ~rv:c.clock (payload i)
      | C_reserve i ->
          if live.(i) then begin
            txn c (fun () -> San.rr_reserve ~tid:0 ~node:(key c i));
            if not (List.mem i !reserved) then reserved := i :: !reserved
          end
      | C_release i ->
          if List.mem i !reserved then begin
            txn c (fun () -> San.rr_release ~tid:0 ~node:(key c i));
            reserved := List.filter (fun j -> j <> i) !reserved
          end
      | C_release_all ->
          txn c (fun () -> San.rr_release_all ~tid:0);
          reserved := []
      | C_revoke i ->
          if live.(i) && not revoked.(i) then begin
            txn c (fun () ->
                San.rr_revoke ~tid:0 ~site:"prop.revoke" ~node:(key c i));
            revoked.(i) <- true;
            (* Revocation strips the node from every reservation set. *)
            reserved := List.filter (fun j -> j <> i) !reserved
          end
      | C_retire i ->
          if live.(i) && not retired.(i) then begin
            San.retire ~thread:0 ~site:"prop.retire" ~node:(key c i);
            retired.(i) <- true
          end
      | C_finish ->
          if !reserved = [] then San.window_finish ~tid:0
      | C_lock_txn i ->
          if live.(i) then begin
            San.tm_lock ~tid:0 (payload i);
            San.tm_unlock ~tid:0 ~site:"prop.commit" ~wv:(tick c) (payload i);
            txn c (fun () -> ())
          end
      | C_hint i ->
          if live.(i) then begin
            txn c (fun () -> San.hint_note ~tid:0 ~node:(key c i));
            San.hint_use ~tid:0 ~site:"prop.hint" ~node:(key c i)
              ~revalidated:false
          end)
    cmds;
  txn c (fun () -> San.rr_release_all ~tid:0);
  San.window_finish ~tid:0

(* ---- uid space ---- *)

(* The tvar shadow table is keyed by tvar uid, and uids wrap. Once the
   TM's uid counter passes [Tm.max_uid] two live tvars may share a uid,
   so the sanitizer must say so rather than merge their shadow state:
   armed, it raises at the tvar that repeats a uid and disarms itself;
   disarmed, it refuses to arm. Putting the counter back lifts the
   refusal. *)
let test_uid_space_exhausted () =
  let exhausted what f =
    let prefix = "TxSan: tvar uid space exhausted" in
    match f () with
    | _ -> Alcotest.failf "%s: no uid-space report" what
    | exception Failure msg ->
        check_s (what ^ ": report") prefix
          (String.sub msg 0 (min (String.length msg) (String.length prefix)))
  in
  San.reset ();
  San.set_enabled ~mode:San.Raise true;
  let saved = Tm.set_next_uid_for_testing Tm.max_uid in
  Fun.protect
    ~finally:(fun () ->
      ignore (Tm.set_next_uid_for_testing saved);
      San.set_enabled false;
      San.reset ())
    (fun () ->
      check_i "the last fresh uid" Tm.max_uid (Tm.tvar_id (Tm.tvar 0));
      checkb "still armed" true (San.enabled ());
      exhausted "a tvar that repeats a uid" (fun () -> Tm.tvar 0);
      checkb "disarmed itself" false (San.enabled ());
      exhausted "arming" (fun () -> San.set_enabled true);
      checkb "stays disarmed" false (San.enabled ());
      ignore (Tm.set_next_uid_for_testing saved);
      San.set_enabled true;
      checkb "arms once the counter is back" true (San.enabled ()))

(* ---- the trees, end to end ----

   The smokes, DST scenarios and soak drive lists only, so these runs are
   where the sanitizer sees the trees' own accesses: keys loaded as plain
   fields ahead of a validating link read, spares keyed before the commit
   that links them, two-child removal by copy. A short two-domain churn
   over a small key range (a small window, so hand-offs and copies are
   frequent) must leave a correct, serializable tree and count no
   violation of any rule. *)
let tree_churn (structure, kind) () =
  Tm.Thread.with_registered (fun _ ->
      let open Harness in
      let store =
        (Factories.make (Factories.Spec.v ~window:4 structure kind))
          .Factories.make ()
      in
      let spec =
        Workload.spec ~key_bits:6 ~lookup_pct:20 ~threads:2
          ~ops_per_thread:3000 ()
      in
      let r = Driver.run ~san:true spec store in
      checkb "correct and serializable" true (r.Driver.verdict = Ok ());
      match r.Driver.san with
      | None -> Alcotest.fail "the run was not armed"
      | Some per_rule ->
          List.iter (fun (rule, n) -> check_i rule 0 n) per_rule)

let tree_churn_cases =
  List.concat_map
    (fun structure ->
      List.map
        (fun (name, kind) ->
          Alcotest.test_case
            (Printf.sprintf "%s/%s churn"
               (Harness.Factories.Spec.structure_name structure)
               name)
            `Quick
            (tree_churn (structure, kind)))
        [
          ("RR-V", Structs.Mode.Rr_kind (module Rr.V));
          ("RR-XO", Structs.Mode.Rr_kind (module Rr.Xo));
        ])
    [ Harness.Factories.Spec.Bst_int; Harness.Factories.Spec.Bst_ext ]

(* ---- cross-shard multis, end to end ----

   A multi is one transaction, and the structure operations inside it
   nest: their windows' reservations and hand-offs belong to the
   enclosing attempt, and an insert's spare goes back through
   [Tm.on_abort] when that attempt aborts or is abandoned. Two domains
   run multis over a small key range, so many fail a precondition (the
   transaction is abandoned) or abort on a conflict, mixed with single
   writes. The armed sanitizer must count no violation of any rule, the
   logged history must serialize, and the pools must balance exactly. *)
let multi_churn kind () =
  let open Harness in
  let svc =
    Service.create
      (Factories.Spec.v ~window:4 ~scatter:false ~shards:2 ~fuse:true
         Factories.Spec.Slist kind)
  in
  let range = 24 in
  let initial = List.init (range / 2) (fun i -> 2 * (i + 1)) in
  (* armed before the prefill, so every node has a shadow slot *)
  San.reset ();
  San.set_enabled ~mode:San.Count true;
  Tm.Thread.with_registered (fun thread ->
      List.iter
        (fun k -> ignore (Service.exec svc ~thread (Store.Insert k)))
        initial);
  let logs = Array.make 2 [||] in
  let body c () =
    Tm.Thread.with_registered (fun thread ->
        let rng = Random.State.make [| 17; c |] in
        let key () = 1 + Random.State.int rng range in
        let log = ref [] in
        let logged op (r : Store.reply) =
          let w, k =
            match op with
            | Store.Insert k -> (Workload.Insert, k)
            | Store.Remove k -> (Workload.Remove, k)
            | Store.Get k | Store.Scan { low = k; _ } -> (Workload.Lookup, k)
          in
          log :=
            {
              Serial_check.op = w;
              key = k;
              result = Store.positive r.Store.outcome;
              earliest = r.Store.earliest;
              stamp = r.Store.stamp;
            }
            :: !log
        in
        for _ = 1 to 800 do
          let k1 = key () in
          let k2 = if k1 = range then 1 else k1 + 1 in
          if Random.State.int rng 3 = 0 then begin
            let op =
              if Random.State.bool rng then Store.Insert k1 else Store.Remove k1
            in
            logged op (Service.exec svc ~thread op)
          end
          else
            let ops =
              [| Store.Remove k1; Store.Insert k2; Store.Get (key ()) |]
            in
            match Service.multi svc ~thread ops with
            | Service.Committed rs ->
                Array.iteri (fun i r -> logged ops.(i) r) rs
            | Service.Aborted _ -> ()
        done;
        Service.finalize_thread svc ~thread;
        logs.(c) <- Array.of_list (List.rev !log))
  in
  List.iter Domain.join (List.init 2 (fun c -> Domain.spawn (body c)));
  let counts = San.violations () and last = San.last_report () in
  San.set_enabled false;
  San.reset ();
  Option.iter (fun r -> print_endline (San.report_to_string r)) last;
  List.iter (fun (rule, n) -> check_i rule 0 n) counts;
  let counter name = List.assoc name (Service.counters svc) in
  checkb "some multis committed" true
    (counter "multis" > counter "multi_aborts");
  checkb "some multis failed a precondition" true (counter "multi_aborts" > 0);
  (match Service.check svc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "service check: %s" e);
  (match Serial_check.check ~initial (Array.to_list logs) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "history: %s" e);
  Service.drain svc;
  check_i "pool live = contents" (Service.size svc)
    (Option.value (Service.pool_live svc) ~default:(-1))

let multi_churn_cases =
  List.map
    (fun (name, kind) ->
      Alcotest.test_case
        (Printf.sprintf "slist/%s x2 churn" name)
        `Quick (multi_churn kind))
    [
      ("RR-V", Structs.Mode.Rr_kind (module Rr.V));
      ("RR-XO", Structs.Mode.Rr_kind (module Rr.Xo));
    ]

let qcheck_clean_history =
  QCheck.Test.make ~name:"clean histories never trip TxSan" ~count:300
    (QCheck.make gen_cmds) (fun cmds ->
      San.reset ();
      San.set_enabled ~mode:San.Raise true;
      Fun.protect
        ~finally:(fun () ->
          San.set_enabled false;
          San.reset ())
        (fun () ->
          run_clean_history cmds;
          San.total_violations () = 0))

let () =
  Alcotest.run "san"
    [
      ( "use-after-free",
        [
          Alcotest.test_case "txn read of freed slot" `Quick test_uaf_read;
          Alcotest.test_case "deletion check is exempt" `Quick
            test_uaf_deletion_check_exempt;
          Alcotest.test_case "abort closes the deletion check" `Quick
            test_uaf_bracket_closed_by_abort;
          Alcotest.test_case "key read outside the check" `Quick
            test_uaf_key_read_outside_check;
          Alcotest.test_case "txn write to freed slot" `Quick test_uaf_write;
          Alcotest.test_case "reserve committed over a free" `Quick
            test_uaf_reserve_window;
          Alcotest.test_case "reserve after pre-snapshot free is quiet"
            `Quick test_uaf_reserve_before_snapshot_is_quiet;
          Alcotest.test_case "free under live reservation" `Quick
            test_uaf_free_under_reservation;
          Alcotest.test_case "revoke-then-free is quiet" `Quick
            test_revoke_then_free_is_quiet;
          Alcotest.test_case "raw read of freed slot" `Quick test_nontxn_uaf;
        ] );
      ( "unchecked-carry",
        [
          Alcotest.test_case "carry read before check" `Quick
            test_carry_unchecked_read;
          Alcotest.test_case "checked carry is quiet" `Quick
            test_carry_checked_read_is_quiet;
          Alcotest.test_case "failed check restarts clean" `Quick
            test_carry_failed_check_restart_is_quiet;
          Alcotest.test_case "carry recycled across hand-off" `Quick
            test_carry_recycled_across_handoff;
          Alcotest.test_case "stale hint dereferenced" `Quick
            test_hint_stale_use;
          Alcotest.test_case "revalidated hint is quiet" `Quick
            test_hint_revalidated_is_quiet;
        ] );
      ( "reservation-leak",
        [
          Alcotest.test_case "finish with live reservation" `Quick
            test_reservation_leak_on_finish;
          Alcotest.test_case "released window is quiet" `Quick
            test_release_then_finish_is_quiet;
          Alcotest.test_case "aborted reserve is discarded" `Quick
            test_aborted_reserve_is_discarded;
          Alcotest.test_case "thread exit counts, never raises" `Quick
            test_thread_exit_leak_is_counted_not_raised;
        ] );
      ( "lock-leak",
        [
          Alcotest.test_case "held lock at commit" `Quick
            test_lock_leak_at_commit;
          Alcotest.test_case "held lock at abort" `Quick
            test_lock_leak_at_abort;
          Alcotest.test_case "balanced lock/unlock is quiet" `Quick
            test_lock_unlock_is_quiet;
        ] );
      ( "double-revoke",
        [
          Alcotest.test_case "revoked twice" `Quick test_double_revoke;
          Alcotest.test_case "revoke of a read node is fresh" `Quick
            test_revoke_of_read_node_is_fresh;
          Alcotest.test_case "late revoke before the free is quiet" `Quick
            test_late_revoke_before_free_is_quiet;
          Alcotest.test_case "late reserve after a later revoke is quiet"
            `Quick test_late_reserve_after_revoke_is_quiet;
          Alcotest.test_case "revoke after free" `Quick
            test_revoke_after_free;
          Alcotest.test_case "retired twice" `Quick test_double_retire;
          Alcotest.test_case "retire after free" `Quick
            test_retire_after_free;
          Alcotest.test_case "realloc resets the cycle" `Quick
            test_realloc_resets_retire_and_revoke;
        ] );
      ( "non-txn-access",
        [
          Alcotest.test_case "raw poke under version lock" `Quick
            test_nontxn_write_under_lock;
          Alcotest.test_case "exempt bracket" `Quick
            test_nontxn_exempt_bracket;
        ] );
      ( "stale-read",
        [
          Alcotest.test_case "snapshot straddles serial writer" `Quick
            test_stale_read_straddles_serial;
          Alcotest.test_case "negatives" `Quick test_stale_read_negatives;
        ] );
      ( "modes",
        [
          Alcotest.test_case "count mode accumulates" `Quick test_count_mode;
          Alcotest.test_case "uid space exhausted" `Quick
            test_uid_space_exhausted;
        ] );
      ("trees", tree_churn_cases);
      ("multis", multi_churn_cases);
      ( "properties",
        [ QCheck_alcotest.to_alcotest qcheck_clean_history ] );
    ]
