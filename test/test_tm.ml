(* Unit, concurrency and property tests for the TL2-style TM substrate. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let with_tm f = Tm.Thread.with_registered (fun _ -> f ())

(* ---- basics ---- *)

let test_read_write () =
  with_tm (fun () ->
      let v = Tm.tvar 10 in
      let r = Tm.atomic ~site:"test.read_write" (fun txn -> Tm.read txn v) in
      check "initial" 10 r;
      Tm.atomic ~site:"test.read_write" (fun txn -> Tm.write txn v 42);
      check "after write" 42 (Tm.peek v))

let test_read_own_write () =
  with_tm (fun () ->
      let v = Tm.tvar 0 in
      let seen =
        Tm.atomic ~site:"test.read_own_write" (fun txn ->
            Tm.write txn v 7;
            Tm.read txn v)
      in
      check "reads own buffered write" 7 seen;
      check "committed" 7 (Tm.peek v))

let test_write_write () =
  with_tm (fun () ->
      let v = Tm.tvar 0 in
      Tm.atomic ~site:"test.write_write" (fun txn ->
          Tm.write txn v 1;
          Tm.write txn v 2;
          Tm.write txn v 3);
      check "last write wins" 3 (Tm.peek v))

let test_multiple_tvars () =
  with_tm (fun () ->
      let a = Tm.tvar 1 and b = Tm.tvar 2 and c = Tm.tvar "x" in
      Tm.atomic ~site:"test.multiple_tvars" (fun txn ->
          Tm.write txn a (Tm.read txn b);
          Tm.write txn b 9;
          Tm.write txn c "y");
      check "a" 2 (Tm.peek a);
      check "b" 9 (Tm.peek b);
      Alcotest.(check string) "c" "y" (Tm.peek c))

let test_exception_rolls_back () =
  with_tm (fun () ->
      let v = Tm.tvar 5 in
      (try
         Tm.atomic ~site:"test.exception_rolls_back" (fun txn ->
             Tm.write txn v 99;
             failwith "boom")
       with Failure _ -> ());
      check "write discarded" 5 (Tm.peek v))

let test_abort_retries () =
  with_tm (fun () ->
      let v = Tm.tvar 0 in
      let attempts = ref 0 in
      let defers_run = ref 0 in
      let r =
        Tm.atomic_stamped ~site:"test.abort_retries"
          ~max_attempts:10 (fun txn ->
            incr attempts;
            Tm.defer txn (fun () -> incr defers_run);
            Tm.write txn v !attempts;
            if !attempts < 3 then raise (Tm.Abort Tm.Read_invalid))
      in
      check "three attempts" 3 !attempts;
      check "reported attempts" 3 r.Tm.attempts;
      check "defer ran once" 1 !defers_run;
      check "only final attempt committed" 3 (Tm.peek v);
      checkb "not serial" false r.Tm.serial)

let test_defer_order () =
  with_tm (fun () ->
      let order = ref [] in
      Tm.atomic ~site:"test.defer_order" (fun txn ->
          Tm.defer txn (fun () -> order := 1 :: !order);
          Tm.defer txn (fun () -> order := 2 :: !order);
          Tm.defer txn (fun () -> order := 3 :: !order));
      Alcotest.(check (list int)) "registration order" [ 1; 2; 3 ]
        (List.rev !order))

let test_serial_fallback () =
  with_tm (fun () ->
      let v = Tm.tvar 0 in
      (* max_attempts = 0 goes straight to serial mode. *)
      let r =
        Tm.atomic_stamped ~site:"test.serial_fallback"
          ~max_attempts:0 (fun txn ->
            checkb "serial flag" true (Tm.is_serial txn);
            Tm.write txn v (Tm.read txn v + 1))
      in
      checkb "result serial" true r.Tm.serial;
      check "serial write applied" 1 (Tm.peek v);
      checkb "token released" false (Tm.serial_active ()))

let test_stamps_monotone () =
  with_tm (fun () ->
      let v = Tm.tvar 0 in
      let s1 = (Tm.atomic_stamped ~site:"test.stamps_monotone"
                  (fun txn -> Tm.write txn v 1)).Tm.stamp in
      let s2 = (Tm.atomic_stamped ~site:"test.stamps_monotone"
                  (fun txn -> Tm.write txn v 2)).Tm.stamp in
      let s3 = (Tm.atomic_stamped ~site:"test.stamps_monotone"
                  (fun txn -> Tm.read txn v)).Tm.stamp in
      checkb "writer stamps increase" true (s2 > s1);
      checkb "read-only stamp covers last writer" true (s3 >= s2);
      checkb "read-only is flagged" true
        (Tm.atomic_stamped ~site:"test.stamps_monotone"
           (fun txn -> Tm.read txn v)).Tm.read_only;
      checkb "writer is not read-only" false
        (Tm.atomic_stamped ~site:"test.stamps_monotone"
           (fun txn -> Tm.write txn v 3)).Tm.read_only)

let test_nested_flattens () =
  with_tm (fun () ->
      let v = Tm.tvar 0 in
      Tm.atomic ~site:"test.nested_flattens" (fun txn ->
          Tm.write txn v 1;
          (* The nested atomic must see the enclosing buffered write. *)
          let inner = Tm.atomic ~site:"test.nested_flattens"
                        (fun txn' -> Tm.read txn' v) in
          check "nested sees outer write" 1 inner;
          Tm.write txn v (inner + 1));
      check "flattened commit" 2 (Tm.peek v))

let test_poke_bumps_version () =
  with_tm (fun () ->
      let v = Tm.tvar 0 in
      Tm.poke v 33;
      check "poke visible" 33 (Tm.peek v);
      check "transactional read sees poke" 33
        (Tm.atomic ~site:"test.poke_bumps_version" (fun txn -> Tm.read txn v)))

let test_opaque_snapshot () =
  with_tm (fun () ->
      let a = Tm.tvar 0 and b = Tm.tvar 0 in
      let attempts = ref 0 in
      let pair =
        Tm.atomic ~site:"test.opaque_snapshot" ~max_attempts:10 (fun txn ->
            incr attempts;
            let va = Tm.read txn a in
            if !attempts = 1 then begin
              (* concurrent update between the two reads: the second read
                 must not pair the old [a] with the new [b] *)
              Tm.poke a 1;
              Tm.poke b 1
            end;
            let vb = Tm.read txn b in
            (va, vb))
      in
      check "aborted the torn attempt" 2 !attempts;
      checkb "snapshot is consistent" true (pair = (1, 1)))

let test_validate_on_commit () =
  with_tm (fun () ->
      let v = Tm.tvar 0 in
      let attempts = ref 0 in
      let seen =
        Tm.atomic ~site:"test.validate_on_commit" ~max_attempts:10 (fun txn ->
            incr attempts;
            let x = Tm.read txn v in
            Tm.validate_on_commit txn;
            (* invalidate the read set after the read: a plain read-only
               transaction would commit anyway; a validating one must abort
               and retry *)
            if !attempts = 1 then Tm.poke v 99;
            x)
      in
      check "validating read-only txn retried" 2 !attempts;
      check "retry saw the new value" 99 seen;
      (* without the request, the same shape commits first try: it is a
         consistent snapshot of the state before the poke *)
      let attempts2 = ref 0 in
      let seen2 =
        Tm.atomic ~site:"test.validate_on_commit" ~max_attempts:10 (fun txn ->
            incr attempts2;
            let x = Tm.read txn v in
            if !attempts2 = 1 then Tm.poke v 100;
            x)
      in
      check "plain read-only txn commits" 1 !attempts2;
      check "with the pre-poke snapshot" 99 seen2)

(* ---- timestamp extension and the read-phase hint ---- *)

(* A stale read whose read set is still intact must be rescued: the poke
   of [b] moves the clock past the transaction's read version, but nothing
   the transaction already read changed, so the extension revalidates,
   advances rv, and the attempt commits without ever aborting. *)
let test_extension_rescues_stale_read () =
  with_tm (fun () ->
      Tm.Stats.reset (Tm.Thread.stats ());
      let a = Tm.tvar 0 and b = Tm.tvar 0 in
      let first = ref true in
      let r =
        Tm.atomic_stamped ~site:"test.extension_rescues_stale_read"
          ~max_attempts:10 (fun txn ->
            let va = Tm.read txn a in
            if !first then begin
              first := false;
              Tm.poke b 7
            end;
            (va, Tm.read txn b))
      in
      checkb "reads the rescued pair" true (r.Tm.value = (0, 7));
      check "no retry needed" 1 r.Tm.attempts;
      let st = Tm.Thread.stats () in
      check "extension counted" 1 (Tm.Stats.extensions st);
      check "no extension failures" 0 (Tm.Stats.ext_fails st);
      check "no read aborts" 0 (Tm.Stats.aborts_read st))

(* When the read set is no longer intact the extension must fail — moving
   rv past a committed conflicting update would break opacity — and the
   transaction aborts exactly as it did before extensions existed. *)
let test_extension_fails_on_true_conflict () =
  with_tm (fun () ->
      Tm.Stats.reset (Tm.Thread.stats ());
      let a = Tm.tvar 0 and b = Tm.tvar 0 in
      let first = ref true in
      let r =
        Tm.atomic_stamped ~site:"test.extension_fails_on_true_conflict"
          ~max_attempts:10 (fun txn ->
            let va = Tm.read txn a in
            if !first then begin
              first := false;
              Tm.poke a 1;
              Tm.poke b 1
            end;
            (va, Tm.read txn b))
      in
      checkb "snapshot consistent after retry" true (r.Tm.value = (1, 1));
      check "one retry" 2 r.Tm.attempts;
      let st = Tm.Thread.stats () in
      check "failed extension counted" 1 (Tm.Stats.ext_fails st);
      check "no successful extension" 0 (Tm.Stats.extensions st);
      check "aborted once" 1 (Tm.Stats.aborts_read st))

(* ---- unlogged attempts (TL2 read-only mode) ---- *)

(* A write or a request for commit validation inside an unlogged attempt
   raises: the attempt is abandoned with nothing published (the tvar keeps
   its payload, the clock does not move) and its [on_abort] callbacks
   run. *)
let test_unlogged_write_raises () =
  with_tm (fun () ->
      let v = Tm.tvar 0 in
      List.iter
        (fun (what, act) ->
          let undone = ref false in
          let c0 = Tm.clock () in
          (match
             Tm.atomic ~site:"test.unlogged_write_raises"
               ~unlogged:true (fun txn ->
                 Tm.on_abort txn (fun () -> undone := true);
                 ignore (Tm.read txn v);
                 act txn)
           with
          | () -> Alcotest.failf "%s in an unlogged attempt returned" what
          | exception Invalid_argument _ -> ());
          check (what ^ ": payload kept") 0 (Tm.peek v);
          check (what ^ ": no clock bump") c0 (Tm.clock ());
          checkb (what ^ ": on_abort ran") true !undone)
        [
          ("write", fun txn -> Tm.write txn v 1);
          ("validate_on_commit", fun txn -> Tm.validate_on_commit txn);
        ])

(* A stale read in an unlogged attempt aborts with [Read_invalid] where a
   logged one would extend ([rescues stale read]): there is no read set
   to revalidate, so no extension is tried or counted, and the retry at a
   fresh [rv] reads the new value. The reads are checked but not
   logged. *)
let test_unlogged_stale_read_aborts () =
  with_tm (fun () ->
      Tm.Stats.reset (Tm.Thread.stats ());
      let a = Tm.tvar 0 and b = Tm.tvar 0 in
      let first = ref true and logged = ref (-1) and flag = ref false in
      let r =
        Tm.atomic_stamped ~site:"test.unlogged_stale_read_aborts"
          ~unlogged:true ~max_attempts:10 (fun txn ->
            let va = Tm.read txn a in
            if !first then begin
              first := false;
              Tm.poke b 7
            end;
            let vb = Tm.read txn b in
            logged := Tm.reads_logged txn;
            flag := Tm.is_unlogged txn;
            (va, vb))
      in
      checkb "reads the new pair" true (r.Tm.value = (0, 7));
      check "one retry" 2 r.Tm.attempts;
      checkb "read-only commit" true r.Tm.read_only;
      checkb "the attempt ran unlogged" true !flag;
      check "no read logged" 0 !logged;
      let st = Tm.Thread.stats () in
      check "aborted once on the read" 1 (Tm.Stats.aborts_read st);
      check "no extension" 0 (Tm.Stats.extensions st);
      check "no extension failure" 0 (Tm.Stats.ext_fails st))

(* A serial re-run and a call flattened into a logged transaction are
   logged, so they may write. *)
let test_unlogged_serial_and_nested_log () =
  with_tm (fun () ->
      let v = Tm.tvar 0 in
      let r =
        Tm.atomic_stamped ~site:"test.unlogged_serial_and_nested_log"
          ~unlogged:true ~max_attempts:0 (fun txn ->
            checkb "serial run is logged" false (Tm.is_unlogged txn);
            Tm.write txn v 1)
      in
      checkb "ran serially" true r.Tm.serial;
      check "serial write published" 1 (Tm.peek v);
      Tm.atomic ~site:"test.unlogged_serial_and_nested_log" (fun _ ->
          Tm.atomic ~site:"test.unlogged_serial_and_nested_log"
            ~unlogged:true (fun txn ->
              checkb "nested call is logged" false (Tm.is_unlogged txn);
              Tm.write txn v 2));
      check "nested write published" 2 (Tm.peek v))

(* read_phase transactions retry speculatively instead of escalating: even
   with the attempt budget already exhausted (max_attempts = 0 sends a
   normal transaction straight to serial mode) they never take the serial
   token. *)
let test_read_phase_never_serial () =
  with_tm (fun () ->
      let v = Tm.tvar 0 in
      let attempts = ref 0 in
      let r =
        Tm.atomic_stamped ~site:"test.read_phase_never_serial"
          ~max_attempts:0 ~read_phase:true (fun txn ->
            incr attempts;
            let x = Tm.read txn v in
            if !attempts <= 2 then raise (Tm.Abort Tm.Read_invalid);
            x)
      in
      check "kept retrying speculatively" 3 !attempts;
      checkb "never went serial" false r.Tm.serial;
      checkb "token untouched" false (Tm.serial_active ()))

let test_read_phase_writes_commit () =
  with_tm (fun () ->
      let v = Tm.tvar 0 in
      Tm.atomic ~site:"test.read_phase_writes_commit"
        ~read_phase:true (fun txn -> Tm.write txn v 5);
      check "private write committed" 5 (Tm.peek v))

(* ---- commit path: write-set index, filters, read-set dedup ---- *)

(* Mirrors the Bloom-bit hash in tm.ml (white-box): used to manufacture a
   filter false positive below. *)
let filter_bit uid =
  let h = (uid * 0x9e3779b1) lsr 26 in
  1 lsl (((h land 63) * 63) lsr 6)

let test_wset_growth_readback () =
  with_tm (fun () ->
      (* 100 writes crosses the hash-index engagement threshold and forces
         several rehashes; read-after-write must keep returning the
         buffered value throughout. *)
      let n = 100 in
      let tvars = Array.init n (fun _ -> Tm.tvar (-1)) in
      Tm.atomic ~site:"test.wset_growth_readback" (fun txn ->
          Array.iteri (fun i tv -> Tm.write txn tv (i * 3)) tvars;
          Array.iteri
            (fun i tv ->
              check (Printf.sprintf "readback %d" i) (i * 3) (Tm.read txn tv))
            tvars;
          check "each tvar logged once" n (Tm.writes_logged txn));
      Array.iteri
        (fun i tv -> check (Printf.sprintf "committed %d" i) (i * 3) (Tm.peek tv))
        tvars)

let test_wset_overwrite_in_place () =
  with_tm (fun () ->
      let a = Tm.tvar 0 in
      let others = Array.init 40 (fun _ -> Tm.tvar 0) in
      Tm.atomic ~site:"test.wset_overwrite_in_place" (fun txn ->
          Tm.write txn a 1;
          (* push the write set past the index threshold, then overwrite
             the first entry: the indexed lookup must find and update it
             rather than append a duplicate *)
          Array.iter (fun tv -> Tm.write txn tv 7) others;
          Tm.write txn a 2;
          check "overwrite did not append" 41 (Tm.writes_logged txn);
          check "read sees overwrite" 2 (Tm.read txn a));
      check "last write wins" 2 (Tm.peek a))

let test_wfilter_false_positive_falls_through () =
  with_tm (fun () ->
      (* find two tvars whose uids share a filter bit; writing one sets
         the bit, so reading the other takes the filtered path, misses in
         the write set, and must fall through to the committed value *)
      let seed = Tm.tvar 111 in
      let bit = filter_bit (Tm.tvar_id seed) in
      let rec mk_collider tries =
        if tries > 10_000 then None
        else
          let tv = Tm.tvar 222 in
          if filter_bit (Tm.tvar_id tv) = bit then Some tv
          else mk_collider (tries + 1)
      in
      match mk_collider 0 with
      | None -> Alcotest.fail "no filter collision in 10k tvars (62 bits?)"
      | Some other ->
          let seen =
            Tm.atomic ~site:"test.wfilter_false_positive_falls_through"
              (fun txn ->
                Tm.write txn seed 333;
                Tm.read txn other)
          in
          check "false positive reads committed value" 222 seen;
          check "seed committed" 333 (Tm.peek seed))

let test_rset_dedup () =
  with_tm (fun () ->
      let a = Tm.tvar 1 and b = Tm.tvar 2 in
      Tm.atomic ~site:"test.rset_dedup" (fun txn ->
          for _ = 1 to 50 do
            ignore (Tm.read txn a)
          done;
          check "repeated reads log once" 1 (Tm.reads_logged txn);
          ignore (Tm.read txn b);
          for _ = 1 to 50 do
            ignore (Tm.read txn a + Tm.read txn b)
          done;
          check "two tvars, two entries" 2 (Tm.reads_logged txn)))

let test_rset_dedup_still_validated () =
  with_tm (fun () ->
      (* dedup must not weaken commit-time validation: the single logged
         entry still catches a concurrent update *)
      let v = Tm.tvar 0 in
      let attempts = ref 0 in
      let seen =
        Tm.atomic ~site:"test.rset_dedup_still_validated"
          ~max_attempts:10 (fun txn ->
            incr attempts;
            let x = ref 0 in
            for _ = 1 to 10 do
              x := Tm.read txn v
            done;
            Tm.validate_on_commit txn;
            if !attempts = 1 then Tm.poke v 55;
            !x)
      in
      check "deduped read still validated" 2 !attempts;
      check "retry saw the poke" 55 seen)

(* Uids wrap after 2^18 tvars, so two live tvars can share one. [a] and
   [b] do; the transaction reads both, writes both and ten more, which
   engages the write-set index, and a poke of a bystander makes commit
   validate the read set. Validating [a] and [b] looks each one's lock
   up in the index by uid: the entry of the other, with the same uid,
   must not end the probe, or the commit aborts itself on every
   attempt. *)
let test_uid_collision_commits () =
  with_tm (fun () ->
      let saved = Tm.set_next_uid_for_testing 7 in
      let a = Tm.tvar 10 in
      ignore (Tm.set_next_uid_for_testing 7);
      let b = Tm.tvar 20 in
      ignore (Tm.set_next_uid_for_testing saved);
      check "a and b share a uid" (Tm.tvar_id a) (Tm.tvar_id b);
      checkb "but are two tvars" false (a == b);
      let others = Array.init 10 (fun _ -> Tm.tvar 0) in
      let bystander = Tm.tvar 0 in
      let r =
        Tm.atomic_stamped ~site:"test.uid_collision_commits" (fun txn ->
            let x = Tm.read txn a and y = Tm.read txn b in
            Tm.write txn a (x + 1);
            Tm.write txn b (y + 2);
            Array.iter (fun tv -> Tm.write txn tv 7) others;
            check "the write set is indexed" 12 (Tm.writes_logged txn);
            check "indexed read of a" 11 (Tm.read txn a);
            check "indexed read of b" 22 (Tm.read txn b);
            Tm.poke bystander 1)
      in
      check "committed on the first attempt" 1 r.Tm.attempts;
      checkb "speculatively" false r.Tm.serial;
      check "a" 11 (Tm.peek a);
      check "b" 22 (Tm.peek b))

(* ---- thread registry ---- *)

let test_thread_ids_recycled () =
  let id1 =
    Domain.join
      (Domain.spawn (fun () -> Tm.Thread.with_registered (fun id -> id)))
  in
  let id2 =
    Domain.join
      (Domain.spawn (fun () -> Tm.Thread.with_registered (fun id -> id)))
  in
  check "released id is reused" id1 id2

let test_thread_ids_distinct () =
  Tm.Thread.with_registered (fun my_id ->
      let other =
        Domain.join
          (Domain.spawn (fun () -> Tm.Thread.with_registered (fun id -> id)))
      in
      checkb "concurrent ids differ" true (other <> my_id))

(* ---- concurrency ---- *)

let spawn_workers n f =
  List.init n (fun i -> Domain.spawn (fun () -> Tm.Thread.with_registered (f i)))
  |> List.map Domain.join

let test_concurrent_counter () =
  with_tm (fun () ->
      let v = Tm.tvar 0 in
      let per_thread = 2000 in
      let _ =
        spawn_workers 4 (fun _ _tid ->
            for _ = 1 to per_thread do
              Tm.atomic ~site:"test.concurrent_counter"
                (fun txn -> Tm.write txn v (Tm.read txn v + 1))
            done)
      in
      check "no lost updates" (4 * per_thread) (Tm.peek v))

let test_concurrent_counter_serial_pressure () =
  with_tm (fun () ->
      let v = Tm.tvar 0 in
      let per_thread = 800 in
      let _ =
        spawn_workers 4 (fun _ _tid ->
            for _ = 1 to per_thread do
              Tm.atomic ~site:"test.concurrent_counter_serial_pressure"
                ~max_attempts:1 (fun txn ->
                  Tm.write txn v (Tm.read txn v + 1))
            done)
      in
      check "no lost updates under heavy serial fallback" (4 * per_thread)
        (Tm.peek v))

(* Bank invariant: concurrent random transfers keep the total constant and
   every read-only snapshot observes the full total (opacity/consistency). *)
let test_bank_invariant () =
  with_tm (fun () ->
      let n_accounts = 16 in
      let initial = 100 in
      let accounts = Array.init n_accounts (fun _ -> Tm.tvar initial) in
      let total = n_accounts * initial in
      let violations = Atomic.make 0 in
      let _ =
        spawn_workers 4 (fun i _tid ->
            let rng = ref (i + 17) in
            let rand m =
              rng := (!rng * 1103515245) + 12345;
              !rng land 0x3FFFFFFF mod m
            in
            for _ = 1 to 2500 do
              if rand 4 = 0 then begin
                (* audit: snapshot the whole bank *)
                let sum =
                  Tm.atomic ~site:"test.bank_invariant" (fun txn ->
                      Array.fold_left (fun a v -> a + Tm.read txn v) 0 accounts)
                in
                if sum <> total then Atomic.incr violations
              end
              else
                let a = rand n_accounts and b = rand n_accounts in
                let amt = rand 10 in
                Tm.atomic ~site:"test.bank_invariant" (fun txn ->
                    let va = Tm.read txn accounts.(a) in
                    let vb = Tm.read txn accounts.(b) in
                    Tm.write txn accounts.(a) (va - amt);
                    Tm.write txn accounts.(b) (vb + amt))
            done)
      in
      check "no inconsistent audit" 0 (Atomic.get violations);
      let final = Array.fold_left (fun a v -> a + Tm.peek v) 0 accounts in
      check "total conserved" total final)

(* Regression for the serial-fallback snapshot race: with max_attempts=1
   every conflict escalates to a serial transaction, and read-only audits
   must still see consistent totals (a reader that samples its snapshot
   while a serial writer is mid-publication must not mix old and new
   values). *)
let test_bank_invariant_serial_pressure () =
  with_tm (fun () ->
      let n_accounts = 8 in
      let initial = 50 in
      let accounts = Array.init n_accounts (fun _ -> Tm.tvar initial) in
      let total = n_accounts * initial in
      let violations = Atomic.make 0 in
      let _ =
        spawn_workers 4 (fun i _tid ->
            let rng = ref (i + 29) in
            let rand m =
              rng := (!rng * 1103515245) + 12345;
              !rng land 0x3FFFFFFF mod m
            in
            for _ = 1 to 1500 do
              if rand 3 = 0 then begin
                let sum =
                  Tm.atomic ~site:"test.bank_invariant_serial_pressure"
                    ~max_attempts:1 (fun txn ->
                      Array.fold_left (fun a v -> a + Tm.read txn v) 0 accounts)
                in
                if sum <> total then Atomic.incr violations
              end
              else
                let a = rand n_accounts and b = rand n_accounts in
                Tm.atomic ~site:"test.bank_invariant_serial_pressure"
                  ~max_attempts:1 (fun txn ->
                    let va = Tm.read txn accounts.(a) in
                    let vb = Tm.read txn accounts.(b) in
                    Tm.write txn accounts.(a) (va - 1);
                    Tm.write txn accounts.(b) (vb + 1))
            done)
      in
      check "no torn snapshot under serial pressure" 0
        (Atomic.get violations);
      let final = Array.fold_left (fun a v -> a + Tm.peek v) 0 accounts in
      check "total conserved" total final)

(* Writer stamps are unique across threads. *)
let test_stamp_uniqueness () =
  with_tm (fun () ->
      let v = Tm.tvar 0 in
      let stamps =
        spawn_workers 4 (fun _ _tid ->
            List.init 500 (fun _ ->
                (Tm.atomic_stamped ~site:"test.stamp_uniqueness"
                   (fun txn -> Tm.write txn v (Tm.read txn v + 1)))
                  .Tm.stamp))
        |> List.concat
      in
      let sorted = List.sort_uniq compare stamps in
      check "all writer stamps distinct" (List.length stamps)
        (List.length sorted))

(* TM-level serializability: concurrent random read/write transactions on a
   small tvar array, logged with commit stamps, must replay exactly against
   a sequential model in stamp order. *)
let test_concurrent_serializable () =
  with_tm (fun () ->
      let n_vars = 6 in
      let tvars = Array.init n_vars (fun _ -> Tm.tvar 0) in
      let logs =
        spawn_workers 4 (fun w _tid ->
            let rng = ref (w + 91) in
            let rand m =
              rng := (!rng * 1103515245) + 12345;
              !rng land 0x3FFFFFFF mod m
            in
            let log = ref [] in
            for _ = 1 to 1200 do
              let src = rand n_vars and dst = rand n_vars in
              let amount = rand 10 in
              let r =
                Tm.atomic_stamped ~site:"test.concurrent_serializable"
                  (fun txn ->
                    let v = Tm.read txn tvars.(src) in
                    if amount mod 3 = 0 then v (* read-only observation *)
                    else begin
                      Tm.write txn tvars.(dst) (v + amount);
                      v + amount
                    end)
              in
              log :=
                (r.Tm.stamp, r.Tm.read_only, src, dst, amount, r.Tm.value)
                :: !log
            done;
            List.rev !log)
      in
      (* replay in stamp order, writers before readers on ties *)
      let all =
        List.concat logs
        |> List.stable_sort (fun (s1, ro1, _, _, _, _) (s2, ro2, _, _, _, _) ->
               match compare s1 s2 with 0 -> compare ro1 ro2 | c -> c)
      in
      let model = Array.make n_vars 0 in
      List.iter
        (fun (_, _, src, dst, amount, value) ->
          if amount mod 3 = 0 then begin
            if model.(src) <> value then
              Alcotest.failf "read-only txn observed %d, model has %d" value
                model.(src)
          end
          else begin
            let expected = model.(src) + amount in
            if expected <> value then
              Alcotest.failf "writer observed %d, model expects %d" value
                expected;
            model.(dst) <- expected
          end)
        all;
      Array.iteri
        (fun i tv -> check (Printf.sprintf "final var %d" i) model.(i) (Tm.peek tv))
        tvars)

(* ---- tvar layout: the lock word is field 0 of the tvar record ---- *)

(* White-box: the raw TL2 lock word ([uid | version | locked]). *)
let lock_word_of tv : int = Obj.obj (Obj.field (Obj.repr tv) 0)

let version_of_word w = (w lsr 1) land Tm.max_version
let locked_bit w = w land 1

(* Make a tvar with the top uid, whose lock word is negative; the counter
   is put back so no uid repeats. *)
let tvar_with_top_uid v =
  let saved = Tm.set_next_uid_for_testing Tm.max_uid in
  let tv = Tm.tvar v in
  ignore (Tm.set_next_uid_for_testing saved);
  tv

(* A tvar is one block: header, lock word, payload. The lock word packs
   [uid | version | locked], and every store to it keeps the uid. A word
   or block added to it shows up here and in every node of every
   structure. *)
let test_tvar_layout () =
  with_tm (fun () ->
      let tv = Tm.tvar 0 in
      check "tvar words" 3 (Obj.reachable_words (Obj.repr tv));
      check "tvar is a single 2-field block" 2 (Obj.size (Obj.repr tv));
      let uid = Tm.tvar_id tv in
      check "fresh tvar: version 0" 0 (version_of_word (lock_word_of tv));
      check "fresh tvar: unlocked" 0 (locked_bit (lock_word_of tv));
      let top = tvar_with_top_uid 0 in
      check "top uid" Tm.max_uid (Tm.tvar_id top);
      checkb "top uid: the word is negative" true (lock_word_of top < 0);
      check "top uid: version 0" 0 (version_of_word (lock_word_of top));
      List.iter
        (fun (tv, uid) ->
          let keeps what =
            let w = lock_word_of tv in
            check (what ^ " keeps the uid") uid (Tm.tvar_id tv);
            check (what ^ " leaves it unlocked") 0 (locked_bit w);
            version_of_word w
          in
          let r = Tm.atomic_stamped ~site:"test.tvar_layout"
                    (fun txn -> Tm.write txn tv 1) in
          check "commit release carries the stamp" r.Tm.stamp
            (keeps "commit release");
          check "read sees it" 1 (Tm.atomic ~site:"test.tvar_layout"
                                    (fun txn -> Tm.read txn tv));
          Tm.poke tv 2;
          check "poke carries a fresh stamp" (Tm.clock ()) (keeps "poke");
          let r =
            Tm.atomic_stamped ~site:"test.tvar_layout"
              ~max_attempts:0 (fun txn -> Tm.write txn tv 3)
          in
          checkb "ran serial" true r.Tm.serial;
          check "serial write carries the serial stamp" r.Tm.stamp
            (keeps "serial write");
          check "peek" 3 (Tm.peek tv))
        [ (tv, uid); (top, Tm.max_uid) ])

let exhausted what f =
  match f () with
  | _ -> Alcotest.failf "%s past the limit did not raise" what
  | exception Tm.Clock_exhausted -> ()

(* Run [f] with the clock at [v], putting it back afterwards. No tvar
   outside [f] sees the large stamps. *)
let with_clock_at v f =
  let saved = Tm.clock () in
  Fun.protect
    ~finally:(fun () -> Tm.set_clock_for_testing saved)
    (fun () ->
      Tm.set_clock_for_testing v;
      f ())

(* The version field is 44 bits: the clock stops at its limit, loudly,
   instead of wrapping or spilling stamps into the uid bits. A commit
   that fails there unlocks its write set (the abort-path unlock, which
   also keeps the uid); serial and raw writes fail before touching a
   word. *)
let test_clock_limit () =
  with_tm (fun () ->
      let tv = tvar_with_top_uid 0 in
      with_clock_at (Tm.max_version - 1) (fun () ->
          let r = Tm.atomic_stamped ~site:"test.clock_limit"
                    (fun txn -> Tm.write txn tv 1) in
          check "the last stamp" Tm.max_version r.Tm.stamp;
          check "published in full" Tm.max_version
            (version_of_word (lock_word_of tv));
          check "below the uid" Tm.max_uid (Tm.tvar_id tv);
          exhausted "commit" (fun () ->
              Tm.atomic ~site:"test.clock_limit"
                (fun txn -> Tm.write txn tv 2));
          check "commit unlocked its write set" 0
            (locked_bit (lock_word_of tv));
          check "unlock kept the uid" Tm.max_uid (Tm.tvar_id tv);
          check "value unchanged" 1 (Tm.peek tv);
          exhausted "serial commit" (fun () ->
              Tm.atomic ~site:"test.clock_limit"
                ~max_attempts:0 (fun txn -> Tm.write txn tv 3));
          checkb "serial token released" false (Tm.serial_active ());
          exhausted "poke" (fun () -> Tm.poke tv 4);
          check "the word never moved" Tm.max_version
            (version_of_word (lock_word_of tv));
          check "value still unchanged" 1 (Tm.peek tv));
      let after = Tm.tvar 0 in
      Tm.atomic ~site:"test.clock_limit" (fun txn -> Tm.write txn after 5);
      check "commits resume once the clock is back" 5 (Tm.peek after))

(* The limit can also be hit after a commit has published: the commit
   takes the last stamp and a deferred callback's poke fails. By then
   the write set is unlocked and may already be locked again by another
   committer, stood in for here by setting [a]'s lock bit before the
   poke. The failure must leave that lock bit alone; the commit itself
   stands. *)
let test_clock_limit_in_defer () =
  with_tm (fun () ->
      let a = Tm.tvar 0 and b = Tm.tvar 0 in
      let set_word tv w = Obj.set_field (Obj.repr tv) 0 (Obj.repr (w : int)) in
      let relocked = ref 0 in
      with_clock_at (Tm.max_version - 1) (fun () ->
          exhausted "deferred poke" (fun () ->
              Tm.atomic ~site:"test.clock_limit_in_defer" (fun txn ->
                  Tm.write txn a 1;
                  Tm.defer txn (fun () ->
                      relocked := lock_word_of a lor 1;
                      set_word a !relocked;
                      Tm.poke b 2)));
          check "the other committer's lock is untouched" !relocked
            (lock_word_of a);
          set_word a (!relocked land lnot 1);
          check "the commit published a" 1 (Tm.peek a);
          check "with the last stamp" Tm.max_version
            (version_of_word (lock_word_of a));
          check "b was left as it was" 0 (Tm.peek b)))

(* The seqlock oracle. Two writers each advance [x] per commit and write
   freshly allocated tuples, [(x, -x)] into [a] and [(-x, x)] into [b], so
   every published payload is a distinct block tied to one version, with
   [x] strictly increasing. A third domain reads the pair through a
   default transaction, a [~read_phase:true] one (the path that waits out
   locked words instead of aborting) and [Tm.peek] as (a, b, a): when
   both peeks of [a] return the same block no commit touched the pair in
   between. A payload paired with the wrong version, or a lock-word view
   that missed the lock bit, shows up as a pair whose first components do
   not cancel. The writers never fall back to serial mode, whose direct
   writes unlock one tvar at a time and so may be peeked half done. After
   the run no lock bit is left set. *)
let test_lock_word_view () =
  with_tm (fun () ->
      let a = Tm.tvar (0, 0) and b = Tm.tvar (0, 0) in
      let per_writer = 2000 in
      let stop = Atomic.make false in
      let torn = Atomic.make 0 in
      let check_pair (a1, a2) (b1, b2) =
        if a2 <> -a1 || b2 <> -b1 || a1 + b1 <> 0 then Atomic.incr torn
      in
      let reader =
        Domain.spawn (fun () ->
            Tm.Thread.with_registered (fun _ ->
                let rounds = ref 0 and peeks = ref 0 in
                let read txn = (Tm.read txn a, Tm.read txn b) in
                while (not (Atomic.get stop)) || !rounds < 100 do
                  incr rounds;
                  let pa, pb = Tm.atomic ~site:"test.lock_word_view" read in
                  check_pair pa pb;
                  let pa, pb = Tm.atomic ~site:"test.lock_word_view"
                                 ~read_phase:true read in
                  check_pair pa pb;
                  let a1 = Tm.peek a in
                  let pb = Tm.peek b in
                  if Tm.peek a == a1 then begin
                    incr peeks;
                    check_pair a1 pb
                  end
                done;
                !peeks))
      in
      let _ =
        spawn_workers 2 (fun w _tid ->
            for i = 1 to per_writer do
              let d = 1 + ((i * (w + 3)) mod 17) in
              Tm.atomic ~site:"test.lock_word_view"
                ~max_attempts:max_int (fun txn ->
                  let x = fst (Tm.read txn a) + d in
                  Tm.write txn a (x, -x);
                  Tm.write txn b (-x, x))
            done)
      in
      Atomic.set stop true;
      let stable_peeks = Domain.join reader in
      check_pair (Tm.peek a) (Tm.peek b);
      check "no torn pair" 0 (Atomic.get torn);
      checkb "some peek pairs were stable" true (stable_peeks > 0);
      checkb "a advanced" true (fst (Tm.peek a) >= 2 * per_writer);
      List.iter
        (fun (name, tv) ->
          let w = lock_word_of tv in
          check (name ^ " lock bit clear") 0 (w land 1);
          checkb (name ^ " version advanced") true (w > 0))
        [ ("a", a); ("b", b) ])

(* ---- qcheck: single-threaded sequences against a model ---- *)

let qcheck_model =
  QCheck.Test.make ~name:"tm matches sequential model" ~count:200
    QCheck.(list (pair (int_bound 7) (int_bound 100)))
    (fun ops ->
      Tm.Thread.with_registered (fun _ ->
          let tvars = Array.init 8 (fun _ -> Tm.tvar 0) in
          let model = Array.make 8 0 in
          List.iter
            (fun (i, v) ->
              (* Write v to slot i and add the previous value to slot
                 (i+1) mod 8, transactionally and in the model. *)
              Tm.atomic ~site:"test.qcheck_model" (fun txn ->
                  let old = Tm.read txn tvars.(i) in
                  Tm.write txn tvars.(i) v;
                  let j = (i + 1) mod 8 in
                  Tm.write txn tvars.(j) (Tm.read txn tvars.(j) + old));
              let old = model.(i) in
              model.(i) <- v;
              let j = (i + 1) mod 8 in
              model.(j) <- model.(j) + old)
            ops;
          Array.for_all2 (fun tv m -> Tm.peek tv = m) tvars model))

let qcheck_stamp_order =
  QCheck.Test.make ~name:"later writers get later stamps" ~count:100
    QCheck.(list_of_size (Gen.return 10) (int_bound 50))
    (fun vs ->
      Tm.Thread.with_registered (fun _ ->
          let v = Tm.tvar 0 in
          let stamps =
            List.map
              (fun x -> (Tm.atomic_stamped ~site:"test.qcheck_stamp_order"
                           (fun txn -> Tm.write txn v x)).Tm.stamp)
              vs
          in
          let rec increasing = function
            | a :: (b :: _ as rest) -> a < b && increasing rest
            | _ -> true
          in
          increasing stamps))

(* ---- failure atomicity: on_abort and the serial undo log ---- *)

exception Boom

(* [on_abort] callbacks counted, and checked to run outside any
   transaction. *)
let counting () =
  let runs = ref 0 in
  let f () =
    checkb "callback runs outside the transaction" true
      (Tm.current_txn () = None);
    incr runs
  in
  (runs, f)

let test_on_abort_conflict () =
  with_tm (fun () ->
      let runs, f = counting () in
      let attempts = ref 0 in
      let r =
        Tm.atomic_stamped ~site:"test.on_abort_conflict"
          ~max_attempts:10 (fun txn ->
            incr attempts;
            if !attempts = 1 then begin
              Tm.on_abort txn f;
              raise (Tm.Abort Tm.Read_invalid)
            end)
      in
      check "two attempts" 2 r.Tm.attempts;
      check "ran once, for the aborted attempt" 1 !runs)

let test_on_abort_exception () =
  with_tm (fun () ->
      let runs, f = counting () in
      (match
         Tm.atomic ~site:"test.on_abort_exception" (fun txn ->
             Tm.on_abort txn f;
             raise Boom)
       with
      | () -> Alcotest.fail "the exception was swallowed"
      | exception Boom -> ());
      check "ran once" 1 !runs)

let test_on_abort_serial_exception () =
  with_tm (fun () ->
      let runs, f = counting () in
      (match
         Tm.atomic ~site:"test.on_abort_serial_exception"
           ~max_attempts:0 (fun txn ->
             checkb "serial" true (Tm.is_serial txn);
             Tm.on_abort txn f;
             raise Boom)
       with
      | () -> Alcotest.fail "the exception was swallowed"
      | exception Boom -> ());
      check "ran once" 1 !runs;
      checkb "token released" false (Tm.serial_active ()))

let test_on_abort_not_on_commit () =
  with_tm (fun () ->
      let runs, f = counting () in
      let v = Tm.tvar 0 in
      Tm.atomic ~site:"test.on_abort_not_on_commit" (fun txn ->
          Tm.on_abort txn f;
          Tm.write txn v 1);
      Tm.atomic ~site:"test.on_abort_not_on_commit" ~max_attempts:0 (fun txn ->
          Tm.on_abort txn f;
          Tm.write txn v 2);
      check "never ran" 0 !runs;
      (* a later abort must not replay a committed registration *)
      (try Tm.atomic ~site:"test.on_abort_not_on_commit"
             (fun _ -> raise Boom) with Boom -> ());
      check "still never ran" 0 !runs)

let test_on_abort_nested () =
  with_tm (fun () ->
      let runs, f = counting () in
      (match
         Tm.atomic ~site:"test.on_abort_nested" (fun _ ->
             Tm.atomic ~site:"test.on_abort_nested"
               (fun txn -> Tm.on_abort txn f);
             check "the nested commit ran nothing" 0 !runs;
             raise Boom)
       with
      | () -> Alcotest.fail "the exception was swallowed"
      | exception Boom -> ());
      check "ran once, at the outermost abort" 1 !runs)

(* [assign]: the undo-logged write of a transaction's own state. *)
let test_assign_commit () =
  with_tm (fun () ->
      let r = ref 0 in
      Tm.atomic ~site:"test.assign_commit" (fun txn ->
          Tm.assign txn r 1;
          check "visible in the attempt" 1 !r;
          Tm.assign txn r 2;
          check "the latest write wins" 2 !r);
      check "kept on commit" 2 !r;
      (* a later abort must not replay a committed registration *)
      (try Tm.atomic ~site:"test.assign_commit"
             (fun _ -> raise Boom) with Boom -> ());
      check "still kept" 2 !r)

let test_assign_conflict () =
  with_tm (fun () ->
      let r = ref 0 in
      let seen = ref [] in
      let attempts = ref 0 in
      Tm.atomic ~site:"test.assign_conflict" ~max_attempts:10 (fun txn ->
          incr attempts;
          seen := !r :: !seen;
          Tm.assign txn r 1;
          Tm.assign txn r 2;
          if !attempts = 1 then raise (Tm.Abort Tm.Read_invalid));
      Alcotest.(check (list int))
        "each attempt starts from the old value" [ 0; 0 ] !seen;
      check "kept on commit" 2 !r)

let test_assign_exception () =
  with_tm (fun () ->
      let r = ref 0 in
      (match
         Tm.atomic ~site:"test.assign_exception" (fun txn ->
             Tm.assign txn r 1;
             Tm.assign txn r 2;
             raise Boom)
       with
      | () -> Alcotest.fail "the exception was swallowed"
      | exception Boom -> ());
      check "old value back" 0 !r)

let test_assign_nested () =
  with_tm (fun () ->
      let r = ref 0 in
      (match
         Tm.atomic ~site:"test.assign_nested" (fun _ ->
             Tm.atomic ~site:"test.assign_nested"
               (fun txn -> Tm.assign txn r 1);
             check "the nested commit keeps it in the enclosing one" 1 !r;
             raise Boom)
       with
      | () -> Alcotest.fail "the exception was swallowed"
      | exception Boom -> ());
      check "old value back at the outermost abort" 0 !r)

let test_serial_exception_undoes_writes () =
  with_tm (fun () ->
      let a = Tm.tvar 1 and b = Tm.tvar 2 in
      (* more tvars than the write set scans linearly, each written twice *)
      let many = Array.init 20 Tm.tvar in
      (match
         Tm.atomic ~site:"test.serial_exception_undoes_writes"
           ~max_attempts:0 (fun txn ->
             Tm.write txn a 10;
             Tm.write txn b 20;
             Tm.write txn a 11;
             for round = 1 to 2 do
               Array.iter (fun tv -> Tm.write txn tv (100 * round)) many
             done;
             raise Boom)
       with
      | () -> Alcotest.fail "the exception was swallowed"
      | exception Boom -> ());
      check "a restored" 1 (Tm.peek a);
      check "b restored" 2 (Tm.peek b);
      Array.iteri (fun i tv -> check "restored" i (Tm.peek tv)) many;
      checkb "token released" false (Tm.serial_active ());
      (* both lock words are unlocked: a speculative reader commits on its
         first attempt *)
      let r = Tm.atomic_stamped ~site:"test.serial_exception_undoes_writes"
                (fun txn -> Tm.read txn a + Tm.read txn b) in
      check "old values read" 3 r.Tm.value;
      check "first attempt" 1 r.Tm.attempts;
      checkb "speculative" false r.Tm.serial)

let () =
  Alcotest.run "tm"
    [
      ( "basics",
        [
          Alcotest.test_case "read-write" `Quick test_read_write;
          Alcotest.test_case "read-own-write" `Quick test_read_own_write;
          Alcotest.test_case "write-write" `Quick test_write_write;
          Alcotest.test_case "multiple tvars" `Quick test_multiple_tvars;
          Alcotest.test_case "exception rollback" `Quick
            test_exception_rolls_back;
          Alcotest.test_case "abort retries" `Quick test_abort_retries;
          Alcotest.test_case "defer order" `Quick test_defer_order;
          Alcotest.test_case "serial fallback" `Quick test_serial_fallback;
          Alcotest.test_case "stamps monotone" `Quick test_stamps_monotone;
          Alcotest.test_case "nesting flattens" `Quick test_nested_flattens;
          Alcotest.test_case "poke" `Quick test_poke_bumps_version;
          Alcotest.test_case "opaque snapshot" `Quick test_opaque_snapshot;
          Alcotest.test_case "validate-on-commit" `Quick
            test_validate_on_commit;
        ] );
      ( "failure atomicity",
        [
          Alcotest.test_case "on_abort after a conflict abort" `Quick
            test_on_abort_conflict;
          Alcotest.test_case "on_abort after an exception" `Quick
            test_on_abort_exception;
          Alcotest.test_case "on_abort after a serial exception" `Quick
            test_on_abort_serial_exception;
          Alcotest.test_case "on_abort never on commit" `Quick
            test_on_abort_not_on_commit;
          Alcotest.test_case "on_abort nested runs at the outermost abort"
            `Quick test_on_abort_nested;
          Alcotest.test_case "serial exception undoes writes" `Quick
            test_serial_exception_undoes_writes;
          Alcotest.test_case "assign kept on commit" `Quick
            test_assign_commit;
          Alcotest.test_case "assign undone after a conflict abort" `Quick
            test_assign_conflict;
          Alcotest.test_case "assign undone after an exception" `Quick
            test_assign_exception;
          Alcotest.test_case "assign nested undone at the outermost abort"
            `Quick test_assign_nested;
        ] );
      ( "extension",
        [
          Alcotest.test_case "rescues stale read" `Quick
            test_extension_rescues_stale_read;
          Alcotest.test_case "fails on true conflict" `Quick
            test_extension_fails_on_true_conflict;
          Alcotest.test_case "read-phase never serial" `Quick
            test_read_phase_never_serial;
          Alcotest.test_case "read-phase writes commit" `Quick
            test_read_phase_writes_commit;
        ] );
      ( "unlogged",
        [
          Alcotest.test_case "write raises, publishes nothing" `Quick
            test_unlogged_write_raises;
          Alcotest.test_case "stale read aborts, no extension" `Quick
            test_unlogged_stale_read_aborts;
          Alcotest.test_case "serial and nested runs log" `Quick
            test_unlogged_serial_and_nested_log;
        ] );
      ( "commit path",
        [
          Alcotest.test_case "write-set growth readback" `Quick
            test_wset_growth_readback;
          Alcotest.test_case "overwrite in place" `Quick
            test_wset_overwrite_in_place;
          Alcotest.test_case "filter false positive" `Quick
            test_wfilter_false_positive_falls_through;
          Alcotest.test_case "read-set dedup" `Quick test_rset_dedup;
          Alcotest.test_case "dedup still validated" `Quick
            test_rset_dedup_still_validated;
          Alcotest.test_case "uid collision commits" `Quick
            test_uid_collision_commits;
        ] );
      ( "threads",
        [
          Alcotest.test_case "id recycling" `Quick test_thread_ids_recycled;
          Alcotest.test_case "distinct ids" `Quick test_thread_ids_distinct;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "counter" `Quick test_concurrent_counter;
          Alcotest.test_case "counter (serial pressure)" `Quick
            test_concurrent_counter_serial_pressure;
          Alcotest.test_case "bank invariant" `Quick test_bank_invariant;
          Alcotest.test_case "bank invariant (serial pressure)" `Slow
            test_bank_invariant_serial_pressure;
          Alcotest.test_case "stamp uniqueness" `Quick test_stamp_uniqueness;
          Alcotest.test_case "concurrent serializability" `Slow
            test_concurrent_serializable;
        ] );
      ( "layout",
        [
          Alcotest.test_case "tvar words" `Quick test_tvar_layout;
          Alcotest.test_case "clock limit" `Quick test_clock_limit;
          Alcotest.test_case "clock limit in a defer" `Quick
            test_clock_limit_in_defer;
          Alcotest.test_case "lock-word view" `Quick test_lock_word_view;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_model;
          QCheck_alcotest.to_alcotest qcheck_stamp_order;
        ] );
    ]
