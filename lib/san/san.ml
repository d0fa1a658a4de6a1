type rule =
  | Use_after_free
  | Unchecked_carry
  | Reservation_leak
  | Double_revoke
  | Lock_leak
  | Non_txn_access
  | Stale_read
  | Stale_cache_hit

let all_rules =
  [
    Use_after_free;
    Unchecked_carry;
    Reservation_leak;
    Double_revoke;
    Lock_leak;
    Non_txn_access;
    Stale_read;
    Stale_cache_hit;
  ]

let rule_id = function
  | Use_after_free -> "use-after-free"
  | Unchecked_carry -> "unchecked-carry"
  | Reservation_leak -> "reservation-leak"
  | Double_revoke -> "double-revoke"
  | Lock_leak -> "lock-leak"
  | Non_txn_access -> "non-txn-access"
  | Stale_read -> "stale-read"
  | Stale_cache_hit -> "stale-cache-hit"

let rule_index = function
  | Use_after_free -> 0
  | Unchecked_carry -> 1
  | Reservation_leak -> 2
  | Double_revoke -> 3
  | Lock_leak -> 4
  | Non_txn_access -> 5
  | Stale_read -> 6
  | Stale_cache_hit -> 7

type event = { what : string; thread : int; site : string; stamp : int }

type report = {
  rule : rule;
  thread : int;
  site : string;
  subject : string;
  detail : string;
  history : event list;
}

exception Violation of report

let pp_report ppf r =
  Format.fprintf ppf "@[<v 2>TxSan: [%s] %s@ thread %d at %s: %s" (rule_id r.rule)
    r.subject r.thread r.site r.detail;
  List.iter
    (fun e ->
      Format.fprintf ppf "@ | %-12s thread %d at %-24s @@%d" e.what e.thread
        e.site e.stamp)
    r.history;
  Format.fprintf ppf "@]"

let report_to_string r = Format.asprintf "%a" pp_report r

let () =
  Printexc.register_printer (function
    | Violation r -> Some (report_to_string r)
    | _ -> None)

type mode = Raise | Count

(* One relaxed bool load per hook when off — the DST yield-point pattern. *)
let on = ref false
let delivery = ref Raise
let enabled () = !on

(* ------------------------------------------------------------------ *)
(* Shadow state. All of it lives behind [m]: TxSan-on runs serialize   *)
(* their shadow updates, which is the measured (and documented) cost.  *)
(* ------------------------------------------------------------------ *)

let m = Mutex.create ()

type tvar_shadow = {
  uid : int;
  mutable owner : int; (* slot key, or min_int when unknown *)
  mutable locked_by : int; (* committing thread, or -1 *)
  mutable last_writer : int;
  mutable last_wv : int;
}

type slot_shadow = {
  key : int;
  mutable generation : int;
  mutable live : bool;
  mutable alloc_stamp : int;
  mutable alloc_thread : int;
  mutable freed_stamp : int;
  mutable free_site : string;
  mutable free_thread : int;
  mutable retired : bool;
  mutable revoked : bool;
  mutable revoke_stamp : int;
  mutable history : event list; (* newest first, capped *)
}

type pending =
  | P_reserve of int
  | P_release of int
  | P_release_all
  | P_revoke of int * string
  | P_hint of int
  | P_viol of report (* delivered on commit, discarded on abort *)

type thread_shadow = {
  mutable pending : pending list; (* newest first *)
  mutable reserved : int list; (* applied (committed) reservation set *)
  mutable last_reserved : int;
  mutable carry : int; (* node key carried across the last hand-off *)
  mutable carry_gen : int;
  mutable carry_checked : bool;
  mutable in_check : bool;
  mutable in_probe : bool; (* inside the deletion check: freed reads OK *)
  mutable locks : int list; (* tvar uids locked by the in-flight commit *)
  mutable hints : (int * int) list; (* (node key, generation at note) *)
  mutable epochs : int; (* live epoch announcements *)
  mutable hp : ((int * int) * int) list; (* ((group, slot), node) *)
  mutable at_begin : int * int * bool * int;
      (* (carry, carry_gen, carry_checked, last_reserved) when the
         in-flight attempt began: an abort or abandonment puts them back *)
}

let fresh_thread () =
  {
    pending = [];
    reserved = [];
    last_reserved = min_int;
    carry = min_int;
    carry_gen = -1;
    carry_checked = false;
    in_check = false;
    in_probe = false;
    locks = [];
    hints = [];
    epochs = 0;
    hp = [];
    at_begin = (min_int, -1, false, min_int);
  }

let tvars : (int, tvar_shadow) Hashtbl.t = Hashtbl.create 1024
let slots : (int, slot_shadow) Hashtbl.t = Hashtbl.create 256

(* The live nodes each thread's in-flight transaction has read outside
   the RR check and the deletion check, by thread id. *)
let txn_reads : (int, int list) Hashtbl.t = Hashtbl.create 8
let reads_of tid = Option.value ~default:[] (Hashtbl.find_opt txn_reads tid)

let threads = Array.init Telemetry.max_threads (fun _ -> fresh_thread ())

(* In-flight serial (irrevocable) writer: [(wv lsl 8) lor tid], or -1. *)
let serial_word = Atomic.make (-1)
let counters = Array.init (List.length all_rules) (fun _ -> Atomic.make 0)
let last = Atomic.make None
let group_ctr = Atomic.make 0
let fresh_group () = Atomic.fetch_and_add group_ctr 1
let node_key ~group ~node = (group lsl 21) lor (node land 0x1f_ffff)

let reset () =
  Mutex.lock m;
  Hashtbl.reset tvars;
  Hashtbl.reset slots;
  Hashtbl.reset txn_reads;
  Array.iteri (fun i _ -> threads.(i) <- fresh_thread ()) threads;
  Atomic.set serial_word (-1);
  Array.iter (fun c -> Atomic.set c 0) counters;
  Atomic.set last None;
  Mutex.unlock m

let violations () =
  List.map
    (fun r -> (rule_id r, Atomic.get counters.(rule_index r)))
    all_rules

let total_violations () =
  Array.fold_left (fun acc c -> acc + Atomic.get c) 0 counters

let last_report () = Atomic.get last

(* The sanitizer is a singleton, so ask the registry instead of keeping a
   local flag: a local flag would go stale when a benchmark driver calls
   [Gauges.clear] between measurement windows. *)
let register_gauges () =
  if
    Telemetry.enabled ()
    && not (Telemetry.Gauges.registered ~group:"san" ~name:"violations")
  then
    Telemetry.Gauges.register ~group:"san" ~name:"violations" (fun () ->
        List.map (fun (id, n) -> (id, float_of_int n)) (violations ()))

(* The tvar shadow table is keyed by uid, and the TM's uids wrap: once it
   has handed out all of them, two live tvars may share a uid and their
   shadow entries would merge into one. *)
let uids_exhausted = ref false

let uid_space_error () =
  failwith "TxSan: tvar uid space exhausted (uids now repeat); shadow state \
            would merge distinct tvars"

let uid_space_exhausted flag =
  uids_exhausted := flag;
  if flag && !on then begin
    on := false;
    uid_space_error ()
  end

let set_enabled ?(mode = Raise) flag =
  if flag && !uids_exhausted then uid_space_error ();
  delivery := mode;
  if flag then register_gauges ();
  on := flag

(* ------------------------------------------------------------------ *)
(* Internals                                                           *)
(* ------------------------------------------------------------------ *)

let thr tid =
  if tid >= 0 && tid < Array.length threads then threads.(tid)
  else threads.(0)

let find_tvar uid = Hashtbl.find_opt tvars uid

let tvar_of uid =
  match Hashtbl.find_opt tvars uid with
  | Some tv -> tv
  | None ->
      let tv =
        {
          uid;
          owner = min_int;
          locked_by = -1;
          last_writer = -1;
          last_wv = -1;
        }
      in
      Hashtbl.add tvars uid tv;
      tv

let find_slot key = if key = min_int then None else Hashtbl.find_opt slots key

let slot_of key =
  match Hashtbl.find_opt slots key with
  | Some s -> s
  | None ->
      let s =
        {
          key;
          generation = 0;
          live = false;
          alloc_stamp = -1;
          alloc_thread = -1;
          freed_stamp = -1;
          free_site = "?";
          free_thread = -1;
          retired = false;
          revoked = false;
          revoke_stamp = -1;
          history = [];
        }
      in
      Hashtbl.add slots key s;
      s

let push_ev s e =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  s.history <- e :: take 11 s.history

let slot_history key =
  match find_slot key with Some s -> List.rev s.history | None -> []

let node_subject key = Printf.sprintf "node #%d" key

let mk rule ~tid ~site ~subject ~detail ~key =
  { rule; thread = tid; site; subject; detail; history = slot_history key }

(* Counting happens under no lock (atomics); raising happens after the
   shadow mutex is released so a handler can re-enter TxSan safely. *)
let deliver_all reps =
  List.iter
    (fun r ->
      Atomic.incr counters.(rule_index r.rule);
      Atomic.set last (Some r))
    reps;
  match reps with
  | r :: _ when !delivery = Raise -> raise (Violation r)
  | _ -> ()

let guarded f =
  Mutex.lock m;
  let reps = try f () with e -> Mutex.unlock m; raise e in
  Mutex.unlock m;
  deliver_all reps

let quiet f =
  Mutex.lock m;
  let reps = try f () with e -> Mutex.unlock m; raise e in
  Mutex.unlock m;
  List.iter
    (fun r ->
      Atomic.incr counters.(rule_index r.rule);
      Atomic.set last (Some r))
    reps

let remove_key k l = List.filter (fun x -> x <> k) l

(* ------------------------------------------------------------------ *)
(* TM hooks                                                            *)
(* ------------------------------------------------------------------ *)

let tm_read_slow ~tid ~site ~rv uid =
  guarded (fun () ->
      let reps = ref [] in
      (match find_tvar uid with
      | None -> ()
      | Some tv -> (
          match find_slot tv.owner with
          | Some s
            when (not s.live) && s.freed_stamp <= rv && not (thr tid).in_probe
            ->
              (* A validated read of a slot freed before the snapshot can
                 only be reached through a stale pointer: the poison poke
                 bumped the version past [freed_stamp], so any path that
                 read the linking pointers afterwards would have aborted.
                 Reads inside the deletion check are exempt: the protocol
                 sanctions that check on a possibly-freed pointer — poison
                 forces it to observe the deletion, and the caller discards
                 the pointer. *)
              reps :=
                mk Use_after_free ~tid ~site
                  ~subject:(Printf.sprintf "tvar #%d (node #%d)" uid tv.owner)
                  ~detail:
                    (Printf.sprintf
                       "read of freed slot (freed by thread %d at %s, @@%d; \
                        snapshot rv=%d)"
                       s.free_thread s.free_site s.freed_stamp rv)
                  ~key:tv.owner
                :: !reps
          | Some s when s.live ->
              let th = thr tid in
              if not (th.in_check || th.in_probe) then
                Hashtbl.replace txn_reads tid (s.key :: reads_of tid);
              if th.carry = s.key && (not th.carry_checked) && not th.in_check
              then
                reps :=
                  mk Unchecked_carry ~tid ~site
                    ~subject:
                      (Printf.sprintf "tvar #%d (node #%d)" uid tv.owner)
                    ~detail:
                      "carried pointer dereferenced in a new window before \
                       any successful RR check"
                    ~key:tv.owner
                  :: !reps
          | _ -> ()));
      let sw = Atomic.get serial_word in
      if sw >= 0 then begin
        let stid = sw land 0xff and swv = sw lsr 8 in
        if stid <> tid && swv <= rv then
          reps :=
            mk Stale_read ~tid ~site
              ~subject:(Printf.sprintf "tvar #%d" uid)
              ~detail:
                (Printf.sprintf
                   "snapshot rv=%d straddles in-flight serial writer (thread \
                    %d, wv=%d): serial stores may be half-visible"
                   rv stid swv)
              ~key:min_int
            :: !reps
      end;
      List.rev !reps)

let[@inline] tm_read ~tid ~site ~rv uid =
  if !on then tm_read_slow ~tid ~site ~rv uid

let tm_write_slow ~tid ~site ~rv uid =
  guarded (fun () ->
      match find_tvar uid with
      | None -> []
      | Some tv -> (
          match find_slot tv.owner with
          | Some s when (not s.live) && s.freed_stamp <= rv ->
              [
                mk Use_after_free ~tid ~site
                  ~subject:(Printf.sprintf "tvar #%d (node #%d)" uid tv.owner)
                  ~detail:
                    (Printf.sprintf
                       "write to freed slot (freed by thread %d at %s, @@%d)"
                       s.free_thread s.free_site s.freed_stamp)
                  ~key:tv.owner;
              ]
          | Some s when s.live ->
              let th = thr tid in
              if th.carry = s.key && (not th.carry_checked) && not th.in_check
              then
                [
                  mk Unchecked_carry ~tid ~site
                    ~subject:
                      (Printf.sprintf "tvar #%d (node #%d)" uid tv.owner)
                    ~detail:
                      "carried pointer written in a new window before any \
                       successful RR check"
                    ~key:tv.owner;
                ]
              else []
          | _ -> []))

let[@inline] tm_write ~tid ~site ~rv uid =
  if !on then tm_write_slow ~tid ~site ~rv uid

let tm_serial_write_slow ~tid ~site ~wv uid =
  guarded (fun () ->
      match find_tvar uid with
      | None -> []
      | Some tv -> (
          tv.last_writer <- tid;
          tv.last_wv <- wv;
          match find_slot tv.owner with
          | Some s when not s.live ->
              [
                mk Use_after_free ~tid ~site
                  ~subject:(Printf.sprintf "tvar #%d (node #%d)" uid tv.owner)
                  ~detail:
                    (Printf.sprintf
                       "serial write to freed slot (freed by thread %d at %s, \
                        @@%d)"
                       s.free_thread s.free_site s.freed_stamp)
                  ~key:tv.owner;
              ]
          | _ -> []))

let[@inline] tm_serial_write ~tid ~site ~wv uid =
  if !on then tm_serial_write_slow ~tid ~site ~wv uid

let tm_lock_slow ~tid uid =
  guarded (fun () ->
      let tv = tvar_of uid in
      tv.locked_by <- tid;
      let th = thr tid in
      th.locks <- uid :: th.locks;
      [])

let[@inline] tm_lock ~tid uid = if !on then tm_lock_slow ~tid uid

let tm_unlock_slow ~tid ~site ~wv uid =
  guarded (fun () ->
      (match find_tvar uid with
      | Some tv ->
          tv.locked_by <- -1;
          if wv >= 0 then begin
            tv.last_writer <- tid;
            tv.last_wv <- wv;
            match find_slot tv.owner with
            | Some s ->
                push_ev s { what = "commit-write"; thread = tid; site; stamp = wv }
            | None -> ()
          end
      | None -> ());
      let th = thr tid in
      let rec drop = function
        | [] -> []
        | x :: tl -> if x = uid then tl else x :: drop tl
      in
      th.locks <- drop th.locks;
      [])

let[@inline] tm_unlock ~tid ~site ~wv uid =
  if !on then tm_unlock_slow ~tid ~site ~wv uid

let lock_leak_report ~tid ~site locks =
  mk Lock_leak ~tid ~site
    ~subject:
      (Printf.sprintf "tvars [%s]"
         (String.concat "; " (List.map string_of_int locks)))
    ~detail:"version locks still held after commit/abort" ~key:min_int

let apply_pending th ~tid ~site ~rv ~now reps =
  List.iter
    (fun p ->
      match p with
      | P_reserve k ->
          (match find_slot k with
          | Some s when (not s.live) && s.freed_stamp > rv && s.freed_stamp <= now
            ->
              reps :=
                mk Use_after_free ~tid ~site ~subject:(node_subject k)
                  ~detail:
                    (Printf.sprintf
                       "reservation committed on a node freed under the \
                        transaction (rv=%d, freed @@%d by thread %d at %s)"
                       rv s.freed_stamp s.free_thread s.free_site)
                  ~key:k
                :: !reps
          | Some s
            when s.live && s.alloc_stamp > rv && s.alloc_stamp <= now
                 && s.alloc_thread <> tid ->
              (* A node this thread allocated after [rv] is this
                 transaction's own: a later operation of the same
                 transaction may reserve the node an earlier one linked. *)
              reps :=
                mk Use_after_free ~tid ~site ~subject:(node_subject k)
                  ~detail:
                    (Printf.sprintf
                       "reservation committed on a node freed and recycled \
                        under the transaction (rv=%d, realloc @@%d; last free \
                        by thread %d at %s @@%d)"
                       rv s.alloc_stamp s.free_thread s.free_site
                       s.freed_stamp)
                  ~key:k
                :: !reps
          | _ -> ());
          (* The hook runs after the commit released its locks, so a later
             commit's revoke or free of the node may already be applied:
             in stamp order it cancelled this reservation. *)
          let cancelled =
            match find_slot k with
            | Some s -> s.revoke_stamp > now || s.freed_stamp > now
            | None -> false
          in
          if not (cancelled || List.mem k th.reserved) then
            th.reserved <- k :: th.reserved;
          th.last_reserved <- k;
          (match find_slot k with
          | Some s ->
              push_ev s { what = "reserve"; thread = tid; site; stamp = now }
          | None -> ())
      | P_release k -> th.reserved <- remove_key k th.reserved
      | P_release_all -> th.reserved <- []
      | P_revoke (k, rsite) -> (
          match find_slot k with
          | Some s when now <= s.freed_stamp ->
              (* Committed before the slot's last free, but applied after
                 it (the commit hook runs after the locks are released):
                 a revoke of the freed incarnation, in order. *)
              ()
          | Some s when not s.live ->
              reps :=
                mk Double_revoke ~tid ~site:rsite ~subject:(node_subject k)
                  ~detail:
                    (Printf.sprintf
                       "revoke of a node already freed (by thread %d at %s, \
                        @@%d)"
                       s.free_thread s.free_site s.freed_stamp)
                  ~key:k
                :: !reps
          | Some s when s.revoked && not (List.mem k (reads_of tid)) ->
              (* A revoke need not unlink: the internal tree revokes the
                 path above a key its two-child removal moves up, and the
                 path stays. A committing transaction that read the node
                 reached it in a validated snapshot, so it revokes a node
                 still in place, not one already removed. *)
              reps :=
                mk Double_revoke ~tid ~site:rsite ~subject:(node_subject k)
                  ~detail:
                    "node revoked twice, with neither a realloc nor a read \
                     by the second revoker in between"
                  ~key:k
                :: !reps
          | Some s ->
              s.revoked <- true;
              s.revoke_stamp <- now;
              push_ev s { what = "revoke"; thread = tid; site = rsite; stamp = now };
              (* Revocation is what makes reservations precise: it cancels
                 every thread's reservation of the node before the free. *)
              Array.iter
                (fun t' -> t'.reserved <- remove_key k t'.reserved)
                threads
          | None -> ())
      | P_hint k -> (
          match find_slot k with
          | Some s ->
              th.hints <-
                (k, s.generation)
                :: List.filteri
                     (fun i (k', _) -> i < 31 && k' <> k)
                     th.hints
          | None -> ())
      | P_viol r -> reps := r :: !reps)
    (List.rev th.pending);
  th.pending <- []

let tm_commit_slow ~tid ~site ~rv ~now =
  guarded (fun () ->
      let th = thr tid in
      let reps = ref [] in
      if th.locks <> [] then begin
        reps := lock_leak_report ~tid ~site th.locks :: !reps;
        List.iter
          (fun uid ->
            match find_tvar uid with
            | Some tv -> tv.locked_by <- -1
            | None -> ())
          th.locks;
        th.locks <- []
      end;
      apply_pending th ~tid ~site ~rv ~now reps;
      Hashtbl.remove txn_reads tid;
      List.rev !reps)

let[@inline] tm_commit ~tid ~site ~rv ~now =
  if !on then tm_commit_slow ~tid ~site ~rv ~now

let tm_begin_slow ~tid =
  Mutex.lock m;
  let th = thr tid in
  th.at_begin <- (th.carry, th.carry_gen, th.carry_checked, th.last_reserved);
  Mutex.unlock m

let[@inline] tm_begin ~tid = if !on then tm_begin_slow ~tid

(* Discard the window shadow a failed attempt set: the reservation events
   it buffered, and the carry a nested hand-off or an RR check inside it
   moved. *)
let discard_attempt th =
  th.pending <- [];
  let carry, gen, checked, last = th.at_begin in
  th.carry <- carry;
  th.carry_gen <- gen;
  th.carry_checked <- checked;
  th.last_reserved <- last

let tm_abort_slow ~tid =
  guarded (fun () ->
      let th = thr tid in
      discard_attempt th;
      Hashtbl.remove txn_reads tid;
      th.in_check <- false;
      th.in_probe <- false;
      if th.locks <> [] then begin
        let r = lock_leak_report ~tid ~site:"?" th.locks in
        List.iter
          (fun uid ->
            match find_tvar uid with
            | Some tv -> tv.locked_by <- -1
            | None -> ())
          th.locks;
        th.locks <- [];
        [ r ]
      end
      else [])

let[@inline] tm_abort ~tid = if !on then tm_abort_slow ~tid

let tm_abandon_slow ~tid =
  quiet (fun () ->
      let th = thr tid in
      discard_attempt th;
      Hashtbl.remove txn_reads tid;
      th.in_check <- false;
      th.in_probe <- false;
      List.iter
        (fun uid ->
          match find_tvar uid with
          | Some tv -> tv.locked_by <- -1
          | None -> ())
        th.locks;
      th.locks <- [];
      [])

let[@inline] tm_abandon ~tid = if !on then tm_abandon_slow ~tid

let[@inline] tm_serial_begin ~tid ~wv =
  if !on then Atomic.set serial_word ((wv lsl 8) lor (tid land 0xff))

let[@inline] tm_serial_end ~tid:_ = if !on then Atomic.set serial_word (-1)

let nontxn_key = Dst.Tls.new_key (fun () -> ref 0)
let[@inline] exempt_begin () = if !on then incr (Dst.Tls.get nontxn_key)
let[@inline] exempt_end () = if !on then decr (Dst.Tls.get nontxn_key)

let nontxn_read_slow uid =
  if !(Dst.Tls.get nontxn_key) > 0 then ()
  else
    guarded (fun () ->
        match find_tvar uid with
        | Some tv -> (
            match find_slot tv.owner with
            | Some s when not s.live ->
                [
                  mk Use_after_free ~tid:(-1) ~site:"(non-transactional)"
                    ~subject:
                      (Printf.sprintf "tvar #%d (node #%d)" uid tv.owner)
                    ~detail:
                      (Printf.sprintf
                         "raw peek of freed slot (freed by thread %d at %s, \
                          @@%d)"
                         s.free_thread s.free_site s.freed_stamp)
                    ~key:tv.owner;
                ]
            | _ -> [])
        | None -> [])

let[@inline] nontxn_read uid = if !on then nontxn_read_slow uid

let nontxn_write_slow uid =
  if !(Dst.Tls.get nontxn_key) > 0 then ()
  else
    guarded (fun () ->
        match find_tvar uid with
        | Some tv ->
            let locked =
              if tv.locked_by >= 0 then
                [
                  mk Non_txn_access ~tid:(-1) ~site:"(non-transactional)"
                    ~subject:(Printf.sprintf "tvar #%d" uid)
                    ~detail:
                      (Printf.sprintf
                         "raw poke while thread %d's commit holds the \
                          version lock"
                         tv.locked_by)
                    ~key:tv.owner;
                ]
              else []
            in
            let freed =
              match find_slot tv.owner with
              | Some s when not s.live ->
                  [
                    mk Use_after_free ~tid:(-1) ~site:"(non-transactional)"
                      ~subject:
                        (Printf.sprintf "tvar #%d (node #%d)" uid tv.owner)
                      ~detail:
                        (Printf.sprintf
                           "raw poke of freed slot (freed by thread %d at \
                            %s, @@%d)"
                           s.free_thread s.free_site s.freed_stamp)
                      ~key:tv.owner;
                  ]
              | _ -> []
            in
            locked @ freed
        | None -> [])

let[@inline] nontxn_write uid = if !on then nontxn_write_slow uid

(* ------------------------------------------------------------------ *)
(* Mempool hooks                                                       *)
(* ------------------------------------------------------------------ *)

let mp_alloc_slow ~thread ~node ~tvars:uids ~stamp =
  guarded (fun () ->
      let s = slot_of node in
      s.generation <- s.generation + 1;
      s.live <- true;
      s.alloc_stamp <- stamp;
      s.alloc_thread <- thread;
      s.retired <- false;
      s.revoked <- false;
      push_ev s { what = "alloc"; thread; site = "(pool)"; stamp };
      List.iter (fun uid -> (tvar_of uid).owner <- node) uids;
      [])

let[@inline] mp_alloc ~thread ~node ~tvars ~stamp =
  if !on then mp_alloc_slow ~thread ~node ~tvars ~stamp

let mp_free_slow ~thread ~site ~node ~stamp =
  guarded (fun () ->
      let s = slot_of node in
      let holders = ref [] in
      Array.iteri
        (fun i t' -> if List.mem node t'.reserved then holders := i :: !holders)
        threads;
      let reps =
        if !holders <> [] then
          [
            mk Use_after_free ~tid:thread ~site ~subject:(node_subject node)
              ~detail:
                (Printf.sprintf
                   "node freed while threads [%s] still hold unrevoked \
                    reservations on it"
                   (String.concat "; " (List.map string_of_int !holders)))
              ~key:node;
          ]
        else []
      in
      s.live <- false;
      s.freed_stamp <- stamp;
      s.free_site <- site;
      s.free_thread <- thread;
      s.retired <- false;
      push_ev s { what = "free"; thread; site; stamp };
      reps)

let[@inline] mp_free ~thread ~site ~node ~stamp =
  if !on then mp_free_slow ~thread ~site ~node ~stamp

let retire_slow ~thread ~site ~node =
  guarded (fun () ->
      match find_slot node with
      | None -> []
      | Some s ->
          if not s.live then
            [
              mk Double_revoke ~tid:thread ~site ~subject:(node_subject node)
                ~detail:
                  (Printf.sprintf
                     "retire of a node already freed (by thread %d at %s, \
                      @@%d)"
                     s.free_thread s.free_site s.freed_stamp)
                ~key:node;
            ]
          else if s.retired then
            [
              mk Double_revoke ~tid:thread ~site ~subject:(node_subject node)
                ~detail:"node retired twice without an intervening realloc"
                ~key:node;
            ]
          else begin
            s.retired <- true;
            push_ev s { what = "retire"; thread; site; stamp = s.alloc_stamp };
            []
          end)

let[@inline] retire ~thread ~site ~node =
  if !on then retire_slow ~thread ~site ~node

(* ------------------------------------------------------------------ *)
(* RR / window hooks. Protocol events are buffered with the enclosing  *)
(* transaction and applied at commit, so an abort discards them.       *)
(* ------------------------------------------------------------------ *)

let buffer ~tid p =
  Mutex.lock m;
  let th = thr tid in
  th.pending <- p :: th.pending;
  Mutex.unlock m

let[@inline] rr_reserve ~tid ~node = if !on then buffer ~tid (P_reserve node)
let[@inline] rr_release ~tid ~node = if !on then buffer ~tid (P_release node)
let[@inline] rr_release_all ~tid = if !on then buffer ~tid P_release_all

let[@inline] rr_revoke ~tid ~site ~node =
  if !on then buffer ~tid (P_revoke (node, site))

let rr_check_begin_slow ~tid =
  Mutex.lock m;
  (thr tid).in_check <- true;
  Mutex.unlock m

let[@inline] rr_check_begin ~tid = if !on then rr_check_begin_slow ~tid

let set_probe ~tid flag =
  Mutex.lock m;
  (thr tid).in_probe <- flag;
  Mutex.unlock m

let[@inline] probe_begin ~tid = if !on then set_probe ~tid true
let[@inline] probe_end ~tid = if !on then set_probe ~tid false

let rr_check_end_slow ~tid ~site ~node ~ok =
  guarded (fun () ->
      let th = thr tid in
      th.in_check <- false;
      if ok then begin
        if th.carry = node && node <> min_int then begin
          th.carry_checked <- true;
          match find_slot node with
          | Some s when not s.live ->
              th.pending <-
                P_viol
                  (mk Use_after_free ~tid ~site ~subject:(node_subject node)
                     ~detail:
                       (Printf.sprintf
                          "RR check succeeded on a freed node (freed by \
                           thread %d at %s, @@%d)"
                          s.free_thread s.free_site s.freed_stamp)
                     ~key:node)
                :: th.pending
          | Some s when s.generation <> th.carry_gen ->
              th.pending <-
                P_viol
                  (mk Use_after_free ~tid ~site ~subject:(node_subject node)
                     ~detail:
                       (Printf.sprintf
                          "carried reservation target was freed and recycled \
                           across the hand-off (generation %d -> %d; last \
                           free by thread %d at %s @@%d)"
                          th.carry_gen s.generation s.free_thread s.free_site
                          s.freed_stamp)
                     ~key:node)
                :: th.pending
          | _ -> ()
        end
      end
      else if th.carry = node then begin
        (* The check failed: the reservation is gone, the thread restarts
           from the head and is no longer carrying anything. *)
        th.carry <- min_int;
        th.carry_checked <- false
      end;
      [])

let[@inline] rr_check_end ~tid ~site ~node ~ok =
  if !on then rr_check_end_slow ~tid ~site ~node ~ok

let[@inline] hint_note ~tid ~node = if !on then buffer ~tid (P_hint node)

let hint_use_slow ~tid ~site ~node ~revalidated =
  guarded (fun () ->
      let th = thr tid in
      let fresh =
        List.exists (function P_hint k -> k = node | _ -> false) th.pending
      in
      if fresh || revalidated then []
      else
        match (List.assoc_opt node th.hints, find_slot node) with
        | Some g, Some s when (not s.live) || s.generation <> g ->
            [
              mk Unchecked_carry ~tid ~site ~subject:(node_subject node)
                ~detail:
                  (Printf.sprintf
                     "stale traversal hint dereferenced without \
                      revalidation (noted at generation %d, now %s)"
                     g
                     (if s.live then
                        Printf.sprintf "generation %d" s.generation
                      else
                        Printf.sprintf "freed by thread %d at %s @@%d"
                          s.free_thread s.free_site s.freed_stamp))
                ~key:node;
            ]
        | _ -> [])

let[@inline] hint_use ~tid ~site ~node ~revalidated =
  if !on then hint_use_slow ~tid ~site ~node ~revalidated

let window_handoff_slow ~tid =
  Mutex.lock m;
  let th = thr tid in
  th.carry <- th.last_reserved;
  th.carry_checked <- false;
  th.carry_gen <-
    (match find_slot th.carry with Some s -> s.generation | None -> -1);
  Mutex.unlock m

let[@inline] window_handoff ~tid = if !on then window_handoff_slow ~tid

let window_finish_slow ~tid =
  guarded (fun () ->
      let th = thr tid in
      let reps =
        if th.reserved <> [] then
          [
            mk Reservation_leak ~tid ~site:"?"
              ~subject:
                (Printf.sprintf "nodes [%s]"
                   (String.concat "; " (List.map string_of_int th.reserved)))
              ~detail:"operation finished with live reservations" ~key:min_int;
          ]
        else []
      in
      th.reserved <- [];
      th.carry <- min_int;
      th.carry_checked <- false;
      th.last_reserved <- min_int;
      th.hints <- [];
      reps)

let[@inline] window_finish ~tid = if !on then window_finish_slow ~tid

let thread_exit_slow ~tid =
  quiet (fun () ->
      let th = thr tid in
      let leaks = ref [] in
      if th.reserved <> [] then
        leaks :=
          Printf.sprintf "reservations [%s]"
            (String.concat "; " (List.map string_of_int th.reserved))
          :: !leaks;
      if th.hp <> [] then
        leaks :=
          Printf.sprintf "%d hazard publication(s)" (List.length th.hp)
          :: !leaks;
      if th.epochs > 0 then
        leaks :=
          Printf.sprintf "%d epoch announcement(s)" th.epochs :: !leaks;
      let reps =
        if !leaks <> [] then
          [
            mk Reservation_leak ~tid ~site:"(thread exit)"
              ~subject:(Printf.sprintf "thread %d" tid)
              ~detail:
                ("thread exited the run with live " ^ String.concat ", " !leaks)
              ~key:min_int;
          ]
        else []
      in
      threads.(if tid >= 0 && tid < Array.length threads then tid else 0) <-
        fresh_thread ();
      reps)

let[@inline] thread_exit ~tid = if !on then thread_exit_slow ~tid

(* ------------------------------------------------------------------ *)
(* Reclaim hooks                                                       *)
(* ------------------------------------------------------------------ *)

let hp_protect_slow ~group ~thread ~slot ~node =
  Mutex.lock m;
  let th = thr thread in
  th.hp <-
    ((group, slot), node)
    :: List.filter (fun (k, _) -> k <> (group, slot)) th.hp;
  Mutex.unlock m

let[@inline] hp_protect ~group ~thread ~slot ~node =
  if !on then hp_protect_slow ~group ~thread ~slot ~node

let hp_clear_slow ~group ~thread ~slot =
  Mutex.lock m;
  let th = thr thread in
  th.hp <- List.filter (fun (k, _) -> k <> (group, slot)) th.hp;
  Mutex.unlock m

let[@inline] hp_clear ~group ~thread ~slot =
  if !on then hp_clear_slow ~group ~thread ~slot

let ep_enter_slow ~thread =
  Mutex.lock m;
  let th = thr thread in
  th.epochs <- th.epochs + 1;
  Mutex.unlock m

let[@inline] ep_enter ~thread = if !on then ep_enter_slow ~thread

let ep_leave_slow ~thread =
  Mutex.lock m;
  let th = thr thread in
  if th.epochs > 0 then th.epochs <- th.epochs - 1;
  Mutex.unlock m

let[@inline] ep_leave ~thread = if !on then ep_leave_slow ~thread

(* ------------------------------------------------------------------ *)
(* Service hot-cache freshness                                         *)
(* ------------------------------------------------------------------ *)

let cache_hit_slow ~thread ~shard ~stamp ~last_write =
  if stamp < last_write then
    deliver_all
      [
        mk Stale_cache_hit ~tid:thread ~site:"service.hotcache"
          ~subject:(Printf.sprintf "shard #%d" shard)
          ~detail:
            (Printf.sprintf
               "cache hit served stamp %d but its cache slot's last \
                committed write is stamp %d (missed invalidation)"
               stamp last_write)
          ~key:min_int;
      ]

let[@inline] cache_hit ~thread ~shard ~stamp ~last_write =
  if !on then cache_hit_slow ~thread ~shard ~stamp ~last_write
