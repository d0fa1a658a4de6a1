module Stats = Telemetry.Counters

type abort_cause = Read_invalid | Lock_busy | Serial_pending | User_retry

exception Abort of abort_cause

(* A tvar is one block (3 words): the TL2 lock word is field 0 and the
   value is the plain mutable field [payload] next to it. The lock word
   packs three fields, [uid | version | locked], 18 | 44 | 1 bits: the
   tvar's uid sits above the version (see [tvar_id]). A plain field is
   enough for the seqlock pattern (lock, payload, lock) because OCaml's
   memory model is an interleaving one: a plain load only sees stores
   already performed, and all accesses to the lock word are totally
   ordered. A reader that sees the same unlocked word before and after its
   payload load therefore returns exactly the value published with that
   version (DESIGN.md decision 1). The [lock] field is never accessed as a
   plain field: every load, store and CAS of it goes through [lock_word]. *)
type 'a tvar = { mutable lock : int; mutable payload : 'a }

(* The record viewed as the [int Atomic.t] of its lock word. OCaml's
   [%atomic_*] primitives act on field 0 of the block they are given (the
   idiom [Pad.atomic] relies on), so this view is the lock word. It is
   also what the read set logs, so lock identity is tvar identity. *)
external lock_word : 'a tvar -> int Atomic.t = "%identity"

(* The uid occupies the bits above the version. It is set when the tvar is
   made and every store to the lock word keeps it, so any load of the word
   carries it. Uids wrap after 2^18 tvars: they are a hash (the write-set
   Bloom word and index) and a name (TxSan, abort attribution), never an
   identity, which is always [==] on the tvar. The split gives the version
   44 bits because the clock must not run out in a long-lived process
   (DESIGN.md decision 1 has the measured clock rates), and leaves the uid
   enough bits for TxSan's uid-keyed shadow state. *)
let uid_shift = 45
let version_mask = (1 lsl 44) - 1
let uid_field = -1 lsl uid_shift
let max_uid = (1 lsl (Sys.int_size - uid_shift)) - 1
let max_version = version_mask

let[@inline] locked word = word land 1 = 1
let[@inline] version word = (word lsr 1) land version_mask
let[@inline] uid_of word = word lsr uid_shift

(* The unlocked word publishing [wv] on the tvar whose word is [word]. *)
let[@inline] versioned word wv = (word land uid_field) lor (wv lsl 1)

exception Clock_exhausted

(* Every clock bump goes through here. A stamp past [max_version] would
   spill into the uid bits of the words it is published to, so the clock
   stops there instead of wrapping; it only ever grows, so every later
   bump fails too. *)
let next_stamp () =
  let wv = Gclock.advance () in
  if wv > max_version then raise Clock_exhausted;
  wv

let set_clock_for_testing = Gclock.set_for_testing

let tvar_uid = Atomic.make 0

let tvar v =
  let n = Atomic.fetch_and_add tvar_uid 1 in
  if n > max_uid then San.uid_space_exhausted true;
  { lock = n lsl uid_shift; payload = v }

let tvar_id tv = uid_of (Atomic.get (lock_word tv))

let set_next_uid_for_testing n =
  let old = Atomic.exchange tvar_uid n in
  San.uid_space_exhausted (n > max_uid + 1);
  old

(* A value whose own tvars hold it: the tvars [make] builds through [self]
   start on a placeholder and are pointed at the finished value before it
   is returned, so the placeholder is never seen outside [make]. *)
let knot make =
  let tied = ref [] in
  let self () =
    let tv = tvar (Obj.magic 0) in
    tied := tv :: !tied;
    tv
  in
  let v = make self in
  List.iter (fun tv -> tv.payload <- v) !tied;
  v

(* Write-set entry. The existential is only ever unpacked when the stored
   tvar is physically equal to the one being looked up, which implies their
   type parameters are equal, making the [Obj.magic] in [wset_find] and
   [wset_update] safe. This is the standard OCaml idiom for heterogeneous
   transaction logs (cf. kcas). *)
type wentry = W : { tv : 'a tvar; mutable v : 'a } -> wentry

type txn = {
  mutable tid : int;
  mutable rv : int;
  mutable serial : bool;
  mutable serial_wv : int;
  mutable active : bool;
  mutable r_locks : int Atomic.t array;
  mutable r_words : int array;
  mutable rn : int;
  mutable wset : wentry array;
  mutable wn : int;
  mutable wfilter : int;
      (* Bloom word over the uids in the write set: a clear bit lets
         [read] skip [wset_find] entirely — the common case, since most
         reads are of locations never written. *)
  mutable windex : int array;
      (* Open-addressed uid index over [wset] ([slot+1]; 0 = empty),
         engaged once [wn] passes [windex_threshold] so lookups stop
         being O(wn). [no_index] (physically) when disengaged. *)
  mutable defers : (unit -> unit) list;
  mutable aborts : (unit -> unit) list;
      (* [on_abort] callbacks, newest first: they run once the attempt's
         effects are gone, and never after a commit. *)
  mutable stamp : int;
  mutable read_only : bool;
  mutable must_validate : bool;
  mutable read_phase : bool;
      (* Pure-traversal hint from the operation layer: reads wait out
         locked words instead of aborting, and the attempt loop never
         escalates to the serial fallback (which would advance the global
         clock on behalf of a transaction that publishes nothing). *)
  mutable unlogged : bool;
      (* TL2's read-only mode for this speculative attempt: each read is
         validated against [rv] at its load and not logged, there is no
         timestamp extension, and a write raises. Never set in a serial
         run. *)
  stats : Stats.t;
      (* The owning thread's counter record, so deep read-path events
         (timestamp extensions) can be attributed without threading the
         thread state through every call. *)
  (* Telemetry: the site label of the enclosing [atomic] call and the uid
     of the tvar that caused the pending abort (-1 when unknown). Both are
     only written on slow paths (atomic entry, abort raise sites). *)
  mutable site : string;
  mutable conflict_uid : int;
}

type 'a result = {
  value : 'a;
  stamp : int;
  read_only : bool;
  attempts : int;
  serial : bool;
}

let dummy_lock = Atomic.make 0
let dummy_wentry = W { tv = { lock = 0; payload = 0 }; v = 0 }

let max_threads = 128
let () = assert (max_threads <= Telemetry.max_threads)

let no_site = "?"

(* Global serial token and per-thread committing flags implementing the
   Dekker-style quiescence handshake between speculative committers and the
   serial fallback. Every flag is stride-padded onto its own cache lines:
   each committer writes its flag twice per writing commit, and with the
   flags packed eight to a line those writes would invalidate the line
   under seven other committers (and under the serial fallback's quiescence
   scan). *)
let serial_token = Pad.atomic 0
let committing = Array.init max_threads (fun _ -> Pad.atomic false)
let serial_active () = Atomic.get serial_token = 1

(* Conflict aborts before the serial fallback when a top-level call
   passes no [~max_attempts]. *)
let default_max_attempts = 4

type thread_state = {
  id : int;
  txn : txn;
  backoff : Backoff.t;
  t_stats : Stats.t;
  t_slot : Telemetry.slot;
}

let no_index : int array = [||]

let fresh_txn tid stats =
  {
    tid;
    rv = 0;
    serial = false;
    serial_wv = 0;
    active = false;
    r_locks = Array.make 64 dummy_lock;
    r_words = Array.make 64 0;
    rn = 0;
    wset = Array.make 16 dummy_wentry;
    wn = 0;
    wfilter = 0;
    windex = no_index;
    defers = [];
    aborts = [];
    stamp = 0;
    read_only = true;
    must_validate = false;
    site = no_site;
    conflict_uid = -1;
    read_phase = false;
    unlogged = false;
    stats;
  }

module Thread = struct
  let max_threads = max_threads

  let pool_mutex = Mutex.create ()
  let free_ids : int list ref = ref []

  (* High-water mark of handed-out ids. Atomic (though always updated
     under [pool_mutex]) so the serial fallback can read it without the
     lock as its quiescence watermark: only ids below it can possibly
     have a committing flag set. It never decreases — released ids go to
     [free_ids], not back into the watermark. *)
  let next_id = Atomic.make 0

  let acquire_id () =
    Mutex.lock pool_mutex;
    let id =
      match !free_ids with
      | id :: rest ->
          free_ids := rest;
          id
      | [] ->
          let id = Atomic.get next_id in
          if id >= max_threads then (
            Mutex.unlock pool_mutex;
            failwith "Tm.Thread.register: thread-id space exhausted");
          Atomic.set next_id (id + 1);
          id
    in
    Mutex.unlock pool_mutex;
    id

  let release_id id =
    Mutex.lock pool_mutex;
    free_ids := id :: !free_ids;
    Mutex.unlock pool_mutex

  (* Test-only: forget released ids and rewind the watermark so ids are
     handed out deterministically from 0 again. The caller must guarantee
     no registered thread is live anywhere in the process. *)
  let reset_ids_for_testing () =
    Mutex.lock pool_mutex;
    free_ids := [];
    Atomic.set next_id 0;
    Mutex.unlock pool_mutex

  (* Logical-thread-local, not merely domain-local: under an active DST
     schedule N logical threads share one domain and each needs its own
     transaction descriptor. Outside DST this is exactly Domain.DLS. *)
  let tls_key : thread_state option Dst.Tls.key =
    Dst.Tls.new_key (fun () -> None)

  let state () =
    match Dst.Tls.get tls_key with
    | Some st -> st
    | None ->
        let id = acquire_id () in
        (* The stats and backoff records are bumped on every attempt;
           padding keeps one domain's updates from invalidating the
           cache line under a neighbouring domain's records (DLS roots
           for concurrently spawned domains are allocated together). *)
        let t_stats = Pad.copy_as_padded (Stats.create ()) in
        let st =
          { id; txn = fresh_txn id t_stats;
            backoff = Pad.copy_as_padded (Backoff.create ());
            t_stats;
            t_slot = Telemetry.slot id }
        in
        Dst.Tls.set tls_key (Some st);
        st

  let register () = (state ()).id

  let release () =
    match Dst.Tls.get tls_key with
    | None -> ()
    | Some st ->
        (* Leak check before the id can be recycled. [San.thread_exit]
           never raises (this runs in [Fun.protect] finalizers). *)
        San.thread_exit ~tid:st.id;
        Dst.Tls.set tls_key None;
        release_id st.id

  let with_registered f =
    let id = register () in
    Fun.protect ~finally:release (fun () -> f id)

  let id () = register ()
  let stats () = (state ()).t_stats
end

(* ---- read/write sets ---- *)

(* One Fibonacci-hashed bit per uid in the 63-bit Bloom word over the
   write set. No false negatives: every logged uid has
   its bit set, so a clear bit proves absence without touching the log.
   This runs on every [read], so the 6-bit slice of the product is range-
   reduced to 0..62 with a multiply-shift — a [mod] here would cost a
   hardware division per read. (Bit 62 is the sign bit; as a pure mask
   bit that is fine.) *)
let[@inline] filter_bit uid =
  let h = (uid * 0x9e3779b1) lsr 26 in
  1 lsl (((h land 63) * 63) lsr 6)

let[@inline] uid_hash uid = uid * 0x9e3779b1

(* Write sets up to this size are scanned linearly (they fit in a cache
   line or two); past it, [windex] takes over. *)
let windex_threshold = 8

(* The logged word carries the tvar's uid, so the read set needs no uid
   array of its own. *)
let[@inline] rset_push txn lock word =
  if txn.rn = Array.length txn.r_locks then begin
    let n = 2 * txn.rn in
    let locks = Array.make n dummy_lock and words = Array.make n 0 in
    Array.blit txn.r_locks 0 locks 0 txn.rn;
    Array.blit txn.r_words 0 words 0 txn.rn;
    txn.r_locks <- locks;
    txn.r_words <- words
  end;
  txn.r_locks.(txn.rn) <- lock;
  txn.r_words.(txn.rn) <- word;
  txn.rn <- txn.rn + 1

(* Slot of [tv] (whose uid is [uid]) in the write set, or -1. The index
   probe compares identities just like the linear scan, so a uid shared
   with another tvar only lengthens the chain; a chain ends at the first
   empty index slot (the table keeps load factor <= 1/2, so probes
   terminate). *)
let wset_slot : type a. txn -> a tvar -> int -> int =
 fun txn tv uid ->
  if txn.windex != no_index then begin
    let idx = txn.windex in
    let mask = Array.length idx - 1 in
    let rec probe i =
      match idx.(i) with
      | 0 -> -1
      | s ->
          let (W e) = txn.wset.(s - 1) in
          if Obj.repr e.tv == Obj.repr tv then s - 1
          else probe ((i + 1) land mask)
    in
    probe (uid_hash uid land mask)
  end
  else
    let rec go i =
      if i >= txn.wn then -1
      else
        let (W e) = txn.wset.(i) in
        if Obj.repr e.tv == Obj.repr tv then i else go (i + 1)
    in
    go 0

let wset_find : type a. txn -> a tvar -> int -> a option =
 fun txn tv uid ->
  match wset_slot txn tv uid with
  | -1 -> None
  | s ->
      let (W e) = txn.wset.(s) in
      Some (Obj.magic e.v)

let windex_add idx uid slot =
  let mask = Array.length idx - 1 in
  let i = ref (uid_hash uid land mask) in
  while idx.(!i) <> 0 do
    i := (!i + 1) land mask
  done;
  idx.(!i) <- slot + 1

(* (Re)build the index over the first [wn] entries, sized to keep the load
   factor at or below 1/4 so probe chains stay short. *)
let windex_rebuild txn =
  let cap = ref 32 in
  while !cap < 4 * txn.wn do
    cap := !cap * 2
  done;
  let idx = Array.make !cap 0 in
  for s = 0 to txn.wn - 1 do
    let (W e) = txn.wset.(s) in
    windex_add idx (tvar_id e.tv) s
  done;
  txn.windex <- idx

let wset_put : type a. txn -> a tvar -> int -> a -> unit =
 fun txn tv uid v ->
  let s = wset_slot txn tv uid in
  if s >= 0 then
    let (W e) = txn.wset.(s) in
    e.v <- Obj.magic v
  else begin
    if txn.wn = Array.length txn.wset then begin
      let arr = Array.make (2 * txn.wn) dummy_wentry in
      Array.blit txn.wset 0 arr 0 txn.wn;
      txn.wset <- arr
    end;
    txn.wset.(txn.wn) <- W { tv; v };
    txn.wfilter <- txn.wfilter lor filter_bit uid;
    if txn.windex != no_index then
      if 2 * (txn.wn + 1) > Array.length txn.windex then begin
        txn.wn <- txn.wn + 1;
        windex_rebuild txn
      end
      else begin
        windex_add txn.windex uid txn.wn;
        txn.wn <- txn.wn + 1
      end
    else begin
      txn.wn <- txn.wn + 1;
      if txn.wn > windex_threshold then windex_rebuild txn
    end
  end

(* Whether [lock] belongs to a tvar in the write set — i.e. a lock the
   committing transaction itself holds. [uid] is the uid in the read-set
   entry's logged word, letting the lookup reuse the read path's Bloom
   filter and uid index so commit validation stays O(rn) instead of
   O(rn * wn) for large write sets. Uids wrap, so two tvars in the write
   set may share one: the probe matches on lock identity and walks past
   an entry whose uid merely collides. *)
let wset_holds_lock txn lock uid =
  txn.wfilter land filter_bit uid <> 0
  &&
  if txn.windex != no_index then begin
    let idx = txn.windex in
    let mask = Array.length idx - 1 in
    let rec probe i =
      match idx.(i) with
      | 0 -> false
      | s ->
          let (W e) = txn.wset.(s - 1) in
          lock_word e.tv == lock || probe ((i + 1) land mask)
    in
    probe (uid_hash uid land mask)
  end
  else
    let rec go i =
      if i >= txn.wn then false
      else
        let (W e) = txn.wset.(i) in
        lock_word e.tv == lock || go (i + 1)
    in
    go 0

(* Clear stored references so the GC can collect dead tvars. *)
let clear_wset txn =
  for i = 0 to txn.wn - 1 do
    txn.wset.(i) <- dummy_wentry
  done;
  txn.wn <- 0;
  txn.wfilter <- 0;
  (* Drop (rather than zero) the index: most transactions never engage it,
     and the next large one rebuilds at the right size anyway. *)
  if txn.windex != no_index then txn.windex <- no_index

(* Runs after every attempt, so it stores only what the attempt changed:
   a pointer store is a [caml_modify] call even when it writes [[]], and
   an unlogged window leaves all three untouched (DESIGN.md decision 17).
   An empty write set has a clear filter and no index ([wset_put] sets
   both only as it adds an entry). *)
let reset_logs txn =
  for i = 0 to txn.rn - 1 do
    txn.r_locks.(i) <- dummy_lock
  done;
  txn.rn <- 0;
  if txn.wn > 0 then clear_wset txn;
  if txn.defers != [] then txn.defers <- [];
  if txn.aborts != [] then txn.aborts <- [];
  txn.read_only <- true;
  txn.must_validate <- false

(* ---- transactional operations ---- *)

(* Whether entry [i] of the read set already logs [lock]. A same-lock
   entry with a {e different} word is impossible for a live transaction —
   any commit that changed the word after it was first logged carries
   [wv > rv] and would have failed this read's version check — so it is
   treated as the inconsistency it would be and aborts. *)
let[@inline] rset_dup_at txn i lock word =
  i >= 0
  && txn.r_locks.(i) == lock
  && (txn.r_words.(i) = word
     ||
     (txn.conflict_uid <- uid_of word;
      raise (Abort Read_invalid)))

(* ---- timestamp extension (TinySTM/LSA-style) ----

   A read that observes [version l1 > txn.rv] is not necessarily doomed:
   if every location already in the read set still carries exactly its
   logged lock word, the snapshot taken so far is also consistent at the
   current clock value, so [rv] can be extended and the read re-executed
   instead of aborting. The serial-token re-check mirrors [sample_rv]'s
   straddle closure: observing the token clear {e after} sampling proves
   every serial transaction with [wv_s <= new_rv] has fully finished, so
   none of its in-flight direct writes can be mistaken for state that is
   consistent at [new_rv]. *)
let try_extend txn =
  if Dst.point_fails Dst.Tm_extend then false
  else begin
    let new_rv = Gclock.sample () in
    if serial_active () then false
    else begin
      Dst.point Dst.Tm_validate;
      let rec intact i =
        i >= txn.rn
        || (Atomic.get txn.r_locks.(i) = txn.r_words.(i) && intact (i + 1))
      in
      intact 0
      && begin
           txn.rv <- new_rv;
           Stats.incr_extensions txn.stats;
           true
         end
    end
  end

(* The uncached read loop lives at top level (not as an inner [let rec])
   so the hot path stays allocation-free: an inner recursive closure
   capturing [txn]/[tv] would cost one minor-heap block per read, and at
   multiple domains that allocation rate turns into stop-the-world minor
   collections. [l1] is the lock word as [read] loaded it for its Bloom
   test: the first load of the seqlock pair. *)
let rec read_uncached : 'a. txn -> 'a tvar -> int -> 'a =
  fun (type a) (txn : txn) (tv : a tvar) (l1 : int) : a ->
   if locked l1 then
     if txn.read_phase then begin
       (* Committers never spin while holding locks, so the writeback
          section is bounded: a pure traversal waits it out rather than
          paying an abort. Under DST the holder is a paused logical
          thread; yield to it. *)
       Dst.point Dst.Tm_read;
       Domain.cpu_relax ();
       read_uncached txn tv (Atomic.get (lock_word tv))
     end
     else begin
       txn.conflict_uid <- uid_of l1;
       raise (Abort Lock_busy)
     end
   else begin
     let v = tv.payload in
     let l2 = Atomic.get (lock_word tv) in
     if l1 <> l2 then
       (* A committer's writeback raced the seqlock pair; the word has
          settled into either locked or a newer version, both handled
          above on re-read. *)
       read_uncached txn tv l2
     else if version l1 > txn.rv then
       (* An unlogged attempt has no read set to revalidate, so a stale
          read aborts and the attempt retries at a fresh [rv]. *)
       if (not txn.unlogged) && try_extend txn then
         read_uncached txn tv (Atomic.get (lock_word tv))
       else begin
         txn.conflict_uid <- uid_of l1;
         if not txn.unlogged then Stats.incr_ext_fails txn.stats;
         raise (Abort Read_invalid)
       end
     else begin
       (* Dedup: a hand-over-hand operation re-reads locations it logged
          moments ago — the traversal's (prev, curr) pair, a node's
          fields around an unlink — so when a read is a duplicate, the
          earlier entry sits at the tail of the read set. Checking the
          two newest entries catches these patterns for the cost of two
          physical-equality tests; a duplicate that escapes the bound is
          pushed again, which is benign, since commit-time validation is
          per-location. (An exact Bloom-filtered dedup was measurably
          slower: its per-read hash-and-test overhead outweighed the
          saved entries on every single-domain configuration.) *)
       if not txn.unlogged then begin
         let lock = lock_word tv in
         if
           not
             (rset_dup_at txn (txn.rn - 1) lock l1
             || rset_dup_at txn (txn.rn - 2) lock l1)
         then rset_push txn lock l1
       end;
       (* The read has validated against [rv]; TxSan checks it against the
          slot's free/reservation shadow at exactly this point, so doomed
          reads that version checks already rejected are never reported. *)
       San.tm_read ~tid:txn.tid ~site:txn.site ~rv:txn.rv (uid_of l1);
       v
     end
   end

let read (txn : txn) tv =
  if txn.serial then begin
    let v = tv.payload in
    San.tm_read ~tid:txn.tid ~site:txn.site ~rv:txn.rv (tvar_id tv);
    v
  end
  else begin
    if Dst.point_fails Dst.Tm_read then begin
      txn.conflict_uid <- tvar_id tv;
      raise (Abort Read_invalid)
    end;
    let l1 = Atomic.get (lock_word tv) in
    let uid = uid_of l1 in
    (* The filter has no false negatives, so a clear bit skips the
       write-set lookup outright — the common case for a traversal, whose
       reads vastly outnumber its writes. *)
    if txn.wfilter land filter_bit uid = 0 then read_uncached txn tv l1
    else
      match wset_find txn tv uid with
      | Some v -> v
      | None -> read_uncached txn tv l1
  end

(* A serial run writes in place and never uses the write set, so the write
   set doubles as its undo log of (tvar, old payload): the run's first
   write to a tvar records the payload the tvar had before the run, and
   later writes to it record nothing. A run that rewrites a few tvars many
   times (a scan's window reservations) keeps a log of a few entries. *)
let undo_push txn tv uid =
  if txn.wfilter land filter_bit uid = 0 || wset_slot txn tv uid < 0 then
    wset_put txn tv uid tv.payload

(* Undo a serial run that raised, before its token is released. Each
   restore is published like a serial write, with the run's own stamp:
   every speculative snapshot that could still read the tvar predates that
   stamp and aborts on it, and every later one sees the old payload. *)
let serial_undo txn =
  for i = txn.wn - 1 downto 0 do
    let (W e) = txn.wset.(i) in
    let word = Atomic.get (lock_word e.tv) in
    Atomic.set (lock_word e.tv) (word lor 1);
    e.tv.payload <- e.v;
    Atomic.set (lock_word e.tv) word
  done

let write (txn : txn) tv v =
  if txn.unlogged then invalid_arg "Tm.write: unlogged attempt";
  txn.read_only <- false;
  if txn.serial then begin
    (* Irrevocable direct publication: mark locked, write, release with the
       serial stamp so concurrent speculative readers abort rather than
       pairing the new value with an old version. The old payload goes to
       the undo log first (see [serial_undo]). *)
    Dst.point Dst.Tm_serial_write;
    let word = Atomic.get (lock_word tv) in
    San.tm_serial_write ~tid:txn.tid ~site:txn.site ~wv:txn.serial_wv
      (uid_of word);
    undo_push txn tv (uid_of word);
    let released = versioned word txn.serial_wv in
    Atomic.set (lock_word tv) (released lor 1);
    tv.payload <- v;
    Atomic.set (lock_word tv) released
  end
  else begin
    let uid = tvar_id tv in
    San.tm_write ~tid:txn.tid ~site:txn.site ~rv:txn.rv uid;
    wset_put txn tv uid v
  end

let retry (txn : txn) =
  if txn.serial then failwith "Tm.retry: serial transactions are irrevocable";
  raise (Abort User_retry)

let defer (txn : txn) f = txn.defers <- f :: txn.defers
let on_abort (txn : txn) f = txn.aborts <- f :: txn.aborts

let assign txn r v =
  let old = !r in
  r := v;
  on_abort txn (fun () -> r := old)

(* Run an abandoned or aborted attempt's [on_abort] callbacks, newest
   first, after its effects are gone. [reset_logs] drops the list, so take
   it before. *)
let run_aborts fs = List.iter (fun f -> f ()) fs

let validate_on_commit (txn : txn) =
  if txn.unlogged then invalid_arg "Tm.validate_on_commit: unlogged attempt";
  txn.must_validate <- true

let thread_id (txn : txn) = txn.tid
let is_serial (txn : txn) = txn.serial
let is_unlogged (txn : txn) = txn.unlogged
let commit_stamp (txn : txn) = txn.stamp

let run_defers (txn : txn) =
  match txn.defers with
  | [] -> ()
  | ds ->
      txn.defers <- [];
      List.iter (fun f -> f ()) (List.rev ds)

(* ---- commit ---- *)

let unlock_first_n txn n =
  for i = 0 to n - 1 do
    let (W e) = txn.wset.(i) in
    let cur = Atomic.get (lock_word e.tv) in
    Atomic.set (lock_word e.tv) (cur land lnot 1);
    San.tm_unlock ~tid:txn.tid ~site:txn.site ~wv:(-1) (uid_of cur)
  done

let commit (txn : txn) =
  if txn.wn = 0 then begin
    (* A read-only snapshot at [rv] is always consistent, but a transaction
       whose side effects must be ordered before later conflicting commits
       (hazard publication) re-validates: if any location it read has been
       overwritten or locked since, the publication may have come too late
       to be seen, so abort. *)
    if txn.must_validate then begin
      Dst.point Dst.Tm_validate;
      for i = 0 to txn.rn - 1 do
        if Atomic.get txn.r_locks.(i) <> txn.r_words.(i) then begin
          txn.conflict_uid <- uid_of txn.r_words.(i);
          raise (Abort Read_invalid)
        end
      done
    end;
    txn.stamp <- txn.rv;
    (* [now] is a fresh clock sample: a read-only commit has no write
       version, but TxSan's publication checks (TMHP, EBR) need to know
       what "had already happened" when the publication became visible.
       An RR reservation is judged at the commit's place, [rv]. *)
    if San.enabled () then
      San.tm_commit ~tid:txn.tid ~site:txn.site ~rv:txn.rv ~stamp:txn.rv
        ~now:(Gclock.sample ());
    run_defers txn
  end
  else begin
    if Dst.point_fails Dst.Tm_commit then begin
      txn.conflict_uid <- -1;
      raise (Abort Lock_busy)
    end;
    let flag = committing.(txn.tid) in
    Atomic.set flag true;
    (* The committing flag must not survive an abandoned logical thread
       (DST kills a paused commit by raising at a yield point): the abort
       paths below clear it themselves before raising [Abort], and any
       other exception clears it here. *)
    try
      if serial_active () then begin
        Atomic.set flag false;
        txn.conflict_uid <- -1;
        raise (Abort Serial_pending)
      end;
      (* Lock the write set; abort immediately on any busy lock (no
         spinning, so lock acquisition cannot deadlock). *)
      let rec lock_from i =
        if i < txn.wn then begin
          Dst.point Dst.Tm_lock;
          let (W e) = txn.wset.(i) in
          let l = Atomic.get (lock_word e.tv) in
          if locked l || not (Atomic.compare_and_set (lock_word e.tv) l (l lor 1))
          then begin
            unlock_first_n txn i;
            Atomic.set flag false;
            txn.conflict_uid <- uid_of l;
            raise (Abort Lock_busy)
          end;
          San.tm_lock ~tid:txn.tid (uid_of l);
          lock_from (i + 1)
        end
      in
      lock_from 0;
      Dst.point Dst.Tm_gclock;
      let wv =
        match next_stamp () with
        | wv -> wv
        | exception (Clock_exhausted as e) ->
            unlock_first_n txn txn.wn;
            Atomic.set flag false;
            raise e
      in
      (* If no other transaction committed since we began, the read set is
         trivially valid (standard TL2 optimization). *)
      if wv <> txn.rv + 1 then begin
        Dst.point Dst.Tm_validate;
        let rec validate i =
          if i < txn.rn then begin
            let lock = txn.r_locks.(i) and word = txn.r_words.(i) in
            let cur = Atomic.get lock in
            let ok =
              cur = word
              || (cur = word lor 1 && wset_holds_lock txn lock (uid_of word))
            in
            if not ok then begin
              unlock_first_n txn txn.wn;
              Atomic.set flag false;
              txn.conflict_uid <- uid_of word;
              raise (Abort Read_invalid)
            end;
            validate (i + 1)
          end
        in
        validate 0
      end;
      for i = 0 to txn.wn - 1 do
        Dst.point Dst.Tm_publish;
        let (W e) = txn.wset.(i) in
        e.tv.payload <- e.v
      done;
      Dst.point Dst.Tm_publish;
      for i = 0 to txn.wn - 1 do
        let (W e) = txn.wset.(i) in
        let held = Atomic.get (lock_word e.tv) in
        Atomic.set (lock_word e.tv) (versioned held wv);
        San.tm_unlock ~tid:txn.tid ~site:txn.site ~wv (uid_of held)
      done;
      Atomic.set flag false;
      txn.stamp <- wv;
      San.tm_commit ~tid:txn.tid ~site:txn.site ~rv:txn.rv ~stamp:wv ~now:wv;
      run_defers txn
    with
    | Abort _ as e -> raise e
    | e ->
        Atomic.set flag false;
        raise e
  end

(* ---- serial fallback ---- *)

let serial_token_acquire () =
  let b = Backoff.create () in
  while not (Atomic.compare_and_set serial_token 0 1) do
    (* The current holder runs a whole irrevocable transaction. *)
    if Dst.scheduled () then Dst.point Dst.Tm_serial_token
    else Backoff.once ~hint:Backoff.Long b
  done

(* Quiesce in-flight speculative committers. Only ids below the
   registration watermark can have a committing flag set: ids are handed
   out by bumping [Thread.next_id] before the owning domain's first
   commit, and a registration racing this read sets its flag only after
   the token (already 1, sequentially consistent) is visible, so that
   committer sees the token and aborts with [Serial_pending] instead.
   Scanning the watermark rather than all [max_threads] slots keeps the
   fallback's entry cost proportional to the threads that exist. *)
let serial_quiesce () =
  let live = Atomic.get Thread.next_id in
  for i = 0 to live - 1 do
    while Atomic.get committing.(i) do
      Dst.point Dst.Tm_serial_quiesce;
      Domain.cpu_relax ()
    done
  done

let serial_release () = Atomic.set serial_token 0

let serial_run st f =
  let txn = st.txn in
  (* Quiescence runs under the same protection as the body: if this
     logical thread is abandoned while waiting out an in-flight committer,
     the token must still be released. No yield point sits between the
     winning CAS and the protect, so the token cannot leak. *)
  serial_token_acquire ();
  Fun.protect ~finally:serial_release (fun () ->
      serial_quiesce ();
      Dst.point Dst.Tm_gclock;
      txn.serial_wv <- next_stamp ();
      txn.serial <- true;
      txn.unlogged <- false;
      San.tm_serial_begin ~tid:txn.tid ~wv:txn.serial_wv;
      San.tm_begin ~tid:txn.tid;
      txn.active <- true;
      txn.rv <- txn.serial_wv;
      txn.defers <- [];
      txn.read_only <- true;
      let finish v =
        txn.stamp <- txn.serial_wv;
        San.tm_commit ~tid:txn.tid ~site:txn.site ~rv:txn.serial_wv
          ~stamp:txn.serial_wv ~now:txn.serial_wv;
        clear_wset txn;
        txn.aborts <- [];
        run_defers txn;
        txn.active <- false;
        txn.serial <- false;
        San.tm_serial_end ~tid:txn.tid;
        v
      in
      match f txn with
      | v -> finish v
      | exception e ->
          (* Failure atomicity: the run's direct writes are rolled back
             while the token still excludes every other transaction. *)
          serial_undo txn;
          clear_wset txn;
          let aborts = txn.aborts in
          txn.aborts <- [];
          txn.defers <- [];
          txn.active <- false;
          txn.serial <- false;
          San.tm_serial_end ~tid:txn.tid;
          San.tm_abandon ~tid:txn.tid;
          run_aborts aborts;
          raise e)

(* ---- the atomic runner ---- *)

let wait_serial_clear () =
  while serial_active () do
    Dst.point Dst.Tm_wait_serial;
    Domain.cpu_relax ()
  done

(* Sample a read version that cannot straddle a serial transaction. A
   serial transaction advances the clock to [wv_s] {e before} performing
   its direct writes; a speculative transaction that sampled [rv >= wv_s]
   while those writes were still in flight could read pre-serial values and
   wrongly attribute them to stamp [rv]. Observing the serial token clear
   {e after} sampling proves every serial transaction with [wv_s <= rv]
   has fully finished (the token is held from before the clock bump until
   after the last write), so the snapshot at [rv] is well-defined; later
   serial transactions get [wv_s > rv] and are caught by version checks. *)
let rec sample_rv () =
  wait_serial_clear ();
  Dst.point Dst.Tm_sample_rv;
  let rv = Gclock.sample () in
  (* Dst.Inject bug #1: dropping the re-check re-opens the serial-straddle
     window this function exists to close (see DESIGN.md). *)
  if serial_active () && not (Dst.Inject.bug Dst.Inject.Snapshot_straddle) then
    sample_rv ()
  else rv

let cause_label = function
  | Read_invalid -> "read_invalid"
  | Lock_busy -> "lock_busy"
  | Serial_pending -> "serial_pending"
  | User_retry -> "user_retry"

let atomic_stamped ~site ?max_attempts ?(read_phase = false)
    ?(unlogged = false) f =
  let st = Thread.state () in
  let txn = st.txn in
  if txn.active then
    (* Flat nesting: run inside the enclosing transaction. The enclosing
       atomic's site label stays in force for attribution. *)
    let v = f txn in
    { value = v; stamp = txn.stamp; read_only = txn.read_only;
      attempts = 0; serial = txn.serial }
  else begin
    let max_attempts =
      Option.value max_attempts ~default:default_max_attempts
    in
    let stats = st.t_stats in
    (* Sample the switch once per operation: a concurrent toggle mid-run
       costs at worst one mis-attributed operation, and the hot path pays a
       single immutable-bool test per attempt instead of an Atomic.get. *)
    let tele = Telemetry.enabled () in
    let slot = st.t_slot in
    if tele || San.enabled () then txn.site <- site;
    txn.read_phase <- read_phase;
    let op_start = if tele then Telemetry.now_ns () else 0 in
    Backoff.reset st.backoff;
    let rec attempt n total =
      (* A read-phase transaction never escalates: the serial fallback
         advances the global clock (and blocks every speculative
         committer) on behalf of a window that publishes nothing. Its
         aborts all imply another transaction made progress, so unbounded
         speculative retry is abort-free livelock-safe. *)
      if n >= max_attempts && not read_phase then begin
        Stats.incr_fallbacks stats;
        Stats.incr_started stats;
        let t0 = if tele then Telemetry.now_ns () else 0 in
        let v = serial_run st f in
        Stats.incr_commits stats;
        if tele then begin
          let now = Telemetry.now_ns () in
          Telemetry.Histogram.record slot.serial (now - t0);
          Telemetry.Histogram.record slot.attempts (now - t0);
          Telemetry.Histogram.record slot.ops (now - op_start)
        end;
        { value = v; stamp = txn.stamp; read_only = txn.read_only;
          attempts = total + 1; serial = true }
      end
      else begin
        txn.rv <- sample_rv ();
        txn.unlogged <- unlogged;
        txn.active <- true;
        San.tm_begin ~tid:txn.tid;
        Stats.incr_started stats;
        let t0 = if tele then Telemetry.now_ns () else 0 in
        match
          let v = f txn in
          commit txn;
          v
        with
        | v ->
            txn.active <- false;
            let read_only = txn.read_only in
            reset_logs txn;
            Stats.incr_commits stats;
            if tele then begin
              let now = Telemetry.now_ns () in
              Telemetry.Histogram.record slot.attempts (now - t0);
              Telemetry.Histogram.record slot.ops (now - op_start)
            end;
            { value = v; stamp = txn.stamp; read_only;
              attempts = total + 1; serial = false }
        | exception Abort cause ->
            txn.active <- false;
            let aborts = txn.aborts in
            reset_logs txn;
            San.tm_abort ~tid:txn.tid;
            run_aborts aborts;
            if tele then begin
              Telemetry.Histogram.record slot.attempts
                (Telemetry.now_ns () - t0);
              Telemetry.Attribution.record slot.attr ~site:txn.site
                ~cause:(cause_label cause) ~uid:txn.conflict_uid
            end;
            txn.conflict_uid <- -1;
            let next, hint =
              match cause with
              | Read_invalid ->
                  Stats.incr_aborts_read stats;
                  (n + 1, Backoff.Normal)
              | Lock_busy ->
                  (* The lock clears as soon as the holder finishes its
                     writeback; a full exponential wait would outlive it. *)
                  Stats.incr_aborts_lock stats;
                  (n + 1, Backoff.Short)
              | Serial_pending ->
                  (* The serial transaction holds the token for its whole
                     run; retry eagerly and it aborts again. *)
                  Stats.incr_aborts_serial stats;
                  (n + 1, Backoff.Long)
              | User_retry ->
                  Stats.incr_aborts_user stats;
                  (* Explicit retries wait for state to change; they do not
                     escalate to the (irrevocable) serial mode. *)
                  (n, Backoff.Normal)
            in
            (* Under DST the backoff spin is dead time with no scheduling
               value; a yield gives the explorer the same decision point. *)
            if Dst.scheduled () then Dst.point Dst.Tm_backoff
            else Backoff.once ~hint st.backoff;
            attempt next (total + 1)
        | exception e ->
            txn.active <- false;
            let aborts = txn.aborts in
            reset_logs txn;
            San.tm_abandon ~tid:txn.tid;
            run_aborts aborts;
            raise e
      end
    in
    attempt 0 0
  end

let atomic ~site ?max_attempts ?read_phase ?unlogged f =
  (atomic_stamped ~site ?max_attempts ?read_phase ?unlogged f).value

let current_txn () =
  match Dst.Tls.get Thread.tls_key with
  | Some st when st.txn.active -> Some st.txn
  | _ -> None

let peek tv =
  let rec go () =
    let l1 = Atomic.get (lock_word tv) in
    if locked l1 then begin
      (* Under DST the lock holder is a paused logical thread; yield so it
         can finish instead of spinning this domain forever. *)
      Dst.point Dst.Tm_read;
      Domain.cpu_relax ();
      go ()
    end
    else
      let v = tv.payload in
      let l2 = Atomic.get (lock_word tv) in
      if l1 <> l2 then go ()
      else begin
        San.nontxn_read (uid_of l1);
        v
      end
  in
  go ()

let poke tv v =
  let word = Atomic.get (lock_word tv) in
  San.nontxn_write (uid_of word);
  let released = versioned word (next_stamp ()) in
  Atomic.set (lock_word tv) (released lor 1);
  tv.payload <- v;
  Atomic.set (lock_word tv) released

let clock () = Gclock.sample ()
let txn_site (txn : txn) = txn.site

let current_site () =
  match Dst.Tls.get Thread.tls_key with
  | Some st when st.txn.active -> st.txn.site
  | _ -> no_site

(* White-box hooks for the read/write-set tests. *)
let reads_logged (txn : txn) = txn.rn
let writes_logged (txn : txn) = txn.wn
