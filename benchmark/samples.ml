(* Raw per-client sample buffers with exact percentiles.

   Every latency the benchmark takes is kept as a raw value instead of a
   bucketed histogram: the telemetry histograms are 12.5% wide, wider
   than the 10% by which a latency may regress. The
   buffers live off the OCaml heap (a Bigarray), so a long run's samples
   neither show up in the measured program's heap nor add to the
   major collector's marking work. Values are clamped to int32, which
   for nanoseconds caps a single sample at 2.1 s. *)

open Bigarray

type buf = (int32, int32_elt, c_layout) Array1.t
type t = { mutable a : buf; mutable n : int }

let create () = { a = Array1.create int32 c_layout 4096; n = 0 }

let add t v =
  if t.n = Array1.dim t.a then begin
    let b = Array1.create int32 c_layout (2 * t.n) in
    Array1.blit t.a (Array1.sub b 0 t.n);
    t.a <- b
  end;
  let v = if v < 0 then 0 else if v > 0x7fff_ffff then 0x7fff_ffff else v in
  Array1.unsafe_set t.a t.n (Int32.of_int v);
  t.n <- t.n + 1

let get (a : buf) i = Int32.to_int (Array1.unsafe_get a i)

(* Hoare-partition quickselect: on return [a.(k)] holds the k-th smallest
   value of [a.(lo..hi)], everything left of it is no larger and everything
   right of it no smaller. *)
let rec select (a : buf) lo hi k =
  if lo < hi then begin
    let x = get a lo and y = get a ((lo + hi) / 2) and z = get a hi in
    let pivot = max (min x y) (min (max x y) z) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while get a !i < pivot do incr i done;
      while get a !j > pivot do decr j done;
      if !i <= !j then begin
        let s = Array1.unsafe_get a !i in
        Array1.unsafe_set a !i (Array1.unsafe_get a !j);
        Array1.unsafe_set a !j s;
        incr i;
        decr j
      end
    done;
    if k <= !j then select a lo !j k else if k >= !i then select a !i hi k
  end

(* A percentile is reported only when at least this many samples lie
   beyond it; below that, one outlier more or less moves it. *)
let min_beyond = 10

type pct = { value : int option; count : int }

(* Exact nearest-rank percentiles of the union of [ts], for [qs] given in
   thousandths (500 = p50, 990 = p99) and ascending. Each is [None] when
   fewer than [min_beyond] samples lie above its rank. *)
let percentiles ts qs =
  let n = List.fold_left (fun acc t -> acc + t.n) 0 ts in
  let a = Array1.create int32 c_layout (max n 1) in
  ignore
    (List.fold_left
       (fun off t ->
         Array1.blit (Array1.sub t.a 0 t.n) (Array1.sub a off t.n);
         off + t.n)
       0 ts);
  let lo = ref 0 in
  List.map
    (fun q ->
      let rank = ((q * n) + 999) / 1000 in
      if n = 0 || n - rank < min_beyond then { value = None; count = n }
      else begin
        let k = max 0 (rank - 1) in
        select a !lo (n - 1) k;
        lo := k;
        { value = Some (get a k); count = n }
      end)
    qs
