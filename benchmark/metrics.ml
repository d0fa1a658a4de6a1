(* The metrics the benchmark reports, by name and unit.

   Only [End_to_end] metrics carry a regression bound: they repeat within
   it on this host. The other end-to-end measures (throughput and request
   latencies, which follow the host's speed, and the heap peak, which
   follows the collector's timing) drift by more than any allowed bound,
   so BENCHMARK.json declares them per-layer: they are
   reported with the per-layer metrics, but still from the untraced run.
   Every workload emits every metric of its run's kind: a layer a workload
   does not exercise reads 0 in the result JSON (and [null] on its text
   line), as does a percentile with fewer than ten samples beyond it.
   BENCHMARK.json declares the same names and units, plus each metric's
   direction and bound; benchmark/README.md gives each one's layer and the
   end-to-end metric it should move. *)

type scope =
  | End_to_end  (** bounded; from the untraced run *)
  | Unbounded  (** end-to-end in kind, declared per-layer; from the untraced run *)
  | Per_layer  (** from the traced run *)

type t = { name : string; unit_ : string; scope : scope }

let e name unit_ = { name; unit_; scope = End_to_end }
let u name unit_ = { name; unit_; scope = Unbounded }
let l name unit_ = { name; unit_; scope = Per_layer }

let all =
  [
    e "setup_s" "s";
    e "live_heap_mb" "MB";
    u "peak_heap_mb" "MB";
    u "throughput_rps" "req/s";
    u "get_p50_us" "us";
    u "get_p99_us" "us";
    u "write_p50_us" "us";
    u "write_p99_us" "us";
    u "multi_p99_us" "us";
    u "scan_p99_us" "us";
    l "load.client_self_us_p50" "us";
    l "service.submit_us_p50" "us";
    l "service.submit_us_p99" "us";
    l "service.await_us_p50" "us";
    l "service.await_us_p99" "us";
    l "service.multi_us_p50" "us";
    l "service.multi_us_p99" "us";
    l "service.multi_abort_ratio" "ratio";
    l "pool.requests_per_batch" "count";
    l "pool.batches_per_s" "1/s";
    l "pool.queue_depth_p50" "count";
    l "pool.queue_depth_p99" "count";
    l "hotcache.hit_ratio" "ratio";
    l "hotcache.invalidations_per_write" "count";
    l "hotcache.hit_submit_us_p50" "us";
    l "tm.attempts_per_commit" "count";
    l "tm.commits_per_request" "count";
    l "tm.aborts_read_per_kcommit" "count";
    l "tm.aborts_lock_per_kcommit" "count";
    l "tm.serial_per_krequest" "count";
    l "tm.serial_us_p50" "us";
    l "tm.serial_us_p99" "us";
    l "tm.attempt_us_p50" "us";
    l "tm.attempt_us_p99" "us";
    l "rr.revokes_per_write" "count";
    l "rr.get_miss_ratio" "ratio";
    l "mempool.allocs_per_write" "count";
    l "mempool.global_ops_ratio" "ratio";
    l "mempool.high_water" "count";
    l "reclaim.leaked" "count";
    l "trace.overhead_ratio" "ratio";
  ]

let of_scope s = List.filter (fun m -> m.scope = s) all
