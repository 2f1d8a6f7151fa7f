(* What the benchmark measures: its workloads and metrics, with units,
   directions and regression bounds.  BENCHMARK.json at the repository
   root states the same table; a test keeps the two equal. *)

type better = Higher | Lower

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float option;
      (* end-to-end only: the share of the parent's median by which the
         change's median may be worse before it counts as a regression *)
}

let workloads =
  [
    ( "steady-hot",
      "8 hot kernels on sse after 8 compiles: all cache hits, execution \
       (simulate + layout) dominates wall time" );
    ( "compile-churn",
      "37 kernels on a 7-target fleet over a 16-entry cache: ~76% of events \
       recompile, JIT stages dominate" );
    ( "restart-warm",
      "compile-churn served from a persistent store filled in set-up: the \
       same misses cost a store probe and decode, zero real compiles" );
    ( "durable-burst",
      "16 streams flooded at t=0 with batching, an on-disk journal, \
       checkpoints and 8 shard kills: the serving layer's own code" );
  ]

let e2e name unit better bound = { name; unit; better; bound = Some bound }
let layer name unit better = { name; unit; better; bound = None }

(* events_per_s is the closed-loop figure of merit; the latency pair
   comes from a separate one-event-at-a-time pass.  The wall-clock
   bounds come from ten seeded runs per workload on a 2-vCPU Intel Xeon
   VM (README.md gives the figures).  In quiet stretches the quartile
   spread reached 9%, and the medians of two such sets of one commit,
   run back to back, differed by up to 21% in events_per_s
   (restart-warm) and 18% in event_us_p50, so tighter bounds flag an
   unchanged commit.  A comparison made while neighbours slow the
   machine has a parent spread wider than the bound and comes out
   unresolved.  setup_s has the widest bound: a set-up is short and
   starts cold, so it moves most with the machine.
   modeled_cycles_per_event is deterministic for a seed and varies by
   0.04% across seeds.  success_rate is 1 at every seed; its bound trips
   on a single failure in a million arrivals. *)
let end_to_end =
  [
    e2e "events_per_s" "events/s" Higher 0.24;
    e2e "event_us_p50" "us" Lower 0.20;
    e2e "event_us_p99" "us" Lower 0.20;
    e2e "modeled_cycles_per_event" "cycles" Lower 0.01;
    e2e "setup_s" "s" Lower 0.25;
    e2e "peak_rss_mb" "MiB" Lower 0.15;
    e2e "success_rate" "ratio" Higher 0.000001;
  ]

(* Span self times are shares of the traced run's wall time
   ([trace.wall_ms]), so a layer a workload never enters reads 0 rather
   than a constant zero duration. *)
let per_layer =
  [
    layer "vectorizer.vectorize_ms" "ms" Lower;
    layer "vectorizer.loops_vectorized" "count" Higher;
    layer "vecir.bytecode_bytes" "bytes" Lower;
    layer "vecir.codec_us" "us" Lower;
    layer "vecir.slot_compile_share" "share" Lower;
    layer "vecir.slot_hit_rate" "ratio" Higher;
    layer "jit.lower_share" "share" Lower;
    layer "jit.emit_share" "share" Lower;
    layer "jit.regalloc_share" "share" Lower;
    layer "jit.prepare_share" "share" Lower;
    layer "jit.compiles" "count" Lower;
    layer "jit.real_compiles" "count" Lower;
    layer "jit.code_bytes" "bytes" Lower;
    layer "machine.simulate_share" "share" Lower;
    layer "machine.layout_share" "share" Lower;
    layer "machine.simulate_ns_per_run" "ns" Lower;
    layer "runtime.cache_hit_rate" "ratio" Higher;
    layer "runtime.evictions" "count" Lower;
    layer "runtime.cache_lookup_share" "share" Lower;
    layer "runtime.exec_self_share" "share" Lower;
    layer "runtime.event_self_share" "share" Lower;
    layer "runtime.modeled_compile_us" "modeled-us" Lower;
    layer "runtime.step_us_p999" "us" Lower;
    layer "store.open_share" "share" Lower;
    layer "store.probe_share" "share" Lower;
    layer "store.publish_share" "share" Lower;
    layer "store.hit_rate" "ratio" Higher;
    layer "serve.residual_ms" "ms" Lower;
    layer "serve.batches" "count" Lower;
    layer "serve.mean_batch_size" "events" Higher;
    layer "serve.checkpoints" "count" Lower;
    layer "serve.journal_segments" "count" Lower;
    layer "serve.restarts" "count" Lower;
    layer "serve.replayed_events" "count" Lower;
    layer "serve.peak_queue" "events" Lower;
    layer "gc.minor_words_per_event" "words" Lower;
    layer "gc.promoted_words_per_event" "words" Lower;
    layer "gc.major_collections" "count" Lower;
    layer "trace.wall_ms" "ms" Lower;
    layer "trace.overhead" "ratio" Lower;
    layer "trace.attributed_share" "share" Higher;
  ]
