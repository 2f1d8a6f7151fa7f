(** The replay service: drives a synthetic {!Trace} through the tiered
    runtime and reports what a managed runtime would observe — aggregate
    modeled throughput, amortized vs. cold JIT compile time, cache hit
    rate, and the per-body tier breakdown.

    Argument buffers are rebuilt deterministically per event from the
    benchmark suite's seeded workload builders, so a replay with the same
    config and trace prints byte-identical reports. *)

module Target := Vapor_targets.Target
module Profile := Vapor_jit.Profile

type config = {
  cfg_targets : Target.t list;  (** [ev_target] indexes into this list *)
  cfg_profile : Profile.t;
  cfg_hotness : int;  (** interpreter runs before JIT promotion *)
  cfg_max_entries : int;  (** code-cache entry budget *)
  cfg_max_bytes : int;  (** code-cache modeled-byte budget *)
  cfg_retargets : (int * Target.t * Target.t) list;
      (** retarget triggers, each latched independently and fired in list
          order: [(at_event, from, to)] re-lowers cached code from one
          target to another at event [at_event] and redirects subsequent
          traffic (the Revec rejuvenation scenario) — capability upgrades
          (sse to avx512, neon to sve) as well as drops *)
  cfg_guard : Tiered.guard;
      (** guarded-execution configuration; {!Tiered.no_guard} leaves the
          healthy path byte-identical *)
  cfg_drop_simd : (int * Target.t) option;
      (** [(at_event, scalar)]: at event [at_event] every SIMD target is
          rejuvenated down to [scalar] — the mid-trace capability-loss
          fault *)
  cfg_label_targets : bool;
      (** label runtime counters with the resolved serving-target name
          ([target.<name>.{invocations,jit_runs,interp_runs}]); off by
          default so existing replay reports stay byte-identical *)
  cfg_engine : Tiered.engine;
      (** which execution engine serves invocations; {!Tiered.Fast} (the
          default) is report-identical to {!Tiered.Reference}, only
          wall-clock differs *)
  cfg_store : Vapor_store.Store.t option;
      (** persistent code store probed on in-memory cache misses and
          published to after every compile; one session per domain,
          merged by a single writer after the run.  Store hits are
          accounted exactly like compiles (the stored modeled compile
          time is charged), so a warm run's report is byte-identical to
          a cold run's while [jit.real_compiles] stays 0 *)
}

(** Mono-profile defaults: hotness 3, 64-entry / 256 KiB cache, no
    rejuvenation, no guard, no persistent store. *)
val default_config : targets:Target.t list -> config

type kernel_row = {
  kr_kernel : string;
  kr_target : string;
  kr_digest : string;  (** short content digest *)
  kr_invocations : int;
  kr_interp_runs : int;
  kr_jit_runs : int;
  kr_promoted_at : int option;  (** invocation index of the promotion *)
  kr_cold_compile_us : float;
  kr_quarantined : bool;
}

type report = {
  rp_trace : string;  (** {!Trace.describe} of the replayed trace *)
  rp_invocations : int;
  rp_interp_invocations : int;
  rp_jit_invocations : int;
  rp_total_cycles : int;
  rp_interp_cycles : int;
  rp_jit_cycles : int;
  rp_total_compile_us : float;  (** compile time actually paid *)
  rp_cold_compile_us : float;
      (** invocation-weighted mean cold (per-compile) time: what every
          invocation would pay without the cache *)
  rp_amortized_us : float;  (** [rp_total_compile_us / rp_invocations] *)
  rp_hits : int;
  rp_misses : int;
  rp_evictions : int;
  rp_rejuvenations : int;
  rp_hit_rate : float;
  rp_oracle_checks : int;
      (** differential-oracle re-executions (all zero when unguarded) *)
  rp_oracle_mismatches : int;
  rp_quarantines : int;
  rp_demotions : int;
  rp_retries : int;
  rp_exec_faults : int;
  rp_compile_errors : int;
  rp_scalarize_fallbacks : int;
  rp_injected_compile : int;
  rp_corrupted_bodies : int;
  rp_rows : kernel_row list;
  rp_stats : Stats.t;
}

(** [true] when any guarded-execution counter is nonzero; gates the
    guarded section of {!print_report} so unguarded reports are
    byte-identical to the pre-guard runtime's. *)
val guarded_activity : report -> bool

(** {2 Session pools}

    The reusable unit under both the sharded replay and the serving
    layer: [shards] fully private replay sessions (each with its own
    metrics registry, code cache, tiered runtime, store session, tracer
    and trigger state — no shared mutable state on the hot path), plus
    the merge machinery that folds them into one {!report}. *)

type pool

(** Per-event accounting record, the unit reports are accumulated from.
    [er_outcome] carries the guard verdict for the serving layer's
    circuit breaker. *)
type event_record = {
  er_index : int;
  er_tier : Tiered.tier;
  er_cycles : int;
  er_compile_us : float;
  er_outcome : Tiered.run_outcome;
  er_real_compile : bool;
      (** the invocation really compiled (the admission journal's replay
          hint) *)
}

(** Build a pool of [shards] (default 1) private sessions over the named
    kernels.  Kernels are vectorized once and each shard gets a private
    table copy.  When guarded with more than one shard, shard [i]'s
    fault stream is re-seeded deterministically from the injector seed
    and [i]; a single shard keeps the caller's injector object. *)
val pool_create :
  ?tracer:Vapor_obs.Tracer.t ->
  ?shards:int ->
  config ->
  kernels:string list ->
  pool

val pool_shards : pool -> int
val pool_config : pool -> config

(** Content digest of a kernel's vectorized bytecode (raises [Not_found]
    for a kernel the pool was not created with). *)
val pool_digest : pool -> kernel:string -> Digest.t

(** Deterministic balanced shard assignment: aggregates [weights]
    (kernel name, expected event count) by digest and assigns digests to
    shards heaviest-first onto the least-loaded shard (LPT). Two kernel
    names sharing one bytecode digest always land together. *)
val pool_assign : pool -> weights:(string * int) list -> string -> int

(** Drive one event through one shard — the one per-event step every
    driver uses: fire the shard's due retarget triggers, look the kernel
    up, pick the target, and run {!Tiered.invoke_lazy} under a
    [replay_event] root span.  [interp_only] / [force_oracle] pass
    through (breaker-open serving and the half-open probe), as does
    [discard_store_hit] (the recovery-replay hint).

    [batch] makes the event a member of one co-dispatched same-digest
    batch: members whose (kernel, target, scale) signature already ran in
    it have bit-identical operands and are elided — charged per element,
    executed once — on the unguarded fast path.  Records, counters,
    histograms, gauges and the runtime's child spans are identical to
    stepping each member singly; only the stage leaves of the skipped
    execution are missing.  A retarget trigger firing mid-batch resets
    the memo.

    Safe to interleave shards on one domain; a shard must never be
    stepped from two domains concurrently. *)
val shard_step :
  ?interp_only:bool ->
  ?force_oracle:bool ->
  ?discard_store_hit:bool ->
  ?batch:Tiered.batch ->
  pool ->
  shard:int ->
  Trace.event ->
  event_record

(** The operands an event of [kernel] at [scale] runs on in [shard]: a
    fresh copy ({!Tiered.copy_args}) of the shard's pristine set, which
    is built on first use and never handed out itself. *)
val shard_operands :
  pool ->
  shard:int ->
  kernel:string ->
  scale:int ->
  (string * Vapor_ir.Eval.arg) list

(** The shard's private fault injector ([None] when unguarded, and when
    a multi-shard pool was built from an unguarded config).  The serving
    supervisor draws its per-shard crash/wedge schedule from it. *)
val shard_faults : pool -> shard:int -> Faults.t option

(** {2 Shard checkpoint / restore / replay}

    The recovery triad the serving supervisor drives.  A snapshot deep-
    copies every piece of mutable shard state — metrics registry, code
    cache, tier machinery, fault-injector stream positions, retarget
    trigger latches.  Deliberately outside the snapshot: the tracer
    (emitted spans are history), the store session (its staging
    directory is its own write-ahead log and survives a crash), and the
    immutable bytecode table.  {!shard_restore} rewinds the same shard
    object in place, so engine-held references stay valid across a
    restart. *)

type shard_snap

val shard_snapshot : pool -> shard:int -> shard_snap
val shard_restore : pool -> shard:int -> shard_snap -> unit

(** Digest-level checkpoint-artifact views: cache rows
    ((digest, target, profile, bytes, tick), sorted), tier rows
    ((label, target, tier, invocations, quarantined), sorted), and a
    counter probe into the snapshotted registry. *)
val snap_cache_rows :
  shard_snap -> (string * string * string * int * int) list

val snap_tier_rows : shard_snap -> (string * string * string * int * bool) list
val snap_counter : shard_snap -> string -> int

(** Re-execute one journaled event against restored shard state:
    {!shard_step} with spans silenced and the record discarded (the
    engine already collected it before the crash); execution is
    deterministic, so the replay reproduces every counter, hotness bump,
    cache touch, and fault draw of the original.  [real_compile] is the
    journal's hint that the original execution really compiled: the
    replay then discards a store hit (the pre-crash publish is still
    staged) and recompiles along the original path. *)
val shard_replay_step :
  ?interp_only:bool ->
  ?force_oracle:bool ->
  ?real_compile:bool ->
  pool ->
  shard:int ->
  Trace.event ->
  unit

(** Run [parts.(i)] through shard [i], spawning at most
    [Domain.recommended_domain_count] OS domains (extra logical shards
    fold onto them round-robin — oversubscription past the core count
    only costs GC synchronization).  Returns all records sorted in trace
    order, independent of the worker layout. *)
val pool_run : pool -> Trace.event list array -> event_record list

(** Fold the pool into its final report: per-shard gauges recorded,
    registries pooled into [stats] (fresh if omitted), shard tracers
    absorbed, the single-writer store merge run.  Call once, after all
    events have run. *)
val pool_report :
  ?stats:Stats.t -> pool -> trace_desc:string -> records:event_record list ->
  report

(** Invocations per million modeled cycles — the replay's throughput
    figure of merit. *)
val throughput : report -> float

(** How much cheaper an average invocation's compile share is than a
    cold compile ([rp_cold_compile_us / rp_amortized_us]). *)
val amortization_factor : report -> float

(** Replay a trace across [domains] (default 1) logical shards — the
    only driver that runs shards on OS domains.  The trace is partitioned
    by kernel digest (balanced by per-digest event count), each shard
    runs an independent session on at most
    [Domain.recommended_domain_count] OS domains, and per-event records
    merge back in trace order: the report is identical for any [domains]
    value and any core count (and, when no cache evictions occur,
    identical to one shard's).  When guarded with more than one shard,
    each shard derives its own deterministic fault stream from the
    injector seed and the shard index.

    [tracer] (default {!Vapor_obs.Tracer.disabled}) records one
    [replay_event] root span per trace event, with the tiered runtime's
    child spans and pipeline-stage leaf spans beneath it; with more than
    one shard each traces into its own {!Vapor_obs.Tracer.sub} of
    [tracer], absorbed back after the join, so with wall-clock off the
    pooled trace is byte-identical for any [domains] value.  After the
    replay, observability gauges ([cache.bytes], [cache.entries],
    [cache.evicted_entries], [cache.invalidated_entries],
    [jit.real_compiles], [tier.quarantined_kernels], fault-draw counts
    when guarded, and
    [store.*] when a persistent store is configured) are recorded on the
    registry — gauges never appear in {!Stats.to_table}, so reports are
    unaffected. *)
val replay :
  ?stats:Stats.t ->
  ?tracer:Vapor_obs.Tracer.t ->
  ?domains:int ->
  config ->
  Trace.t ->
  report

(** The full report as a string: summary, guarded section (when active),
    and the tier table — exactly what {!print_report} prints. *)
val report_to_string : report -> string

(** The report (plus the registry's counters) as a JSON object. *)
val report_to_json : report -> string

(** Print the full report: summary, counters, and the tier table. *)
val print_report : report -> unit

val tier_table_to_string : report -> string

(** Just the per-body tier table. *)
val print_tier_table : report -> unit
