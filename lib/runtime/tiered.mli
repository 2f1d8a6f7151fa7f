(** Tiered execution: cold kernels run through the {!Vapor_vecir.Veval}
    bytecode interpreter; once a kernel body crosses the hotness threshold
    it is promoted to JIT-compiled code obtained through the
    {!Code_cache}.  Per-body tier state is keyed by the same
    (digest, target, profile) key as the cache, so the same bytecode
    running on two targets is tracked (and promoted) independently.

    Interpreter invocations charge a modeled cost
    [200 + 20*elements + 2*bytecode_bytes] cycles — a first-order
    dispatch-per-element interpreter model — so the tier economics
    (interpretation avoids the compile, JIT pays it once) are visible in
    the replay reports without wall-clock nondeterminism. *)

module B := Vapor_vecir.Bytecode
module Target := Vapor_targets.Target
module Profile := Vapor_jit.Profile
module Eval := Vapor_ir.Eval

type tier =
  | Interpreter
  | Jit

val tier_to_string : tier -> string

type transition = {
  at_invocation : int;  (** 1-based invocation count when the switch fired *)
  to_tier : tier;
}

(** Per-(bytecode, target, profile) execution state, for reporting. *)
type kstate = {
  ks_key : Digest.key;
  ks_label : string;  (** kernel name, for tables *)
  mutable ks_invocations : int;
  mutable ks_interp_runs : int;
  mutable ks_jit_runs : int;
  mutable ks_tier : tier;
  mutable ks_transitions : transition list;  (** newest first *)
  mutable ks_cold_compile_us : float;  (** 0 until first compiled *)
  mutable ks_quarantined : bool;
      (** pinned to the interpreter after a quarantine; never re-promoted *)
}

(** When the differential oracle re-checks a JIT body against the
    interpreter: on its first JIT run, and every [op_sample_every]-th run
    after that (0 disables sampling). *)
type oracle_policy = {
  op_first_run : bool;
  op_sample_every : int;
}

(** Check every JIT run — the chaos-replay setting. *)
val oracle_always : oracle_policy

(** The guarded-execution configuration: differential oracle schedule,
    fault injector, and compile retry budget.  {!no_guard} (the default)
    leaves the healthy path bit-for-bit unchanged. *)
type guard = {
  g_oracle : oracle_policy option;
  g_faults : Faults.t option;
  g_retry_budget : int;
}

val no_guard : guard

(** Which simulator runs JIT-tier bodies.  [Fast] (the default) runs the
    pre-resolved plan; [Reference] runs the instruction-by-instruction
    simulator — the baseline the plan is benchmarked (and differentially
    checked) against.  The interpreter tier runs {!Vapor_vecir.Veval}
    under either.  Results and reports are identical between engines;
    only wall-clock differs. *)
type engine =
  | Reference
  | Fast

val engine_to_string : engine -> string
val engine_of_string : string -> engine option

type t

(** [hotness_threshold] is the number of interpreter runs before
    promotion; 0 promotes on the first invocation.  [tracer] (default
    {!Vapor_obs.Tracer.disabled}) receives child spans — [cache_lookup],
    [compile], [exec], [oracle], and with a store also [store_probe] /
    [store_publish] — under whatever root the caller has open.

    [store] plugs in the persistent second tier: an in-memory miss
    probes the store before compiling, and every real compile publishes
    write-through.  A store hit is accounted exactly like a compile
    (the stored modeled compile time is charged and observed, the
    scalarize fallback counted), so a warm run's report is
    byte-identical to a cold run's while {!Code_cache.real_compiles}
    stays 0. *)
val create :
  ?stats:Stats.t ->
  ?guard:guard ->
  ?engine:engine ->
  ?tracer:Vapor_obs.Tracer.t ->
  ?store:Vapor_store.Store.session ->
  cache:Code_cache.t ->
  hotness_threshold:int ->
  unit ->
  t

(** What the guard machinery concluded about an invocation — the signal
    the serving layer's per-digest circuit breaker consumes.  [Clean]
    also covers unguarded runs (nothing checked, nothing failed); the
    other three each imply the kernel was quarantined and the caller got
    the interpreter's answer. *)
type run_outcome =
  | Clean
  | Oracle_mismatch
  | Exec_fault
  | Compile_error

val run_outcome_to_string : run_outcome -> string

type run = {
  r_tier : tier;
  r_cycles : int;  (** simulated (Jit) or modeled (Interpreter) cycles *)
  r_compile_us : float;  (** compile time paid by THIS invocation *)
  r_cache : Code_cache.outcome option;  (** [None] on interpreter runs *)
  r_outcome : run_outcome;
  r_real_compile : bool;
      (** an actual compile ran for this invocation (not a cache hit or a
          store-served body) — the admission journal's replay hint *)
}

(** Execute one invocation, choosing the tier; array argument buffers are
    mutated in place exactly as {!Vapor_harness.Exec.run} would.  This is
    {!invoke_lazy} with the arguments already built and no batch memo.

    [interp_only] (default false) forces the interpreter path for this
    invocation without demoting the kernel — promotion bookkeeping still
    runs, so hotness accrues and JIT serving resumes the moment the
    caller stops forcing (the breaker-open serving mode).

    [force_oracle] (default false) forces a differential check on this
    invocation regardless of the guard's sampling policy (including no
    policy at all) — the breaker's half-open probe.  A quarantined
    kernel already gets the oracle's semantics, so forcing is a no-op
    there.

    [discard_store_hit] (default false) is the recovery-replay hint for
    an invocation whose original execution really compiled: the store is
    still probed — consuming exactly the fault draws the original probe
    consumed — but a [Hit] (say, from a body this session staged before
    the crash) is discarded so the replay recompiles along the original
    path, keeping the injector stream bit-aligned. *)
val invoke :
  ?digest:Digest.t ->
  ?label:string ->
  ?interp_only:bool ->
  ?force_oracle:bool ->
  ?discard_store_hit:bool ->
  t ->
  target:Target.t ->
  profile:Profile.t ->
  B.vkernel ->
  args:(string * Eval.arg) list ->
  run

(** {2 Batched invocation}

    A [batch] is the duplicate-operand elision memo for one group of
    co-dispatched invocations of a single kernel digest (the serving
    layer's batch dispatcher). *)

type batch

val batch_create : unit -> batch

(** Drop all memoized signatures (call when a retarget trigger fires
    mid-batch: the memo's target association is stale). *)
val batch_reset : batch -> unit

(** The one invocation body: cache lookup, then store probe or compile,
    then execution, with every accounting effect of {!invoke}.  [args]
    is forced only when the invocation actually executes.

    [memo = (batch, signature)] enables duplicate-operand elision: the
    caller's signature (kernel, target index, scale) names operands that
    are bit-identical across the batch, so an element whose signature
    already ran in [batch] — on the same tier, and for the JIT tier on a
    cached body — replays that execution's modeled cycle charge instead
    of building its arguments and running.  The memo is honoured only on
    the unguarded fast path (no fault injector, no oracle, no forced
    probe, [Fast] engine, kernel not quarantined); everywhere else it is
    ignored.  Every per-element effect still applies — invocation and
    hotness accounting, cache LRU touch and hit counters, tier run
    counters and cycle histograms, tracer spans other than the skipped
    stage leaves — so a batched drain's report is byte-identical to
    single dispatch. *)
val invoke_lazy :
  ?digest:Digest.t ->
  ?label:string ->
  ?interp_only:bool ->
  ?force_oracle:bool ->
  ?discard_store_hit:bool ->
  ?memo:batch * string ->
  t ->
  target:Target.t ->
  profile:Profile.t ->
  B.vkernel ->
  args:(string * Eval.arg) list Lazy.t ->
  run

(** Rekey all states on [from_target] to [to_target], preserving hotness
    (the Revec rejuvenation companion of
    {!Code_cache.invalidate_target}). Returns the number migrated. *)
val migrate_target : t -> from_target:Target.t -> to_target:Target.t -> int

val states : t -> kstate list
val hotness_threshold : t -> int
val cache : t -> Code_cache.t
val store : t -> Vapor_store.Store.session option
val stats : t -> Stats.t
val engine : t -> engine
val tracer : t -> Vapor_obs.Tracer.t

(** Swap the span sink (recovery replay silences spans with
    {!Vapor_obs.Tracer.disabled}, then restores the original — the
    crash-free run emitted each event's spans exactly once, and the
    recovered trace must match). *)
val set_tracer : t -> Vapor_obs.Tracer.t -> unit

(** A copy of an argument list whose array buffers share nothing with
    the original. *)
val copy_args : (string * Eval.arg) list -> (string * Eval.arg) list

(** The modeled interpreter cost (exposed for tests). *)
val interp_cycles : B.vkernel -> args:(string * Eval.arg) list -> int

(** {2 Checkpoint snapshot}

    The runtime state a shard checkpoint captures beyond the code cache:
    per-kernel tier states (hotness, promotion history, quarantine
    flags).  {!restore} replaces the destination's state in place,
    leaving its configuration (guard, engine, tracer, store session)
    untouched. *)

type snap

val snapshot : t -> snap
val restore : t -> snap -> unit

(** Deterministic rows for the on-disk checkpoint artifact:
    (kernel label, target, tier, invocations, quarantined), sorted. *)
val snap_rows : snap -> (string * string * string * int * bool) list
