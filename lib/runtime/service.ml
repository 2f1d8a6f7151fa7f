(* The replay service: a request driver over the tiered runtime. *)

module Target = Vapor_targets.Target
module Profile = Vapor_jit.Profile
module Suite = Vapor_kernels.Suite
module Flows = Vapor_harness.Flows
module Driver = Vapor_vectorizer.Driver
module Tracer = Vapor_obs.Tracer
module Stage = Vapor_obs.Stage
module Json = Vapor_obs.Json
module Store = Vapor_store.Store

type config = {
  cfg_targets : Target.t list;
  cfg_profile : Profile.t;
  cfg_hotness : int;
  cfg_max_entries : int;
  cfg_max_bytes : int;
  (* Retarget triggers (at_event, from, to), each latched independently
     and fired in list order: rejuvenation, capability UPGRADES (sse ->
     avx512, neon -> sve) as well as drops. *)
  cfg_retargets : (int * Target.t * Target.t) list;
  cfg_guard : Tiered.guard;
  (* At trace index N the serving fleet loses SIMD capability: every
     SIMD target is rejuvenated down to the given scalar target. *)
  cfg_drop_simd : (int * Target.t) option;
  (* Label runtime counters with the serving target's name
     (target.<name>.{invocations,jit_runs,interp_runs}).  Off by default:
     the extra counters would change report byte-identity for existing
     replays. *)
  cfg_label_targets : bool;
  cfg_engine : Tiered.engine;
  (* Persistent second tier, shared across processes and across the
     domains of a sharded replay (one session per domain, merged by a
     single writer after the join). *)
  cfg_store : Store.t option;
}

let default_config ~targets =
  {
    cfg_targets = targets;
    cfg_profile = Profile.mono;
    cfg_hotness = 3;
    cfg_max_entries = 64;
    cfg_max_bytes = 256 * 1024;
    cfg_retargets = [];
    cfg_guard = Tiered.no_guard;
    cfg_drop_simd = None;
    cfg_label_targets = false;
    cfg_engine = Tiered.Fast;
    cfg_store = None;
  }

type kernel_row = {
  kr_kernel : string;
  kr_target : string;
  kr_digest : string;
  kr_invocations : int;
  kr_interp_runs : int;
  kr_jit_runs : int;
  kr_promoted_at : int option;
  kr_cold_compile_us : float;
  kr_quarantined : bool;
}

type report = {
  rp_trace : string;
  rp_invocations : int;
  rp_interp_invocations : int;
  rp_jit_invocations : int;
  rp_total_cycles : int;
  rp_interp_cycles : int;
  rp_jit_cycles : int;
  rp_total_compile_us : float;
  rp_cold_compile_us : float;
  rp_amortized_us : float;
  rp_hits : int;
  rp_misses : int;
  rp_evictions : int;
  rp_rejuvenations : int;
  rp_hit_rate : float;
  (* guarded-execution accounting; all zero on an unguarded replay *)
  rp_oracle_checks : int;
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

(* Any guarded-execution activity at all?  Gates the report section so an
   unguarded replay prints byte-identically to the pre-guard runtime. *)
let guarded_activity rp =
  rp.rp_oracle_checks > 0 || rp.rp_oracle_mismatches > 0
  || rp.rp_quarantines > 0 || rp.rp_demotions > 0 || rp.rp_retries > 0
  || rp.rp_exec_faults > 0 || rp.rp_compile_errors > 0
  || rp.rp_scalarize_fallbacks > 0 || rp.rp_injected_compile > 0
  || rp.rp_corrupted_bodies > 0

let throughput rp =
  if rp.rp_total_cycles = 0 then 0.0
  else
    float_of_int rp.rp_invocations
    /. (float_of_int rp.rp_total_cycles /. 1_000_000.0)

let amortization_factor rp =
  if rp.rp_amortized_us <= 0.0 then Float.infinity
  else rp.rp_cold_compile_us /. rp.rp_amortized_us

(* Offline artifacts per kernel name: bytecode (via the Flows per-options
   cache) and its content digest, computed once per replay. *)
let bytecode_table kernels =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun name ->
      let entry = Suite.find name in
      let vk = (Flows.vectorized_bytecode entry).Driver.vkernel in
      Hashtbl.replace tbl name (entry, vk, Digest.of_vkernel vk))
    kernels;
  tbl

(* Per-event accounting record: the unit both the single-domain replay
   and the sharded driver accumulate reports from.  Keeping the merge in
   trace order makes the merged report independent of the shard count. *)
type event_record = {
  er_index : int;
  er_tier : Tiered.tier;
  er_cycles : int;
  er_compile_us : float;
  er_outcome : Tiered.run_outcome;
  er_real_compile : bool;
}

(* --- session pools ----------------------------------------------------- *)

(* One fully private replay session: its own metrics registry, code
   cache, tiered runtime, store session, tracer, bytecode table, target
   array, and trigger state.  Nothing here is shared with any other
   shard, so shards run on any OS domain — or interleave on one — with
   no synchronization on the hot path.  (The previous sharded driver
   shared the bytecode table and spawned one OS domain per logical
   shard unconditionally; on a box with fewer cores than shards the
   stop-the-world minor-GC synchronization across oversubscribed
   domains made 4-way replay slower than 1-way.) *)
type shard = {
  sh_index : int;
  sh_stats : Stats.t;
  sh_cache : Code_cache.t;
  sh_tiered : Tiered.t;
  sh_tracer : Tracer.t;
  sh_guard : Tiered.guard;
  sh_table :
    (string, Suite.entry * Vapor_vecir.Bytecode.vkernel * Digest.t) Hashtbl.t;
  sh_targets : Target.t array;
  (* one latch per [cfg_retargets] entry *)
  sh_retargeted : bool array;
  mutable sh_dropped : bool;
  (* Pristine operands per (kernel, scale), built on first use and never
     written: deterministic values no snapshot needs to carry. *)
  sh_operands : (string * int, (string * Vapor_ir.Eval.arg) list) Hashtbl.t;
}

type pool = {
  pl_cfg : config;
  pl_table :
    (string, Suite.entry * Vapor_vecir.Bytecode.vkernel * Digest.t) Hashtbl.t;
  pl_shards : shard array;
  pl_sessions : Store.session array;  (* [||] when no store *)
  pl_tracer : Tracer.t;  (* the parent tracer shard subs absorb into *)
}

let pool_create ?(tracer = Tracer.disabled) ?(shards = 1) (cfg : config)
    ~kernels : pool =
  if cfg.cfg_targets = [] then invalid_arg "Service.pool_create: no targets";
  let shards = max 1 shards in
  (* Vectorize (and parse) every kernel once, on this domain; each shard
     gets a private copy of the table (the values are immutable). *)
  let table = bytecode_table kernels in
  let sessions =
    match cfg.cfg_store with
    | None -> [||]
    | Some store -> Array.init shards (fun i -> Store.session ~id:i store)
  in
  (* Guarded sharding is deterministic per (seed, shards): each shard
     derives its own fault stream from the injector's seed and the shard
     index.  A single shard keeps the caller's injector object so its
     counters stay observable. *)
  let shard_guard i =
    if shards = 1 then cfg.cfg_guard
    else
      match cfg.cfg_guard.Tiered.g_faults with
      | None -> cfg.cfg_guard
      | Some f ->
        let spec = Faults.spec f in
        {
          cfg.cfg_guard with
          Tiered.g_faults =
            Some
              (Faults.make
                 { spec with Faults.f_seed = spec.Faults.f_seed + (31 * i) });
        }
  in
  let mk i =
    let st = Stats.create () in
    let guard = shard_guard i in
    let cache =
      Code_cache.create ~stats:st ~max_entries:cfg.cfg_max_entries
        ~max_bytes:cfg.cfg_max_bytes ()
    in
    let sh_tracer = if shards = 1 then tracer else Tracer.sub tracer in
    let tiered =
      Tiered.create ~stats:st ~guard ~engine:cfg.cfg_engine ~tracer:sh_tracer
        ?store:(if sessions = [||] then None else Some sessions.(i))
        ~cache ~hotness_threshold:cfg.cfg_hotness ()
    in
    {
      sh_index = i;
      sh_stats = st;
      sh_cache = cache;
      sh_tiered = tiered;
      sh_tracer;
      sh_guard = guard;
      sh_table = Hashtbl.copy table;
      sh_targets = Array.of_list cfg.cfg_targets;
      sh_retargeted = Array.make (List.length cfg.cfg_retargets) false;
      sh_dropped = false;
      sh_operands = Hashtbl.create 16;
    }
  in
  {
    pl_cfg = cfg;
    pl_table = table;
    pl_shards = Array.init shards mk;
    pl_sessions = sessions;
    pl_tracer = tracer;
  }

let pool_shards pool = Array.length pool.pl_shards
let pool_config pool = pool.pl_cfg

let pool_digest pool ~kernel =
  let _, _, d = Hashtbl.find pool.pl_table kernel in
  d

(* Deterministic LPT balance: aggregate per-digest event counts, walk
   digests heaviest first (ties broken by digest order), assign each to
   the currently least-loaded shard.  Replaces hash-mod partitioning,
   whose skew could leave shards nearly idle.  Keyed by digest, not
   kernel name, so two names that vectorize to the same bytecode always
   land on the same shard — their tier state is shared. *)
let pool_assign pool ~(weights : (string * int) list) =
  let n = Array.length pool.pl_shards in
  let by_digest = Hashtbl.create 16 in
  List.iter
    (fun (kernel, count) ->
      let d = pool_digest pool ~kernel in
      let prev = Option.value ~default:0 (Hashtbl.find_opt by_digest d) in
      Hashtbl.replace by_digest d (prev + count))
    weights;
  let digests =
    Hashtbl.fold (fun d c acc -> (d, c) :: acc) by_digest []
    |> List.sort (fun (d1, c1) (d2, c2) ->
           match compare c2 c1 with
           | 0 -> Digest.compare d1 d2
           | cmp -> cmp)
  in
  let loads = Array.make n 0 in
  let assign = Hashtbl.create 16 in
  List.iter
    (fun (d, c) ->
      let best = ref 0 in
      for i = 1 to n - 1 do
        if loads.(i) < loads.(!best) then best := i
      done;
      loads.(!best) <- loads.(!best) + c;
      Hashtbl.replace assign d !best)
    digests;
  fun kernel ->
    Option.value ~default:0
      (Hashtbl.find_opt assign (pool_digest pool ~kernel))

(* Fire the shard's retarget triggers (rejuvenation, SIMD drop) due at
   [ev]; returns [true] when one fired (a batch dispatcher must drop its
   memoized signatures: their target association is stale). *)
let fire_triggers pool ~shard (ev : Trace.event) =
  let sh = pool.pl_shards.(shard) in
  let cfg = pool.pl_cfg in
  let fired = ref false in
  let retarget ~from_t ~to_t =
    ignore
      (Code_cache.invalidate_target sh.sh_cache ~from_target:from_t
         ~to_target:to_t);
    ignore
      (Tiered.migrate_target sh.sh_tiered ~from_target:from_t ~to_target:to_t);
    (* The persistent tier quarantines the stale target too, at merge
       time (Revec: never silently serve stale code). *)
    (match Tiered.store sh.sh_tiered with
    | Some ss -> Store.defer_invalidate ss ~from_target:from_t.Target.name
    | None -> ());
    Array.iteri
      (fun i t ->
        if String.equal t.Target.name from_t.Target.name then
          sh.sh_targets.(i) <- to_t)
      sh.sh_targets
  in
  List.iteri
    (fun i (at, from_t, to_t) ->
      if (not sh.sh_retargeted.(i)) && ev.Trace.ev_index >= at then begin
        sh.sh_retargeted.(i) <- true;
        fired := true;
        retarget ~from_t ~to_t
      end)
    cfg.cfg_retargets;
  (match cfg.cfg_drop_simd with
  | Some (at, scalar_t) when (not sh.sh_dropped) && ev.Trace.ev_index >= at ->
    (* The fleet loses its vector units: rejuvenate every SIMD target
       down to scalar code, mid-trace. *)
    sh.sh_dropped <- true;
    fired := true;
    let simd =
      Array.to_list sh.sh_targets
      |> List.filter Target.has_simd
      |> List.sort_uniq (fun a b -> compare a.Target.name b.Target.name)
    in
    List.iter (fun from_t -> retarget ~from_t ~to_t:scalar_t) simd;
    Stats.incr sh.sh_stats "faults.simd_dropped"
  | _ -> ());
  !fired

(* Per-target labeled counters, identical on the live, batched, and
   journal-replay paths so recovery replay reproduces them exactly.  The
   label uses the RESOLVED name (a late-bound "sve" serves as its pinned
   spelling). *)
let note_target_run sh cfg ~(target : Target.t) (r : Tiered.run) =
  if cfg.cfg_label_targets then begin
    let base = "target." ^ (Target.resolve target).Target.name in
    Stats.incr sh.sh_stats (base ^ ".invocations");
    Stats.incr sh.sh_stats
      (base
      ^
      match r.Tiered.r_tier with
      | Tiered.Jit -> ".jit_runs"
      | Tiered.Interpreter -> ".interp_runs")
  end;
  r

(* An event's operands: a copy of the shard's pristine set for (kernel,
   scale).  The suite's argument builders are pure functions of (kernel,
   scale) — batch elision relies on that too — so each shard builds a set
   once; the pristine set never reaches a kernel, which writes its
   operands in place. *)
let shard_operands pool ~shard ~kernel ~scale =
  let sh = pool.pl_shards.(shard) in
  let pristine =
    match Hashtbl.find_opt sh.sh_operands (kernel, scale) with
    | Some args -> args
    | None ->
      let entry, _, _ = Hashtbl.find sh.sh_table kernel in
      let args = entry.Suite.args ~scale in
      Hashtbl.add sh.sh_operands (kernel, scale) args;
      args
  in
  Tiered.copy_args pristine

(* The one per-event step.  Triggers (rejuvenation, SIMD drop) fire at
   the first owned event at or past their index, so a shard that does not
   own the exact trigger event still switches at the same point in its own
   subsequence; one that fires mid-batch drops the batch's memoized
   signatures, whose target association is stale.  The root span goes to
   the runtime's current tracer, which recovery replay silences. *)
let shard_step ?interp_only ?force_oracle ?discard_store_hit ?batch pool
    ~shard (ev : Trace.event) =
  let sh = pool.pl_shards.(shard) in
  let cfg = pool.pl_cfg in
  if fire_triggers pool ~shard ev then Option.iter Tiered.batch_reset batch;
  let _, vk, digest = Hashtbl.find sh.sh_table ev.Trace.ev_kernel in
  let target =
    sh.sh_targets.(ev.Trace.ev_target mod Array.length sh.sh_targets)
  in
  (* Two events share operands iff they share this signature: the suite's
     argument builders are pure functions of (kernel, scale), and the
     target index picks the compiled body variant. *)
  let memo =
    match batch with
    | None -> None
    | Some b ->
      Some
        ( b,
          Printf.sprintf "%s/%d/%d" ev.Trace.ev_kernel ev.Trace.ev_target
            ev.Trace.ev_scale )
  in
  let tr = Tiered.tracer sh.sh_tiered in
  let invoke () =
    if Tracer.on tr then
      Tracer.root_begin tr ~ev:ev.Trace.ev_index ~name:"replay_event"
        [
          "kernel", Tracer.S ev.Trace.ev_kernel;
          "target", Tracer.S target.Target.name;
          "scale", Tracer.I ev.Trace.ev_scale;
        ];
    let r =
      note_target_run sh cfg ~target
        (Tiered.invoke_lazy ~digest ~label:ev.Trace.ev_kernel ?interp_only
           ?force_oracle ?discard_store_hit ?memo sh.sh_tiered ~target
           ~profile:cfg.cfg_profile vk
           ~args:
             (lazy
               (shard_operands pool ~shard ~kernel:ev.Trace.ev_kernel
                  ~scale:ev.Trace.ev_scale)))
    in
    if Tracer.on tr then
      Tracer.root_end tr
        ~attrs:
          [
            "tier", Tracer.S (Tiered.tier_to_string r.Tiered.r_tier);
            "cycles", Tracer.I r.Tiered.r_cycles;
          ]
        ~name:"replay_event" ();
    {
      er_index = ev.Trace.ev_index;
      er_tier = r.Tiered.r_tier;
      er_cycles = r.Tiered.r_cycles;
      er_compile_us = r.Tiered.r_compile_us;
      er_outcome = r.Tiered.r_outcome;
      er_real_compile = r.Tiered.r_real_compile;
    }
  in
  (* The stage sink is domain-local; install it per event so shards can
     interleave on one domain (the serving loop) and still stream their
     pipeline-stage timings into their own tracer. *)
  if Tracer.on tr then Stage.with_sink (Tracer.stage_sink tr) invoke
  else invoke ()

let shard_faults pool ~shard =
  pool.pl_shards.(shard).sh_guard.Tiered.g_faults

(* --- shard checkpoint / restore / replay --------------------------------
   The recovery triad the serving supervisor drives.  A checkpoint deep-
   copies every piece of mutable shard state: the metrics registry, the
   code cache, the tiered runtime's kernel/tier machinery, the fault
   injector's stream positions, and the retarget trigger latches.  What
   is deliberately NOT in a snapshot: the tracer (spans already emitted
   are history), the store session (its staging directory is its own
   write-ahead log and survives the crash), and the bytecode table
   (immutable).  [shard_restore] rewinds the same shard object in place,
   so every engine-held reference — tracer, store session, breaker —
   stays valid across a restart. *)

type shard_snap = {
  sp_stats : Stats.t;
  sp_cache : Code_cache.snap;
  sp_tiered : Tiered.snap;
  sp_faults : Faults.snap option;
  sp_targets : Target.t array;
  sp_retargeted : bool array;
  sp_dropped : bool;
}

let shard_snapshot pool ~shard : shard_snap =
  let sh = pool.pl_shards.(shard) in
  {
    sp_stats = Stats.copy sh.sh_stats;
    sp_cache = Code_cache.snapshot sh.sh_cache;
    sp_tiered = Tiered.snapshot sh.sh_tiered;
    sp_faults = Option.map Faults.snapshot sh.sh_guard.Tiered.g_faults;
    sp_targets = Array.copy sh.sh_targets;
    sp_retargeted = Array.copy sh.sh_retargeted;
    sp_dropped = sh.sh_dropped;
  }

let shard_restore pool ~shard (sp : shard_snap) =
  let sh = pool.pl_shards.(shard) in
  (* reset + merge-from-copy is an exact content restore: every merge
     operation is an identity on an empty destination *)
  Stats.reset sh.sh_stats;
  Stats.merge_into ~dst:sh.sh_stats sp.sp_stats;
  Code_cache.restore sh.sh_cache sp.sp_cache;
  Tiered.restore sh.sh_tiered sp.sp_tiered;
  (match sh.sh_guard.Tiered.g_faults, sp.sp_faults with
  | Some f, Some fsnap -> Faults.restore f fsnap
  | _ -> ());
  Array.blit sp.sp_targets 0 sh.sh_targets 0 (Array.length sh.sh_targets);
  Array.blit sp.sp_retargeted 0 sh.sh_retargeted 0
    (Array.length sh.sh_retargeted);
  sh.sh_dropped <- sp.sp_dropped

(* Digest-level views for the on-disk checkpoint artifact. *)
let snap_cache_rows sp = Code_cache.snap_rows sp.sp_cache
let snap_tier_rows sp = Tiered.snap_rows sp.sp_tiered
let snap_counter sp name = Stats.counter sp.sp_stats name

(* Re-execute one journaled event against restored shard state.  Spans
   are silenced for the duration — the crash-free run emitted this
   event's spans exactly once — and the record is discarded: the engine
   collected it before the crash.  Execution is deterministic, so the
   replayed invocation reproduces every counter, histogram observation,
   hotness bump, cache touch, and fault draw of the original, leaving
   the shard bit-identical to its pre-crash state.  [real_compile] (the
   journal's hint) discards a store hit the original execution did not
   get — the body it published before the crash is still staged — so the
   replay recompiles along the original path with the original fault
   draws. *)
let shard_replay_step ?interp_only ?force_oracle ?(real_compile = false) pool
    ~shard (ev : Trace.event) =
  let tiered = pool.pl_shards.(shard).sh_tiered in
  let saved = Tiered.tracer tiered in
  Tiered.set_tracer tiered Tracer.disabled;
  Fun.protect
    ~finally:(fun () -> Tiered.set_tracer tiered saved)
    (fun () ->
      ignore
        (shard_step ?interp_only ?force_oracle ~discard_store_hit:real_compile
           pool ~shard ev))

(* Run the partitioned events: shard [i] processes [parts.(i)] in order.
   Logical shards are scheduling-independent, so at most
   [Domain.recommended_domain_count] OS domains are spawned and extra
   shards fold onto them round-robin — oversubscribing domains past the
   core count only adds stop-the-world GC synchronization (the cause of
   the old negative scaling), never parallelism.  Records merge back in
   trace order, so the result is independent of the worker layout. *)
let pool_run pool (parts : Trace.event list array) =
  let n = Array.length pool.pl_shards in
  if Array.length parts <> n then
    invalid_arg "Service.pool_run: one event list per shard required";
  let run i = List.map (fun ev -> shard_step pool ~shard:i ev) parts.(i) in
  let results =
    let workers = max 1 (min n (Domain.recommended_domain_count ())) in
    if workers = 1 then Array.init n run
    else begin
      let out = Array.make n [] in
      let worker p () =
        let acc = ref [] in
        let i = ref p in
        while !i < n do
          acc := (!i, run !i) :: !acc;
          i := !i + workers
        done;
        !acc
      in
      Array.init workers (fun p -> Domain.spawn (worker p))
      |> Array.iter (fun d ->
             List.iter (fun (i, recs) -> out.(i) <- recs) (Domain.join d));
      out
    end
  in
  Array.to_list results
  |> List.concat
  |> List.sort (fun a b -> compare a.er_index b.er_index)

let rows_of tiered =
  List.map
    (fun (s : Tiered.kstate) ->
      {
        kr_kernel = s.Tiered.ks_label;
        kr_target = s.Tiered.ks_key.Digest.k_target;
        kr_digest = Digest.short s.Tiered.ks_key.Digest.k_digest;
        kr_invocations = s.Tiered.ks_invocations;
        kr_interp_runs = s.Tiered.ks_interp_runs;
        kr_jit_runs = s.Tiered.ks_jit_runs;
        kr_promoted_at =
          (match
             List.find_opt
               (fun (tr : Tiered.transition) -> tr.Tiered.to_tier = Tiered.Jit)
               s.Tiered.ks_transitions
           with
          | Some tr -> Some tr.Tiered.at_invocation
          | None -> None);
        kr_cold_compile_us = s.Tiered.ks_cold_compile_us;
        kr_quarantined = s.Tiered.ks_quarantined;
      })
    (Tiered.states tiered)

(* Fold event records (in trace order — float accumulation order matters
   for byte-stable reports) and rows into the report. *)
let report_of ~trace_desc ~(records : event_record list) ~rows ~hits ~misses
    ~evictions ~rejuvenations ~hit_rate ~(st : Stats.t) : report =
  let interp_inv = ref 0 and jit_inv = ref 0 in
  let interp_cycles = ref 0 and jit_cycles = ref 0 in
  let compile_us = ref 0.0 in
  List.iter
    (fun er ->
      (match er.er_tier with
      | Tiered.Interpreter ->
        incr interp_inv;
        interp_cycles := !interp_cycles + er.er_cycles
      | Tiered.Jit ->
        incr jit_inv;
        jit_cycles := !jit_cycles + er.er_cycles);
      compile_us := !compile_us +. er.er_compile_us)
    records;
  let invocations = !interp_inv + !jit_inv in
  let cold_weighted =
    List.fold_left
      (fun acc r -> acc +. (float_of_int r.kr_invocations *. r.kr_cold_compile_us))
      0.0 rows
  in
  let cold_known =
    List.fold_left
      (fun acc r ->
        if r.kr_cold_compile_us > 0.0 then acc + r.kr_invocations else acc)
      0 rows
  in
  {
    rp_trace = trace_desc;
    rp_invocations = invocations;
    rp_interp_invocations = !interp_inv;
    rp_jit_invocations = !jit_inv;
    rp_total_cycles = !interp_cycles + !jit_cycles;
    rp_interp_cycles = !interp_cycles;
    rp_jit_cycles = !jit_cycles;
    rp_total_compile_us = !compile_us;
    rp_cold_compile_us =
      (if cold_known = 0 then 0.0 else cold_weighted /. float_of_int cold_known);
    rp_amortized_us =
      (if invocations = 0 then 0.0
       else !compile_us /. float_of_int invocations);
    rp_hits = hits;
    rp_misses = misses;
    rp_evictions = evictions;
    rp_rejuvenations = rejuvenations;
    rp_hit_rate = hit_rate;
    rp_oracle_checks = Stats.counter st "oracle.checks";
    rp_oracle_mismatches = Stats.counter st "oracle.mismatches";
    rp_quarantines = Stats.counter st "guard.quarantines";
    rp_demotions = Stats.counter st "tier.demotions";
    rp_retries = Stats.counter st "guard.retries";
    rp_exec_faults = Stats.counter st "guard.exec_faults";
    rp_compile_errors = Stats.counter st "guard.compile_errors";
    rp_scalarize_fallbacks = Stats.counter st "guard.scalarize_fallbacks";
    rp_injected_compile = Stats.counter st "faults.injected_compile";
    rp_corrupted_bodies = Stats.counter st "faults.corrupted_bodies";
    rp_rows = rows;
    rp_stats = st;
  }

(* Observability gauges, recorded once a replay finishes.  Deliberately
   gauges, not counters: [Stats.to_table] renders counters and histograms
   only, so reports stay byte-identical whether or not anyone exports
   metrics.  They pool additively under [Stats.merge_into]. *)
let record_gauges ~cache ~tiered ~(guard : Tiered.guard) (st : Stats.t) =
  Stats.add_gauge st "cache.bytes"
    (float_of_int (Code_cache.byte_count cache));
  Stats.add_gauge st "cache.entries"
    (float_of_int (Code_cache.entry_count cache));
  (* Gauge views of the eviction lifecycle (the counters of the same
     events live under cache.evictions / cache.invalidations; distinct
     gauge names keep the Prometheus TYPE lines collision-free). *)
  Stats.add_gauge st "cache.evicted_entries"
    (float_of_int (Code_cache.evictions cache));
  Stats.add_gauge st "cache.invalidated_entries"
    (float_of_int (Code_cache.invalidations cache));
  (* Plain field, never a counter: a warm (store-served) run differs
     from a cold one here, and reports must not. *)
  Stats.add_gauge st "jit.real_compiles"
    (float_of_int (Code_cache.real_compiles cache));
  let quarantined =
    List.fold_left
      (fun n (s : Tiered.kstate) ->
        if s.Tiered.ks_quarantined then n + 1 else n)
      0 (Tiered.states tiered)
  in
  Stats.add_gauge st "tier.quarantined_kernels" (float_of_int quarantined);
  match guard.Tiered.g_faults with
  | Some f ->
    Stats.add_gauge st "faults.corrupt_draws"
      (float_of_int (Faults.corrupt_draws f));
    Stats.add_gauge st "faults.compile_fault_draws"
      (float_of_int (Faults.compile_fault_draws f));
    Stats.add_gauge st "faults.store_corrupt_draws"
      (float_of_int (Faults.store_corrupt_draws f));
    Stats.add_gauge st "faults.store_corrupted"
      (float_of_int (Faults.store_corrupted_count f));
    Stats.add_gauge st "faults.store_io_draws"
      (float_of_int (Faults.store_io_draws f));
    Stats.add_gauge st "faults.store_io_faults"
      (float_of_int (Faults.store_io_fault_count f))
  | None -> ()

(* Store gauges are recorded once, post-merge, from the store's own
   counters — they are whole-store facts, not per-shard ones, so they
   use [set_gauge] (idempotent) rather than pooling. *)
let record_store_gauges ~(store : Store.t) (st : Stats.t) =
  let c = Store.counters store in
  let set n v = Stats.set_gauge st n (float_of_int v) in
  set "store.probes" c.Store.c_probes;
  set "store.hits" c.Store.c_hits;
  set "store.misses" c.Store.c_misses;
  set "store.verify_fails" c.Store.c_verify_fails;
  set "store.publishes" c.Store.c_publishes;
  set "store.quarantined" c.Store.c_quarantined;
  set "store.gc_evictions" c.Store.c_gc_evictions;
  set "store.torn_healed" c.Store.c_torn_healed;
  set "store.retries" c.Store.c_retries;
  set "store.entries" (Store.entry_count store);
  set "store.bytes" (Store.byte_count store);
  if c.Store.c_hits + c.Store.c_misses > 0 then
    Stats.set_gauge st "store.hit_rate"
      (float_of_int c.Store.c_hits
      /. float_of_int (c.Store.c_hits + c.Store.c_misses))

(* Fold the pool into its final report: record per-shard gauges, pool
   registries, absorb shard tracers, run the single-writer store merge,
   and aggregate cache counters.  Call once, after all events ran. *)
let pool_report ?stats pool ~trace_desc ~(records : event_record list) :
    report =
  let shards = pool.pl_shards in
  Array.iter
    (fun sh ->
      record_gauges ~cache:sh.sh_cache ~tiered:sh.sh_tiered ~guard:sh.sh_guard
        sh.sh_stats)
    shards;
  let st = match stats with Some s -> s | None -> Stats.create () in
  Array.iter
    (fun sh ->
      Stats.merge_into ~dst:st sh.sh_stats;
      (* a single shard traces straight into the parent tracer *)
      if Array.length shards > 1 then
        Tracer.absorb ~into:pool.pl_tracer sh.sh_tracer)
    shards;
  (match pool.pl_cfg.cfg_store with
  | Some store ->
    Store.merge store (Array.to_list pool.pl_sessions);
    record_store_gauges ~store st
  | None -> ());
  let rows =
    Array.to_list shards
    |> List.concat_map (fun sh -> rows_of sh.sh_tiered)
    |> List.sort (fun a b ->
           compare (a.kr_kernel, a.kr_target) (b.kr_kernel, b.kr_target))
  in
  let sum f = Array.fold_left (fun acc sh -> acc + f sh.sh_cache) 0 shards in
  let hits = sum Code_cache.hits and misses = sum Code_cache.misses in
  let hit_rate =
    if hits + misses = 0 then 0.0
    else float_of_int hits /. float_of_int (hits + misses)
  in
  report_of ~trace_desc ~records ~rows ~hits ~misses
    ~evictions:(sum Code_cache.evictions)
    ~rejuvenations:(sum Code_cache.rejuvenations)
    ~hit_rate ~st

(* The trace is partitioned by kernel digest so every invocation of one
   bytecode body lands in the same shard — tier state and the code cache
   need no cross-domain sharing.  Shard assignment balances
   per-digest event counts (LPT) and the pool clamps spawned OS domains to
   the core count; per-event records merge back in trace order, so the
   merged report is identical for any shard count and any core count
   (and, when each shard's cache stays under budget — no cross-kernel
   evictions — identical to the single-domain replay). *)
let replay ?stats ?(tracer = Tracer.disabled) ?(domains = 1) (cfg : config)
    (trace : Trace.t) : report =
  let domains = max 1 domains in
  let pool =
    pool_create ~tracer ~shards:domains cfg ~kernels:trace.Trace.tr_kernels
  in
  let weights =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (ev : Trace.event) ->
        let prev =
          Option.value ~default:0 (Hashtbl.find_opt tbl ev.Trace.ev_kernel)
        in
        Hashtbl.replace tbl ev.Trace.ev_kernel (prev + 1))
      trace.Trace.tr_events;
    Hashtbl.fold (fun k c acc -> (k, c) :: acc) tbl []
  in
  let shard_of = pool_assign pool ~weights in
  let parts = Array.make domains [] in
  List.iter
    (fun (ev : Trace.event) ->
      let i = shard_of ev.Trace.ev_kernel in
      parts.(i) <- ev :: parts.(i))
    trace.Trace.tr_events;
  let records = pool_run pool (Array.map List.rev parts) in
  pool_report ?stats pool ~trace_desc:(Trace.describe trace) ~records

let tier_table_to_string rp =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "  %-16s %-8s %-12s %6s %7s %5s %9s %10s\n" "kernel"
    "target" "digest" "inv" "interp" "jit" "promoted" "cold us";
  List.iter
    (fun r ->
      Printf.bprintf buf "  %-16s %-8s %-12s %6d %7d %5d %9s %10.1f%s\n"
        r.kr_kernel r.kr_target r.kr_digest r.kr_invocations r.kr_interp_runs
        r.kr_jit_runs
        (match r.kr_promoted_at with
        | Some n -> Printf.sprintf "@%d" n
        | None -> "-")
        r.kr_cold_compile_us
        (if r.kr_quarantined then "  QUARANTINED" else ""))
    rp.rp_rows;
  Buffer.contents buf

let print_tier_table rp = print_string (tier_table_to_string rp)

let report_to_string rp =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "replay: %s\n" rp.rp_trace;
  Printf.bprintf buf "  invocations        %10d  (interp %d, jit %d)\n"
    rp.rp_invocations rp.rp_interp_invocations rp.rp_jit_invocations;
  Printf.bprintf buf "  modeled cycles     %10d  (interp %d, jit %d)\n"
    rp.rp_total_cycles rp.rp_interp_cycles rp.rp_jit_cycles;
  Printf.bprintf buf "  throughput         %10.1f  invocations / Mcycle\n"
    (throughput rp);
  Printf.bprintf buf "  compile time paid  %10.1f  us total\n"
    rp.rp_total_compile_us;
  Printf.bprintf buf "  cold compile       %10.1f  us / invocation (uncached)\n"
    rp.rp_cold_compile_us;
  Printf.bprintf buf
    "  amortized compile  %10.3f  us / invocation (%.0fx cheaper)\n"
    rp.rp_amortized_us (amortization_factor rp);
  Printf.bprintf buf
    "  code cache         hits %d  misses %d  evictions %d  rejuvenations %d  \
     (hit rate %.1f%%)\n"
    rp.rp_hits rp.rp_misses rp.rp_evictions rp.rp_rejuvenations
    (100.0 *. rp.rp_hit_rate);
  if guarded_activity rp then begin
    Printf.bprintf buf "guarded execution:\n";
    Printf.bprintf buf "  oracle checks      %10d  (mismatches caught %d)\n"
      rp.rp_oracle_checks rp.rp_oracle_mismatches;
    Printf.bprintf buf "  quarantines        %10d  (tier demotions %d)\n"
      rp.rp_quarantines rp.rp_demotions;
    Printf.bprintf buf
      "  compile retries    %10d  (injected faults %d, hard errors %d)\n"
      rp.rp_retries rp.rp_injected_compile rp.rp_compile_errors;
    Printf.bprintf buf "  exec faults        %10d  (corrupted bodies %d)\n"
      rp.rp_exec_faults rp.rp_corrupted_bodies;
    if rp.rp_scalarize_fallbacks > 0 then
      Printf.bprintf buf "  scalarize fallbacks %9d\n" rp.rp_scalarize_fallbacks
  end;
  Printf.bprintf buf "tier breakdown:\n";
  Buffer.add_string buf (tier_table_to_string rp);
  Buffer.contents buf

let print_report rp = print_string (report_to_string rp)

(* --- JSON rendering ---------------------------------------------------- *)

let report_to_json rp =
  let buf = Buffer.create 2048 in
  let field name value = Printf.bprintf buf "  %S: %s,\n" name value in
  Buffer.add_string buf "{\n";
  field "trace" (Printf.sprintf "\"%s\"" (Json.escape rp.rp_trace));
  field "invocations" (string_of_int rp.rp_invocations);
  field "interp_invocations" (string_of_int rp.rp_interp_invocations);
  field "jit_invocations" (string_of_int rp.rp_jit_invocations);
  field "total_cycles" (string_of_int rp.rp_total_cycles);
  field "interp_cycles" (string_of_int rp.rp_interp_cycles);
  field "jit_cycles" (string_of_int rp.rp_jit_cycles);
  field "throughput_inv_per_mcycle" (Json.float (throughput rp));
  field "total_compile_us" (Json.float rp.rp_total_compile_us);
  field "cold_compile_us" (Json.float rp.rp_cold_compile_us);
  field "amortized_us" (Json.float rp.rp_amortized_us);
  field "cache_hits" (string_of_int rp.rp_hits);
  field "cache_misses" (string_of_int rp.rp_misses);
  field "cache_evictions" (string_of_int rp.rp_evictions);
  field "cache_rejuvenations" (string_of_int rp.rp_rejuvenations);
  field "cache_hit_rate" (Json.float rp.rp_hit_rate);
  field "oracle_checks" (string_of_int rp.rp_oracle_checks);
  field "oracle_mismatches" (string_of_int rp.rp_oracle_mismatches);
  field "quarantines" (string_of_int rp.rp_quarantines);
  field "corrupted_bodies" (string_of_int rp.rp_corrupted_bodies);
  Buffer.add_string buf "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      Printf.bprintf buf
        "    {\"kernel\": \"%s\", \"target\": \"%s\", \"digest\": \"%s\", \
         \"invocations\": %d, \"interp_runs\": %d, \"jit_runs\": %d, \
         \"cold_compile_us\": %s, \"quarantined\": %b}%s\n"
        (Json.escape r.kr_kernel) (Json.escape r.kr_target)
        (Json.escape r.kr_digest) r.kr_invocations r.kr_interp_runs
        r.kr_jit_runs
        (Json.float r.kr_cold_compile_us)
        r.kr_quarantined
        (if i = List.length rp.rp_rows - 1 then "" else ","))
    rp.rp_rows;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"counters\": {\n";
  let names = Stats.counter_names rp.rp_stats in
  List.iteri
    (fun i name ->
      Printf.bprintf buf "    \"%s\": %d%s\n" (Json.escape name)
        (Stats.counter rp.rp_stats name)
        (if i = List.length names - 1 then "" else ","))
    names;
  Buffer.add_string buf "  }\n";
  Buffer.add_string buf "}\n";
  Buffer.contents buf
