(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section V), then times the toolchain's own stages with
   Bechamel — one benchmark per reproduced table/figure.

     dune exec bench/main.exe                  full experiments + microbenchmarks
     dune exec bench/main.exe -- quick         experiments only
     dune exec bench/main.exe -- bench-replay  wall-clock fast-path bench only
     add --json to also write BENCH.json *)

module E = Vapor_harness.Experiments
module R = Vapor_harness.Report
module Suite = Vapor_kernels.Suite
module Flows = Vapor_harness.Flows
module Driver = Vapor_vectorizer.Driver
module Profile = Vapor_jit.Profile
module Compile = Vapor_jit.Compile
module Iaca = Vapor_machine.Iaca

let scale = 2

(* ---------------------------------------------------------------------- *)
(* Part 1: the paper's tables and figures.                                 *)

let run_experiments () =
  Printf.printf
    "Vapor SIMD reproduction: auto-vectorize once, run everywhere\n";
  Printf.printf
    "=============================================================\n";
  Printf.printf "(workload scale %d; see EXPERIMENTS.md for the\n" scale;
  Printf.printf " paper-vs-measured comparison of every row)\n";

  let rows, mean = E.fig5 ~target:Vapor_targets.Sse.target ~scale in
  R.print_rows
    ~title:"Figure 5a: Mono normalized vectorization impact, SSE (128-bit)"
    ~value_label:"higher is better" ~mean_label:"Arith. Mean" ~mean rows;

  let rows, mean = E.fig5 ~target:Vapor_targets.Altivec.target ~scale in
  R.print_rows
    ~title:
      "Figure 5b: Mono normalized vectorization impact, AltiVec (128-bit)"
    ~value_label:"higher is better" ~mean_label:"Arith. Mean" ~mean rows;

  List.iter
    (fun (tag, target) ->
      let rows, mean = E.fig6 ~target ~scale in
      R.print_rows
        ~title:
          (Printf.sprintf
             "Figure 6%s: gcc4cli normalized execution time, %s" tag
             target.Vapor_targets.Target.name)
        ~value_label:"lower is better" ~mean_label:"Har. Mean" ~mean rows)
    [
      "a (128-bit)", Vapor_targets.Sse.target;
      "b (128-bit)", Vapor_targets.Altivec.target;
      "c (64-bit)", Vapor_targets.Neon.target;
    ];

  R.print_table3 (E.table3 ());

  List.iter
    (fun target ->
      let rows, mean = E.ablation ~target ~scale in
      R.print_rows
        ~title:
          (Printf.sprintf
             "Section V-A.b ablation: alignment optimizations disabled, %s"
             target.Vapor_targets.Target.name)
        ~value_label:"degradation factor" ~mean_label:"Average" ~mean rows)
    [ Vapor_targets.Sse.target; Vapor_targets.Altivec.target ];

  R.print_design_ablations
    (E.design_ablations ~target:Vapor_targets.Altivec.target ~scale);

  R.print_compile_stats (E.compile_stats ())

(* ---------------------------------------------------------------------- *)
(* Part 2: the runtime subsystem — replay a standard seeded trace through
   the tiered (interpreter -> JIT) runtime with the content-addressed code
   cache, once per SIMD target, and report what a managed runtime
   amortizes: JIT compile cost per invocation and cache hit rate.          *)

module Service = Vapor_runtime.Service
module Trace = Vapor_runtime.Trace

let replay_trace_length = 400
let replay_hotness = 3

let run_replay () =
  Printf.printf "\nTiered runtime replay (standard trace, %d events)\n"
    replay_trace_length;
  Printf.printf "=================================================\n";
  Printf.printf
    "(hotness threshold %d; cache 64 entries / 256 KiB; mono profile)\n\n"
    replay_hotness;
  let trace =
    Trace.standard ~length:replay_trace_length ~n_targets:1 ()
  in
  let reports =
    List.map
      (fun target ->
        let cfg =
          {
            (Service.default_config ~targets:[ target ]) with
            Service.cfg_hotness = replay_hotness;
          }
        in
        target, Service.replay cfg trace)
      Vapor_targets.Scalar_target.all_simd
  in
  Printf.printf "  %-8s %6s %9s %9s %11s %11s %10s %9s\n" "target" "inv"
    "hit rate" "evict" "cold us" "amort us" "amortized" "promoted";
  List.iter
    (fun ((target : Vapor_targets.Target.t), rp) ->
      let promoted =
        List.length
          (List.filter
             (fun (r : Service.kernel_row) -> r.Service.kr_promoted_at <> None)
             rp.Service.rp_rows)
      in
      Printf.printf "  %-8s %6d %8.1f%% %9d %11.2f %11.3f %9.0fx %5d/%-3d\n"
        target.Vapor_targets.Target.name rp.Service.rp_invocations
        (100.0 *. rp.Service.rp_hit_rate)
        rp.Service.rp_evictions rp.Service.rp_cold_compile_us
        rp.Service.rp_amortized_us
        (Service.amortization_factor rp)
        promoted
        (List.length rp.Service.rp_rows))
    reports;
  match reports with
  | (target, rp) :: _ ->
    Printf.printf "\ntier breakdown, %s (interpreter -> JIT promotion):\n"
      target.Vapor_targets.Target.name;
    Service.print_tier_table rp
  | [] -> ()

(* Part 2b: guarded execution under injected faults — the same trace with
   the differential oracle checking every JIT run while bodies are
   corrupted and compiles transiently fail.  The figure of merit is the
   throughput cost of surviving every fault with zero wrong outputs.      *)

module Tiered = Vapor_runtime.Tiered
module Faults = Vapor_runtime.Faults

let run_chaos_replay () =
  Printf.printf "\nGuarded replay under injected faults (seeded chaos)\n";
  Printf.printf "===================================================\n";
  Printf.printf
    "(oracle on every JIT run; 5%% body corruption, 25%% transient \
     compile faults)\n\n";
  let trace =
    Trace.standard ~length:replay_trace_length ~n_targets:1 ()
  in
  Printf.printf "  %-8s %6s %8s %11s %11s %8s %8s %10s\n" "target" "inv"
    "checks" "mismatches" "quarantines" "retries" "demoted" "thru cost";
  List.iter
    (fun (target : Vapor_targets.Target.t) ->
      let healthy_cfg =
        {
          (Service.default_config ~targets:[ target ]) with
          Service.cfg_hotness = replay_hotness;
        }
      in
      let healthy = Service.replay healthy_cfg trace in
      let faults = Faults.make (Faults.chaos_spec ~seed:1) in
      let cfg =
        {
          healthy_cfg with
          Service.cfg_guard =
            {
              Tiered.g_oracle = Some Tiered.oracle_always;
              g_faults = Some faults;
              g_retry_budget = 3;
            };
        }
      in
      let rp = Service.replay cfg trace in
      let cost =
        if Service.throughput rp <= 0.0 then Float.infinity
        else Service.throughput healthy /. Service.throughput rp
      in
      Printf.printf "  %-8s %6d %8d %11d %11d %8d %8d %9.2fx\n"
        target.Vapor_targets.Target.name rp.Service.rp_invocations
        rp.Service.rp_oracle_checks rp.Service.rp_oracle_mismatches
        rp.Service.rp_quarantines rp.Service.rp_retries
        rp.Service.rp_demotions cost)
    Vapor_targets.Scalar_target.all_simd

(* ---------------------------------------------------------------------- *)
(* Part 3: Bechamel microbenchmarks of the pipeline stages that produce
   each table — offline vectorization, JIT compilation, simulation.        *)

open Bechamel
open Toolkit

let kernel_of name = Suite.kernel (Suite.find name)

let bench_fig5_flow () =
  (* One full Figure-5 data point: the four flows for one kernel. *)
  let entry = Suite.find "saxpy_fp" in
  ignore (E.fig5_impact ~target:Vapor_targets.Sse.target ~scale:1 entry)

let bench_fig6_flow () =
  let entry = Suite.find "jacobi_fp" in
  ignore (E.fig6_ratio ~target:Vapor_targets.Altivec.target ~scale:1 entry)

let bench_offline_vectorizer () =
  (* The offline stage (uncached) on a representative kernel. *)
  ignore (Driver.vectorize (kernel_of "interp_s16"))

let bench_jit_compile () =
  (* Table 3's producer: online compilation of one kernel for AVX. *)
  let bytecode =
    (Flows.vectorized_bytecode (Suite.find "sfir_fp")).Driver.vkernel
  in
  let c =
    Compile.compile ~target:Vapor_targets.Avx.target ~profile:Profile.avx_split
      bytecode
  in
  ignore (Iaca.vector_loop_cycles Vapor_targets.Avx.target c.Compile.mfun)

let bench_codec () =
  (* The bytecode-size table's producer: encode + decode round trip. *)
  let bytecode =
    (Flows.vectorized_bytecode (Suite.find "mmm_fp")).Driver.vkernel
  in
  ignore (Vapor_vecir.Encode.decode (Vapor_vecir.Encode.encode bytecode))

let benchmarks =
  Test.make_grouped ~name:"vapor"
    [
      Test.make ~name:"fig5-datapoint" (Staged.stage bench_fig5_flow);
      Test.make ~name:"fig6-datapoint" (Staged.stage bench_fig6_flow);
      Test.make ~name:"offline-vectorize"
        (Staged.stage bench_offline_vectorizer);
      Test.make ~name:"table3-jit+iaca" (Staged.stage bench_jit_compile);
      Test.make ~name:"sizes-codec" (Staged.stage bench_codec);
    ]

let run_benchmarks () =
  Printf.printf "\nBechamel microbenchmarks (toolchain stages)\n";
  Printf.printf "===========================================\n%!";
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let instances = Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances benchmarks in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun instance ->
      let tbl = Analyze.all ols instance raw in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-28s %12.1f ns/run\n" name est
          | Some _ | None -> Printf.printf "  %-28s (no estimate)\n" name)
        tbl)
    instances


(* ---------------------------------------------------------------------- *)
(* Part 4: wall-clock throughput of the fast execution engine — the
   pre-resolved simulator plans — against the reference engine, plus the
   domain-sharded replay driver.
   Everything else in this harness measures *modeled* cycles; this part
   measures real elapsed time, which is what the fast path buys.          *)

module Simulator = Vapor_machine.Simulator
module Layout = Vapor_machine.Layout
module Exec = Vapor_harness.Exec

let now () = Unix.gettimeofday ()

let time_s f =
  let t0 = now () in
  f ();
  now () -. t0

(* Best of three: wall-clock on a shared machine is noisy downward only. *)
(* Settle the GC before each sample so a major collection inherited from
   the previous measurement does not land in this one; best-of-N then
   absorbs any collection the sample itself triggers. *)
let best_of n f =
  let sample () =
    Gc.full_major ();
    time_s f
  in
  let best = ref (sample ()) in
  for _ = 2 to n do
    let s = sample () in
    if s < !best then best := s
  done;
  !best

let best_of_3 f = best_of 3 f

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* A paired A/B of one workload with a feature off and on: [pairs]
   alternating (off, on) samples, each after a settling full GC, so both
   halves of a pair see the machine in the same state.  A ratio of two
   separate best-of-N minima compares two different moments of a shared
   machine; the median of the per-pair ratios does not. *)
type paired = {
  pr_pairs : int;
  pr_off_s : float; (* median seconds per run, off *)
  pr_on_s : float; (* median seconds per run, on *)
  pr_ratio : float; (* median over the pairs of on / off *)
  pr_minima_ratio : float; (* min on / min off, the separate-minima reading *)
}

let paired ?(pairs = 9) off on =
  let offs = Array.make pairs 0.0 and ons = Array.make pairs 0.0 in
  for i = 0 to pairs - 1 do
    Gc.full_major ();
    offs.(i) <- time_s off;
    Gc.full_major ();
    ons.(i) <- time_s on
  done;
  let lowest a = Array.fold_left Float.min Float.infinity a in
  {
    pr_pairs = pairs;
    pr_off_s = median offs;
    pr_on_s = median ons;
    pr_ratio = median (Array.init pairs (fun i -> ons.(i) /. offs.(i)));
    pr_minima_ratio = lowest ons /. lowest offs;
  }

let micro_iters = 2_000

(* Per-run ns of the machine simulator: Simulator.run (per-run label
   resolution and assoc-list binding) vs the pre-resolved plan. *)
let micro_simulator () =
  let entry = Suite.find "sfir_fp" in
  let vk = (Flows.vectorized_bytecode entry).Driver.vkernel in
  let target = Vapor_targets.Sse.target in
  let compiled = Compile.compile ~target ~profile:Profile.gcc4cli vk in
  let args = entry.Suite.args ~scale:1 in
  let arrays, scalars = Exec.split_args args in
  let stack_bytes =
    max Layout.default_stack_bytes
      (compiled.Compile.mfun.Vapor_machine.Mfun.stack_bytes + 256)
  in
  let layout =
    Layout.plan ~stack_bytes ~policy:Layout.aligned_policy arrays
  in
  let mem = Layout.materialize layout arrays in
  let plan = compiled.Compile.plan in
  ignore (Simulator.run target layout mem compiled.Compile.mfun
            ~scalar_args:scalars);
  ignore (Simulator.run_plan plan layout mem ~scalar_args:scalars);
  let ref_s =
    best_of_3 (fun () ->
        for _ = 1 to micro_iters do
          ignore
            (Simulator.run target layout mem compiled.Compile.mfun
               ~scalar_args:scalars)
        done)
  in
  let fast_s =
    best_of_3 (fun () ->
        for _ = 1 to micro_iters do
          ignore (Simulator.run_plan plan layout mem ~scalar_args:scalars)
        done)
  in
  let per x = x *. 1e9 /. float_of_int micro_iters in
  per ref_s, per fast_s

let bench_replay_length = 2_000

let replay_cfg ~engine ~guard target =
  {
    (Service.default_config ~targets:[ target ]) with
    Service.cfg_hotness = replay_hotness;
    cfg_engine = engine;
    cfg_guard = guard;
  }

(* Wall-clock replay throughput per engine; the replay itself is the
   serving loop a managed runtime would run, so events/second is the
   headline figure. *)
let bench_replay_target target =
  let trace = Trace.standard ~length:bench_replay_length ~n_targets:1 () in
  let run engine () =
    ignore
      (Service.replay (replay_cfg ~engine ~guard:Tiered.no_guard target) trace)
  in
  let ref_s = best_of 5 (run Tiered.Reference) in
  let fast_s = best_of 5 (run Tiered.Fast) in
  let per_s x = float_of_int bench_replay_length /. x in
  target, per_s ref_s, per_s fast_s, ref_s /. fast_s

(* The domains curve is cores-aware: the replay spawns at most
   [recommended_domain_count] OS domains, so the measured scaling (and
   the CI gate on it) is only meaningful relative to the cores the run
   actually had.  The core count is recorded alongside the curve. *)
let bench_domains () =
  let target = Vapor_targets.Sse.target in
  let trace = Trace.standard ~length:bench_replay_length ~n_targets:1 () in
  let cfg = replay_cfg ~engine:Tiered.Fast ~guard:Tiered.no_guard target in
  let baseline =
    Service.report_to_string (Service.replay ~domains:1 cfg trace)
  in
  let rows =
    List.map
      (fun domains ->
        let report = ref baseline in
        let s =
          best_of_3 (fun () ->
              report :=
                Service.report_to_string
                  (Service.replay ~domains cfg trace))
        in
        ( domains,
          float_of_int bench_replay_length /. s,
          String.equal baseline !report ))
      [ 1; 2; 4 ]
  in
  let base_ps =
    match rows with (_, ps, _) :: _ -> ps | [] -> 1.0
  in
  ( Domain.recommended_domain_count (),
    List.map (fun (d, ps, same) -> d, ps, ps /. base_ps, same) rows )

let bench_oracle () =
  let target = Vapor_targets.Sse.target in
  let trace = Trace.standard ~length:bench_replay_length ~n_targets:1 () in
  let guard =
    {
      Tiered.g_oracle = Some Tiered.oracle_always;
      g_faults = None;
      g_retry_budget = 3;
    }
  in
  let unguarded =
    best_of_3 (fun () ->
        ignore
          (Service.replay
             (replay_cfg ~engine:Tiered.Fast ~guard:Tiered.no_guard target)
             trace))
  in
  let guarded =
    best_of_3 (fun () ->
        ignore
          (Service.replay (replay_cfg ~engine:Tiered.Fast ~guard target) trace))
  in
  unguarded, guarded, guarded /. unguarded

(* Part 4b: the persistent code store — cold (empty store, every body
   JIT-compiled and published) vs warm (every body loaded from disk, zero
   real compiles).  Hotness 0 and a short trace keep compilation a large
   share of the cold run, so the warm win is the store's, not noise.      *)

module Store = Vapor_store.Store
module Stats = Vapor_runtime.Stats

let store_bench_length = 120

type store_bench = {
  sb_events : int;
  sb_cold_s : float;
  sb_warm_s : float;
  sb_warm_real_compiles : int;
  sb_warm_hit_rate : float;
  sb_identical : bool;
}

let bench_store () =
  let target = Vapor_targets.Sse.target in
  let trace = Trace.standard ~length:store_bench_length ~n_targets:1 () in
  let cfg store =
    {
      (replay_cfg ~engine:Tiered.Fast ~guard:Tiered.no_guard target) with
      Service.cfg_hotness = 0;
      cfg_store = Some store;
    }
  in
  let open_store dir =
    match Store.open_store ~create:true dir with
    | Ok s -> s
    | Error m -> failwith ("bench store: " ^ m)
  in
  (* Cold: each sample gets a virgin store directory. *)
  let cold_report = ref "" in
  let cold_s =
    best_of_3 (fun () ->
        let s = open_store (Filename.temp_dir "vapor_bench_store" ".cold") in
        cold_report := Service.report_to_string (Service.replay (cfg s) trace))
  in
  (* Warm: populate one store, then replay against reopened handles so
     every sample pays the real disk reads a fresh process would. *)
  let dir = Filename.temp_dir "vapor_bench_store" ".warm" in
  ignore (Service.replay (cfg (open_store dir)) trace);
  let warm_report = ref "" and warm_stats = ref (Stats.create ()) in
  let warm_s =
    best_of_3 (fun () ->
        let st = Stats.create () in
        warm_report :=
          Service.report_to_string
            (Service.replay ~stats:st (cfg (open_store dir)) trace);
        warm_stats := st)
  in
  let gauge name = Option.value ~default:0.0 (Stats.gauge !warm_stats name) in
  {
    sb_events = store_bench_length;
    sb_cold_s = cold_s;
    sb_warm_s = warm_s;
    sb_warm_real_compiles = int_of_float (gauge "jit.real_compiles");
    sb_warm_hit_rate = gauge "store.hit_rate";
    sb_identical = String.equal !cold_report !warm_report;
  }

(* Part 4c: the serving layer — the same trace fanned across concurrent
   streams through the discrete-event serve engine (admission control,
   backpressure, deadlines, breaker).  The figures of merit are serving
   throughput, zero lost events, byte-identity of the drained report with
   a plain replay, and conservation under serving-shaped chaos.           *)

module Serve = Vapor_serve.Serve
module Workload = Vapor_serve.Workload

type serve_bench = {
  vb_events : int;
  vb_streams : int;
  vb_s : float;
  vb_answered : int;
  vb_lost : int;
  vb_identical : bool;
  vb_chaos_conserved : bool;
}

let bench_serve () =
  let target = Vapor_targets.Sse.target in
  let trace = Trace.standard ~length:bench_replay_length ~n_targets:1 () in
  let cfg = replay_cfg ~engine:Tiered.Fast ~guard:Tiered.no_guard target in
  let wl = Workload.of_trace ~streams:4 trace in
  let scfg = Serve.default_cfg cfg in
  let rep = ref (Serve.run scfg wl) in
  let s = best_of_3 (fun () -> rep := Serve.run scfg wl) in
  let embedded = Service.report_to_string !rep.Serve.sr_service in
  let replayed = Service.report_to_string (Service.replay cfg trace) in
  let chaos_ok =
    let faults = Faults.make (Faults.serve_chaos_spec ~seed:42) in
    let ccfg =
      {
        cfg with
        Service.cfg_guard =
          {
            Tiered.g_oracle = Some Tiered.oracle_always;
            g_faults = Some faults;
            g_retry_budget = 3;
          };
      }
    in
    let crep =
      Serve.run
        { (Serve.default_cfg ccfg) with Serve.sv_faults = Some faults }
        (Workload.of_trace ~streams:4 trace)
    in
    crep.Serve.sr_lost = 0
    && crep.Serve.sr_service.Service.rp_oracle_mismatches
       <= crep.Serve.sr_service.Service.rp_quarantines
  in
  {
    vb_events = Workload.total wl;
    vb_streams = Workload.streams wl;
    vb_s = s;
    vb_answered = !rep.Serve.sr_answered;
    vb_lost = !rep.Serve.sr_lost;
    vb_identical = String.equal embedded replayed;
    vb_chaos_conserved = chaos_ok;
  }

(* Part 4d: batched dispatch — the same 8-stream flood served with batch
   formation off (--max-batch 1, the exact unbatched path) and on.  The
   figures of merit are the wall-clock speedup from duplicate-operand
   elision and byte-identity of the two embedded replay reports (batching
   must be semantics-free).                                               *)

type batch_bench = {
  tb_events : int;
  tb_streams : int;
  tb_times : paired; (* off = unbatched, on = batched *)
  tb_mean_batch : float;
  tb_identical : bool;
}

let bench_batch () =
  let target = Vapor_targets.Sse.target in
  let trace = Trace.standard ~length:bench_replay_length ~n_targets:1 () in
  let cfg = replay_cfg ~engine:Tiered.Fast ~guard:Tiered.no_guard target in
  let mk max_batch =
    {
      (Serve.default_cfg cfg) with
      Serve.sv_budget = 64;
      sv_max_batch = max_batch;
      sv_batch_window = 32_768;
    }
  in
  let wl = Workload.of_trace ~streams:8 trace in
  let off_rep = ref (Serve.run (mk 1) wl) in
  let on_rep = ref (Serve.run (mk 32) wl) in
  let times =
    paired
      (fun () -> off_rep := Serve.run (mk 1) wl)
      (fun () -> on_rep := Serve.run (mk 32) wl)
  in
  let embedded r = Service.report_to_string r.Serve.sr_service in
  {
    tb_events = Workload.total wl;
    tb_streams = Workload.streams wl;
    tb_times = times;
    tb_mean_batch =
      (if !on_rep.Serve.sr_batches = 0 then 0.0
       else
         float_of_int !on_rep.Serve.sr_batched_events
         /. float_of_int !on_rep.Serve.sr_batches);
    tb_identical = String.equal (embedded !off_rep) (embedded !on_rep);
  }

(* Part 4e: crash recovery — the same 4-stream flood served with the
   recovery machinery off, with write-ahead journaling + periodic
   checkpoints on (--checkpoint-every 4096), and with a seeded kill
   schedule spliced in.  The figures of merit are the journaling
   overhead ratio (the median over paired runs, gated in CI at <= 10%),
   the wall-clock recovery cost per crash, and byte-identity of the
   recovered drain report with the crash-free run.                        *)

type recovery_bench = {
  rb_events : int;
  (* off = recovery machinery off, on = on-disk journal + checkpoints *)
  rb_journal : paired;
  rb_crashes : int;
  rb_recovery_us : float;  (* mean wall-clock per recovered crash *)
  rb_identical : bool;  (* crash run == crash-free, byte-for-byte *)
}

let bench_recovery () =
  let target = Vapor_targets.Sse.target in
  let trace = Trace.standard ~length:bench_replay_length ~n_targets:1 () in
  let cfg = replay_cfg ~engine:Tiered.Fast ~guard:Tiered.no_guard target in
  let wl = Workload.of_trace ~streams:4 trace in
  let off_cfg = Serve.default_cfg cfg in
  let mk ?(crash_at = []) ?journal_dir () =
    {
      off_cfg with
      Serve.sv_checkpoint_every = 4096;
      sv_journal_dir = journal_dir;
      sv_crash_at = crash_at;
    }
  in
  let dir = Filename.temp_dir "vapor_bench_journal" ".tmp" in
  let journal =
    paired
      (fun () -> ignore (Serve.run off_cfg wl))
      (fun () -> ignore (Serve.run (mk ~journal_dir:dir ()) wl))
  in
  (* The kill schedule spreads eight crashes across the run; the journal
     stays memory-only here so the measured delta is recovery work
     (restore + replay), not disk traffic. *)
  let kills = List.init 8 (fun i -> 100 + (i * 230)) in
  let base_rep = ref (Serve.run (mk ()) wl) in
  let base_s = best_of_3 (fun () -> base_rep := Serve.run (mk ()) wl) in
  let crash_rep = ref (Serve.run (mk ~crash_at:kills ()) wl) in
  let crash_s =
    best_of_3 (fun () -> crash_rep := Serve.run (mk ~crash_at:kills ()) wl)
  in
  let crashes = !crash_rep.Serve.sr_crashes in
  {
    rb_events = Workload.total wl;
    rb_journal = journal;
    rb_crashes = crashes;
    rb_recovery_us =
      (if crashes = 0 then 0.0
       else max 0.0 (crash_s -. base_s) *. 1e6 /. float_of_int crashes);
    rb_identical =
      String.equal
        (Serve.report_to_string !base_rep)
        (Serve.report_to_string !crash_rep);
  }

(* Part 4f: the heterogeneous fleet — one trace served across a mixed
   population of all seven target archetypes with mid-trace capability
   upgrades (sse->avx512, neon->sve).  Figures of merit: mixed-population
   serving throughput, rejuvenated bodies recompiled on the upgraded
   targets, the per-target traffic/JIT split, byte-identity of the drain
   report across domain counts, and (without upgrades, over a persistent
   store) a warm second fleet run that recompiles nothing.                *)

type fleet_bench = {
  fl_events : int;
  fl_machines : int;
  fl_s : float;
  fl_rejuvenations : int;
  fl_targets : (string * int * int) list;  (* name, invocations, jit runs *)
  fl_identical_domains : bool;
  fl_warm_real_compiles : int;
  fl_warm_identical : bool;
}

let fleet_population () =
  let module T = Vapor_targets.Target in
  [
    Vapor_targets.Scalar_target.target;
    Vapor_targets.Sse.target;
    Vapor_targets.Avx.target;
    Vapor_targets.Neon.target;
    Vapor_targets.Altivec.target;
    T.resolve ~vl:16 Vapor_targets.Sve.target;
    Vapor_targets.Avx512.target;
  ]

let bench_fleet () =
  let module T = Vapor_targets.Target in
  let population = fleet_population () in
  let machines = List.length population in
  let trace =
    Trace.standard ~length:bench_replay_length ~n_targets:machines ()
  in
  let upgrades =
    [
      bench_replay_length / 3, Vapor_targets.Sse.target,
      Vapor_targets.Avx512.target;
      bench_replay_length / 3, Vapor_targets.Neon.target,
      T.resolve Vapor_targets.Sve.target;
    ]
  in
  let cfg =
    {
      (Service.default_config ~targets:population) with
      Service.cfg_engine = Tiered.Fast;
      cfg_retargets = upgrades;
    }
  in
  let wl = Workload.of_trace ~streams:4 trace in
  let run domains = Serve.run { (Serve.default_cfg cfg) with Serve.sv_domains = domains } wl in
  let rep = ref (run 1) in
  let s = best_of_3 (fun () -> rep := run 1) in
  let embedded r = Service.report_to_string r.Serve.sr_service in
  let identical =
    let base = embedded !rep in
    List.for_all (fun d -> String.equal base (embedded (run d))) [ 2; 4 ]
  in
  let per_target =
    List.fold_left
      (fun acc (r : Service.kernel_row) ->
        let inv, jit =
          try List.assoc r.Service.kr_target acc with Not_found -> 0, 0
        in
        (r.Service.kr_target,
         (inv + r.Service.kr_invocations, jit + r.Service.kr_jit_runs))
        :: List.remove_assoc r.Service.kr_target acc)
      []
      !rep.Serve.sr_service.Service.rp_rows
    |> List.map (fun (t, (i, j)) -> t, i, j)
    |> List.sort compare
  in
  (* Warm identity: the steady-state (post-upgrade) fleet over one
     persistent store — the second run must load every body from disk.
     No retargets here: an upgrade deliberately quarantines the old
     target's stored entries, which is the opposite of a warm start. *)
  let open_store dir =
    match Store.open_store ~create:true dir with
    | Ok s -> s
    | Error m -> failwith ("bench fleet store: " ^ m)
  in
  let dir = Filename.temp_dir "vapor_bench_fleet" ".store" in
  let store_cfg store =
    {
      (Service.default_config ~targets:population) with
      Service.cfg_engine = Tiered.Fast;
      cfg_hotness = 0;
      cfg_store = Some store;
    }
  in
  let short = Trace.standard ~length:store_bench_length ~n_targets:machines () in
  let cold_report =
    Service.report_to_string (Service.replay (store_cfg (open_store dir)) short)
  in
  let warm_stats = Stats.create () in
  let warm_report =
    Service.report_to_string
      (Service.replay ~stats:warm_stats (store_cfg (open_store dir)) short)
  in
  let gauge name = Option.value ~default:0.0 (Stats.gauge warm_stats name) in
  {
    fl_events = Workload.total wl;
    fl_machines = machines;
    fl_s = s;
    fl_rejuvenations = !rep.Serve.sr_service.Service.rp_rejuvenations;
    fl_targets = per_target;
    fl_identical_domains = identical;
    fl_warm_real_compiles = int_of_float (gauge "jit.real_compiles");
    fl_warm_identical = String.equal cold_report warm_report;
  }

(* ---------------------------------------------------------------------- *)
(* Part 5: the JIT cost profiler — per-target aggregates of the per-stage
   compile pipeline costs over the whole suite.  Wall-clock stage sums are
   measured; code bytes, modeled compile time, and the amortized compile
   share come from the runtime's deterministic cost models.               *)

module Jit_report = Vapor_harness.Jit_report

type jit_profile_summary = {
  jp_target : string;
  jp_kernels : int;
  jp_stage_ns : float;  (* lower+emit+regalloc+prepare, summed *)
  jp_code_bytes : int;
  jp_model_us : float;
  jp_mean_share : float;  (* mean compile share at 1000 invocations *)
}

let run_jit_profile () =
  Printf.printf "\nJIT cost profile (per-target aggregates over the suite)\n";
  Printf.printf "=======================================================\n";
  Printf.printf
    "(stage ns = lower+emit+regalloc+prepare wall time, summed; share = \n\
    \ modeled compile share of total cost after 1000 invocations)\n\n%!";
  let summaries =
    List.map
      (fun (target : Vapor_targets.Target.t) ->
        let rows =
          Jit_report.run ~repeats:1 ~targets:[ target ]
            ~profile:Profile.gcc4cli ()
        in
        let open Jit_report in
        let n = List.length rows in
        let stage_ns =
          List.fold_left
            (fun a r ->
              a +. r.jr_lower_ns +. r.jr_emit_ns +. r.jr_regalloc_ns
              +. r.jr_prepare_ns)
            0.0 rows
        in
        let bytes = List.fold_left (fun a r -> a + r.jr_code_bytes) 0 rows in
        let model_us =
          List.fold_left (fun a r -> a +. r.jr_compile_us) 0.0 rows
        in
        let share =
          List.fold_left (fun a r -> a +. r.jr_compile_share) 0.0 rows
          /. float_of_int (max 1 n)
        in
        {
          jp_target = target.Vapor_targets.Target.name;
          jp_kernels = n;
          jp_stage_ns = stage_ns;
          jp_code_bytes = bytes;
          jp_model_us = model_us;
          jp_mean_share = share;
        })
      Vapor_targets.Scalar_target.all
  in
  Printf.printf "  %-8s %8s %14s %11s %11s %11s\n" "target" "kernels"
    "stage ns" "code bytes" "model us" "mean share";
  List.iter
    (fun s ->
      Printf.printf "  %-8s %8d %14.0f %11d %11.1f %10.2f%%\n" s.jp_target
        s.jp_kernels s.jp_stage_ns s.jp_code_bytes s.jp_model_us
        (100.0 *. s.jp_mean_share))
    summaries;
  Printf.printf
    "\n  JIT stage scaling under mono (best-of-7 wall ns on N copies of one \n\
    \  loop and on one loop of N statements, N = 2..128; exponent = fitted \n\
    \  slope of log ns over log N, 1.0 = linear; measured, not gated)\n\n%!";
  let scaling =
    Jit_report.scaling ~targets:Vapor_targets.Scalar_target.all
      ~profile:Profile.mono
  in
  print_string (Jit_report.scaling_to_string scaling);
  summaries, scaling

let run_fastpath_bench ~json () =
  Printf.printf "\nFast-path engine wall-clock benchmark\n";
  Printf.printf "=====================================\n";
  Printf.printf
    "(pre-resolved plans vs the reference engine;\n\
    \ real elapsed time, not modeled cycles)\n\n%!";
  let run_ns, plan_ns = micro_simulator () in
  Printf.printf "  simulator   (sfir_fp, sse)  %10.0f ns/run reference  \
                 %10.0f ns/run plan   (%.1fx)\n\n%!"
    run_ns plan_ns (run_ns /. plan_ns);
  let replay_rows =
    List.map bench_replay_target Vapor_targets.Scalar_target.all_simd
  in
  Printf.printf "  %-8s %16s %16s %9s\n" "target" "ref events/s"
    "fast events/s" "speedup";
  List.iter
    (fun ((t : Vapor_targets.Target.t), ref_ps, fast_ps, speedup) ->
      Printf.printf "  %-8s %16.0f %16.0f %8.2fx\n" t.Vapor_targets.Target.name
        ref_ps fast_ps speedup)
    replay_rows;
  let headline =
    match
      List.find_opt
        (fun ((t : Vapor_targets.Target.t), _, _, _) ->
          t.Vapor_targets.Target.name = "sse")
        replay_rows
    with
    | Some (_, _, _, s) -> s
    | None -> (match replay_rows with (_, _, _, s) :: _ -> s | [] -> 0.0)
  in
  Printf.printf "\n  headline replay speedup (sse): %.2fx\n%!" headline;
  let cores, domain_rows = bench_domains () in
  Printf.printf "\n  %-8s %16s %9s %10s   (%d cores)\n" "domains" "events/s"
    "speedup" "identical" cores;
  List.iter
    (fun (d, per_s, speedup, same) ->
      Printf.printf "  %-8d %16.0f %8.2fx %10s\n" d per_s speedup
        (if same then "yes" else "NO"))
    domain_rows;
  let unguarded_s, guarded_s, overhead = bench_oracle () in
  Printf.printf
    "\n  oracle overhead: %.3fs unguarded -> %.3fs guarded (%.2fx)\n%!"
    unguarded_s guarded_s overhead;
  if not (List.for_all (fun (_, _, _, same) -> same) domain_rows) then begin
    Printf.printf "FAIL: sharded replay reports differ across domain counts\n";
    exit 1
  end;
  let vb = bench_serve () in
  Printf.printf
    "\n  serving (%d events, %d streams): %.0f events/s, %d answered, %d \
     lost\n"
    vb.vb_events vb.vb_streams
    (float_of_int vb.vb_events /. vb.vb_s)
    vb.vb_answered vb.vb_lost;
  Printf.printf "  drained report %s replay, chaos conservation %s\n%!"
    (if vb.vb_identical then "identical to" else "DIFFERS from")
    (if vb.vb_chaos_conserved then "holds" else "VIOLATED");
  if vb.vb_lost <> 0 || not vb.vb_identical || not vb.vb_chaos_conserved
  then begin
    Printf.printf
      "FAIL: serving layer lost events, diverged from replay, or leaked \
       chaos\n";
    exit 1
  end;
  let tb = bench_batch () in
  let tp = tb.tb_times in
  Printf.printf
    "  batched dispatch (%d events, %d streams): %.0f ev/s off -> %.0f \
     ev/s on (%.2fx, median of %d pairs; %.2fx from separate minima), \
     mean batch %.2f, report %s\n%!"
    tb.tb_events tb.tb_streams
    (float_of_int tb.tb_events /. tp.pr_off_s)
    (float_of_int tb.tb_events /. tp.pr_on_s)
    (1.0 /. tp.pr_ratio) tp.pr_pairs (1.0 /. tp.pr_minima_ratio)
    tb.tb_mean_batch
    (if tb.tb_identical then "identical" else "DIFFERS");
  if not tb.tb_identical then begin
    Printf.printf
      "FAIL: batched dispatch changed the embedded replay report\n";
    exit 1
  end;
  let rb = bench_recovery () in
  let jp = rb.rb_journal in
  Printf.printf
    "  crash recovery (%d events): %.0f ev/s bare -> %.0f ev/s journaled \
     (%.3fx, median of %d pairs; %.3fx from separate minima), %d crashes \
     recovered at %.0f us each, report %s\n%!"
    rb.rb_events
    (float_of_int rb.rb_events /. jp.pr_off_s)
    (float_of_int rb.rb_events /. jp.pr_on_s)
    jp.pr_ratio jp.pr_pairs jp.pr_minima_ratio
    rb.rb_crashes rb.rb_recovery_us
    (if rb.rb_identical then "identical" else "DIFFERS");
  if not rb.rb_identical then begin
    Printf.printf
      "FAIL: recovered drain report diverged from the crash-free run\n";
    exit 1
  end;
  let sb = bench_store () in
  let per_s x = float_of_int sb.sb_events /. x in
  Printf.printf
    "\n  persistent store (%d events, hotness 0): cold %.0f ev/s -> warm \
     %.0f ev/s (%.2fx)\n"
    sb.sb_events (per_s sb.sb_cold_s) (per_s sb.sb_warm_s)
    (sb.sb_cold_s /. sb.sb_warm_s);
  Printf.printf
    "  warm run: %d real compiles, store hit rate %.2f, report %s\n%!"
    sb.sb_warm_real_compiles sb.sb_warm_hit_rate
    (if sb.sb_identical then "identical" else "DIFFERS");
  if sb.sb_warm_real_compiles <> 0 || not sb.sb_identical then begin
    Printf.printf
      "FAIL: warm store replay must recompile nothing and match cold\n";
    exit 1
  end;
  let fl = bench_fleet () in
  Printf.printf
    "\n  fleet (%d events, %d machines): %.0f events/s, %d bodies \
     rejuvenated on upgrade, domains report %s\n"
    fl.fl_events fl.fl_machines
    (float_of_int fl.fl_events /. fl.fl_s)
    fl.fl_rejuvenations
    (if fl.fl_identical_domains then "identical" else "DIFFERS");
  Printf.printf "  %-10s %12s %10s\n" "target" "invocations" "jit runs";
  List.iter
    (fun (t, inv, jit) -> Printf.printf "  %-10s %12d %10d\n" t inv jit)
    fl.fl_targets;
  Printf.printf "  warm fleet over store: %d real compiles, report %s\n%!"
    fl.fl_warm_real_compiles
    (if fl.fl_warm_identical then "identical" else "DIFFERS");
  if
    (not fl.fl_identical_domains)
    || fl.fl_warm_real_compiles <> 0
    || (not fl.fl_warm_identical)
    || fl.fl_rejuvenations = 0
  then begin
    Printf.printf
      "FAIL: fleet replay must be domain-invariant, rejuvenate upgraded \
       bodies, and warm-start from the store without recompiling\n";
    exit 1
  end;
  let jit_rows, jit_scaling = run_jit_profile () in
  if json then begin
    let buf = Buffer.create 1024 in
    Printf.bprintf buf "{\n";
    Printf.bprintf buf "  \"micro\": {\n";
    Printf.bprintf buf "    \"simulator_reference_ns_per_run\": %.1f,\n" run_ns;
    Printf.bprintf buf "    \"simulator_plan_ns_per_run\": %.1f,\n" plan_ns;
    Printf.bprintf buf "    \"simulator_speedup\": %.2f\n"
      (run_ns /. plan_ns);
    Printf.bprintf buf "  },\n";
    Printf.bprintf buf "  \"replay\": [\n";
    List.iteri
      (fun i ((t : Vapor_targets.Target.t), ref_ps, fast_ps, speedup) ->
        Printf.bprintf buf
          "    {\"target\": \"%s\", \"events\": %d, \
           \"reference_events_per_s\": %.0f, \"fast_events_per_s\": %.0f, \
           \"speedup\": %.2f}%s\n"
          t.Vapor_targets.Target.name bench_replay_length ref_ps fast_ps
          speedup
          (if i = List.length replay_rows - 1 then "" else ","))
      replay_rows;
    Printf.bprintf buf "  ],\n";
    Printf.bprintf buf "  \"headline_replay_speedup\": %.2f,\n" headline;
    Printf.bprintf buf "  \"cores\": %d,\n" cores;
    Printf.bprintf buf "  \"domains\": [\n";
    List.iteri
      (fun i (d, per_s, speedup, same) ->
        Printf.bprintf buf
          "    {\"domains\": %d, \"events_per_s\": %.0f, \
           \"speedup_vs_1\": %.2f, \"report_identical\": %b}%s\n"
          d per_s speedup same
          (if i = List.length domain_rows - 1 then "" else ","))
      domain_rows;
    Printf.bprintf buf "  ],\n";
    Printf.bprintf buf
      "  \"serve\": {\"events\": %d, \"streams\": %d, \"events_per_s\": \
       %.0f, \"answered\": %d, \"lost\": %d, \"report_identical\": %b, \
       \"chaos_conserved\": %b},\n"
      vb.vb_events vb.vb_streams
      (float_of_int vb.vb_events /. vb.vb_s)
      vb.vb_answered vb.vb_lost vb.vb_identical vb.vb_chaos_conserved;
    Printf.bprintf buf
      "  \"batch\": {\"events\": %d, \"streams\": %d, \
       \"unbatched_events_per_s\": %.0f, \"batched_events_per_s\": %.0f, \
       \"speedup\": %.2f, \"mean_batch_size\": %.2f, \
       \"report_identical\": %b},\n"
      tb.tb_events tb.tb_streams
      (float_of_int tb.tb_events /. tb.tb_times.pr_off_s)
      (float_of_int tb.tb_events /. tb.tb_times.pr_on_s)
      (1.0 /. tb.tb_times.pr_ratio)
      tb.tb_mean_batch tb.tb_identical;
    Printf.bprintf buf
      "  \"recovery\": {\"events\": %d, \"bare_events_per_s\": %.0f, \
       \"journaled_events_per_s\": %.0f, \"journal_overhead\": %.3f, \
       \"crashes\": %d, \"recovery_us_per_crash\": %.1f, \
       \"report_identical\": %b},\n"
      rb.rb_events
      (float_of_int rb.rb_events /. rb.rb_journal.pr_off_s)
      (float_of_int rb.rb_events /. rb.rb_journal.pr_on_s)
      rb.rb_journal.pr_ratio
      rb.rb_crashes rb.rb_recovery_us rb.rb_identical;
    Printf.bprintf buf
      "  \"oracle\": {\"unguarded_s\": %.4f, \"guarded_s\": %.4f, \
       \"overhead_factor\": %.2f},\n"
      unguarded_s guarded_s overhead;
    Printf.bprintf buf
      "  \"store\": {\"events\": %d, \"cold_events_per_s\": %.0f, \
       \"warm_events_per_s\": %.0f, \"warm_speedup\": %.2f, \
       \"warm_real_compiles\": %d, \"warm_hit_rate\": %.2f, \
       \"report_identical\": %b},\n"
      sb.sb_events (per_s sb.sb_cold_s) (per_s sb.sb_warm_s)
      (sb.sb_cold_s /. sb.sb_warm_s)
      sb.sb_warm_real_compiles sb.sb_warm_hit_rate sb.sb_identical;
    Printf.bprintf buf
      "  \"fleet\": {\"events\": %d, \"machines\": %d, \"events_per_s\": \
       %.0f, \"rejuvenations\": %d, \"report_identical\": %b, \
       \"warm_real_compiles\": %d, \"warm_report_identical\": %b, \
       \"targets\": [\n"
      fl.fl_events fl.fl_machines
      (float_of_int fl.fl_events /. fl.fl_s)
      fl.fl_rejuvenations fl.fl_identical_domains fl.fl_warm_real_compiles
      fl.fl_warm_identical;
    List.iteri
      (fun i (t, inv, jit) ->
        Printf.bprintf buf
          "    {\"target\": \"%s\", \"invocations\": %d, \"jit_runs\": \
           %d}%s\n"
          t inv jit
          (if i = List.length fl.fl_targets - 1 then "" else ","))
      fl.fl_targets;
    Printf.bprintf buf "  ]},\n";
    Printf.bprintf buf "  \"jit_profile\": [\n";
    List.iteri
      (fun i s ->
        Printf.bprintf buf
          "    {\"target\": \"%s\", \"kernels\": %d, \"stage_ns\": %.0f, \
           \"code_bytes\": %d, \"model_compile_us\": %.1f, \
           \"mean_compile_share\": %.6f}%s\n"
          s.jp_target s.jp_kernels s.jp_stage_ns s.jp_code_bytes s.jp_model_us
          s.jp_mean_share
          (if i = List.length jit_rows - 1 then "" else ","))
      jit_rows;
    Printf.bprintf buf "  ],\n";
    Printf.bprintf buf "  \"jit_scaling\": %s\n"
      (Jit_report.scaling_to_json jit_scaling);
    Printf.bprintf buf "}\n";
    let oc = open_out "BENCH.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Printf.printf "  wrote BENCH.json\n%!"
  end

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json = List.mem "--json" args in
  let args = List.filter (fun a -> a <> "--json") args in
  match args with
  | [ "bench-replay" ] -> run_fastpath_bench ~json ()
  | [ "quick" ] ->
    run_experiments ();
    run_replay ();
    run_chaos_replay ();
    if json then run_fastpath_bench ~json ()
  | _ ->
    run_experiments ();
    run_replay ();
    run_chaos_replay ();
    run_fastpath_bench ~json ();
    run_benchmarks ()
