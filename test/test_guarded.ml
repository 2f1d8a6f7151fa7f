(* Tests for the guarded-execution layer: the differential oracle's
   bit-equality foundation, typed compile/exec error channels with
   scalarize-on-failure, fault injection with quarantine and retry, and
   code-cache budget edge cases. *)

open Vapor_ir
module Suite = Vapor_kernels.Suite
module Driver = Vapor_vectorizer.Driver
module Flows = Vapor_harness.Flows
module Exec = Vapor_harness.Exec
module Profile = Vapor_jit.Profile
module Compile = Vapor_jit.Compile
module Lower = Vapor_jit.Lower
module Veval = Vapor_vecir.Veval
module Target = Vapor_targets.Target
module D = Vapor_runtime.Digest
module Stats = Vapor_runtime.Stats
module Cache = Vapor_runtime.Code_cache
module Tiered = Vapor_runtime.Tiered
module Faults = Vapor_runtime.Faults
module Trace = Vapor_runtime.Trace
module Service = Vapor_runtime.Service

let sse = Vapor_targets.Sse.target
let fail = Alcotest.fail
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let bytecode name =
  (Flows.vectorized_bytecode (Suite.find name)).Driver.vkernel

let copy_args args =
  List.map
    (fun (n, a) ->
      match a with
      | Eval.Scalar v -> n, Eval.Scalar v
      | Eval.Array b -> n, Eval.Array (Buffer_.copy b))
    args

let veval_mode (target : Target.t) =
  if Target.has_simd target then Veval.Vector target.Target.vs
  else Veval.Scalarized

let arrays = Suite.arrays_of_args

let check_args_bit_equal ctx a b =
  List.iter2
    (fun (n1, b1) (_, b2) ->
      if not (Buffer_.equal b1 b2) then
        fail (Printf.sprintf "%s: array %s differs bitwise" ctx n1))
    (arrays a) (arrays b)

(* --- the oracle's regression net: suite x targets, interp == JIT ------- *)

let differential_sweep_case () =
  (* Every kernel, every target, both replay profiles: the Veval
     interpreter and the JIT-simulated body must agree bit-for-bit on
     every output buffer.  This is the invariant the runtime's
     differential oracle relies on: any JIT output the interpreter would
     not have produced is a bug (or an injected fault), never noise. *)
  List.iter
    (fun (entry : Suite.entry) ->
      let vk = (Flows.vectorized_bytecode entry).Driver.vkernel in
      List.iter
        (fun (target : Target.t) ->
          List.iter
            (fun (profile : Profile.t) ->
              let ctx =
                Printf.sprintf "%s/%s/%s" entry.Suite.name target.Target.name
                  profile.Profile.name
              in
              let jit_args = entry.Suite.args ~scale:1 in
              let ref_args = copy_args jit_args in
              (match Compile.compile_checked ~target ~profile vk with
              | Error e ->
                fail (ctx ^ ": compile failed: "
                      ^ Compile.lower_error_to_string e)
              | Ok compiled -> (
                match Exec.run_checked target compiled ~args:jit_args with
                | Error e ->
                  fail (ctx ^ ": exec failed: "
                        ^ Exec.exec_error_to_string e)
                | Ok _ -> ()));
              ignore (Veval.run vk ~mode:(veval_mode target) ~args:ref_args);
              check_args_bit_equal ctx ref_args jit_args)
            [ Profile.mono; Profile.gcc4cli ])
        Vapor_targets.Scalar_target.all)
    Suite.all

(* --- typed error channel & scalarize-on-failure ------------------------ *)

let compile_checked_clean_case () =
  let vk = bytecode "saxpy_fp" in
  match Compile.compile_checked ~target:sse ~profile:Profile.mono vk with
  | Error e -> fail ("clean kernel failed: " ^ Compile.lower_error_to_string e)
  | Ok c ->
    check_int "no forced-scalar regions on a clean compile" 0
      (List.length c.Compile.forced_scalar_regions)

let forced_scalar_runs_case () =
  (* A fully de-optimized body (every region forced scalar) must still
     run, and bit-match the scalar interpreter semantics. *)
  let entry = Suite.find "saxpy_fp" in
  let vk = bytecode "saxpy_fp" in
  let compiled =
    Compile.compile ~force_scalar:(fun _ -> true) ~target:sse
      ~profile:Profile.mono vk
  in
  check_bool "decisions all scalarized" true
    (List.for_all
       (function Lower.Scalarize _ -> true | Lower.Vectorize -> false)
       compiled.Compile.decisions);
  check_bool "forced regions recorded" true
    (compiled.Compile.forced_scalar_regions <> []);
  let jit_args = entry.Suite.args ~scale:1 in
  let ref_args = copy_args jit_args in
  ignore (Exec.run sse compiled ~args:jit_args);
  ignore (Veval.run vk ~mode:Veval.Scalarized ~args:ref_args);
  check_args_bit_equal "forced-scalar saxpy" ref_args jit_args

let run_checked_fault_case () =
  (* A missing scalar argument faults in the simulator; run_checked must
     report it as a typed error and leave the output buffers untouched. *)
  let entry = Suite.find "saxpy_fp" in
  let vk = bytecode "saxpy_fp" in
  let compiled = Compile.compile ~target:sse ~profile:Profile.mono vk in
  let args = entry.Suite.args ~scale:1 in
  let broken =
    List.filter (fun (_, a) -> match a with Eval.Scalar _ -> false | _ -> true)
      args
  in
  let before = copy_args broken in
  (match Exec.run_checked sse compiled ~args:broken with
  | Ok _ -> fail "expected a simulator fault"
  | Error e -> check_bool "fault stage" true (e.Exec.ee_stage = `Simulate));
  check_args_bit_equal "buffers untouched after fault" before broken

(* --- code-cache budget edge cases -------------------------------------- *)

let cache_key vk target profile =
  {
    D.k_digest = D.of_vkernel vk;
    k_target = target.Target.name;
    k_profile = profile.Profile.name;
  }

let cache_entry_budget_zero_case () =
  (* Entry budget 0 clamps to 1: the cache never loops and never holds
     more than one body; each new insert evicts the previous one. *)
  let cache = Cache.create ~max_entries:0 () in
  let fill name =
    let vk = bytecode name in
    ignore
      (Cache.find_or_compile cache ~target:sse ~profile:Profile.mono vk)
  in
  fill "saxpy_fp";
  check_int "one entry after first fill" 1 (Cache.entry_count cache);
  fill "dscal_fp";
  check_int "still one entry" 1 (Cache.entry_count cache);
  check_int "one eviction" 1 (Cache.evictions cache);
  check_int "two fills" 2 (Cache.fills cache);
  check_int "two misses" 2 (Cache.misses cache)

let cache_byte_budget_tiny_case () =
  (* A byte budget smaller than any single body: the single oversized
     entry is allowed to stay (there is nothing smaller to keep), and a
     second insert still leaves exactly one resident entry. *)
  let cache = Cache.create ~max_bytes:1 () in
  let fill name =
    let vk = bytecode name in
    ignore
      (Cache.find_or_compile cache ~target:sse ~profile:Profile.mono vk)
  in
  fill "saxpy_fp";
  check_int "oversized single entry stays" 1 (Cache.entry_count cache);
  check_int "no eviction yet" 0 (Cache.evictions cache);
  fill "dscal_fp";
  check_int "one entry after second fill" 1 (Cache.entry_count cache);
  check_int "one eviction" 1 (Cache.evictions cache);
  check_bool "bytes charged for exactly one entry" true
    (Cache.byte_count cache > 0)

let cache_reinsert_case () =
  (* Re-inserting an existing key replaces the entry without
     double-charging bytes or inflating the entry count. *)
  let cache = Cache.create () in
  let vk = bytecode "saxpy_fp" in
  let key = cache_key vk sse Profile.mono in
  let compiled = Compile.compile ~target:sse ~profile:Profile.mono vk in
  Cache.insert cache key vk Profile.mono compiled;
  let bytes_once = Cache.byte_count cache in
  Cache.insert cache key vk Profile.mono compiled;
  check_int "entry count stays 1" 1 (Cache.entry_count cache);
  check_int "bytes not double-charged" bytes_once (Cache.byte_count cache);
  check_int "both inserts counted as fills" 2 (Cache.fills cache);
  check_int "no evictions" 0 (Cache.evictions cache);
  check_bool "hit after re-insert" true (Cache.find cache key <> None)

(* --- guarded tiered execution ------------------------------------------ *)

let guarded ?oracle ?faults ?(retry_budget = 3) () =
  let st = Stats.create () in
  let cache = Cache.create ~stats:st () in
  let guard =
    { Tiered.g_oracle = oracle; g_faults = faults; g_retry_budget = retry_budget }
  in
  let tiered = Tiered.create ~guard ~cache ~hotness_threshold:0 () in
  tiered, st

let oracle_healthy_case () =
  (* With the oracle checking every run of a healthy body: checks happen,
     nothing mismatches, nothing is quarantined, output is bit-right. *)
  let entry = Suite.find "saxpy_fp" in
  let vk = bytecode "saxpy_fp" in
  let tiered, st = guarded ~oracle:Tiered.oracle_always () in
  let args = entry.Suite.args ~scale:1 in
  let ref_args = copy_args args in
  let r =
    Tiered.invoke tiered ~target:sse ~profile:Profile.mono vk ~args
  in
  check_bool "ran on the JIT tier" true (r.Tiered.r_tier = Tiered.Jit);
  check_int "one oracle check" 1 (Stats.counter st "oracle.checks");
  check_int "no mismatch" 0 (Stats.counter st "oracle.mismatches");
  check_int "no quarantine" 0 (Stats.counter st "guard.quarantines");
  ignore (Veval.run vk ~mode:(veval_mode sse) ~args:ref_args);
  check_args_bit_equal "healthy oracle output" ref_args args

let corruption_quarantine_case () =
  (* Corrupt every cache-delivered body: the first JIT run must be caught
     by the oracle, the body quarantined, the kernel demoted, and the
     caller must still receive the interpreter's (correct) answer. *)
  let entry = Suite.find "saxpy_fp" in
  let vk = bytecode "saxpy_fp" in
  let faults =
    Faults.make { Faults.default_spec with f_corrupt_rate = 1.0 }
  in
  let tiered, st = guarded ~oracle:Tiered.oracle_always ~faults () in
  let args = entry.Suite.args ~scale:1 in
  let ref_args = copy_args args in
  let r =
    Tiered.invoke tiered ~target:sse ~profile:Profile.mono vk ~args
  in
  check_bool "answer came from the interpreter" true
    (r.Tiered.r_tier = Tiered.Interpreter);
  check_int "mismatch caught" 1 (Stats.counter st "oracle.mismatches");
  check_int "quarantined" 1 (Stats.counter st "guard.quarantines");
  check_int "demoted" 1 (Stats.counter st "tier.demotions");
  check_int "cache emptied by quarantine" 0
    (Cache.entry_count (Tiered.cache tiered));
  ignore (Veval.run vk ~mode:(veval_mode sse) ~args:ref_args);
  check_args_bit_equal "quarantine restored correct output" ref_args args;
  (* Subsequent invocations stay pinned to the interpreter. *)
  let r2 =
    Tiered.invoke tiered ~target:sse ~profile:Profile.mono vk
      ~args:(entry.Suite.args ~scale:1)
  in
  check_bool "stays interpreted after quarantine" true
    (r2.Tiered.r_tier = Tiered.Interpreter);
  check_int "no re-promotion" 1 (Stats.counter st "tier.promotions");
  let s = List.hd (Tiered.states tiered) in
  check_bool "kstate flagged quarantined" true s.Tiered.ks_quarantined

let retry_recovers_case () =
  (* Injected transient compile faults: with max_transient = 2 the first
     three attempts fail, the fourth succeeds; the retry loop must absorb
     all of it and still produce correct JIT output. *)
  let entry = Suite.find "saxpy_fp" in
  let vk = bytecode "saxpy_fp" in
  let faults =
    Faults.make
      { Faults.default_spec with f_compile_fault_rate = 1.0; f_max_transient = 2 }
  in
  let tiered, st = guarded ~faults ~retry_budget:3 () in
  let args = entry.Suite.args ~scale:1 in
  let ref_args = copy_args args in
  let r =
    Tiered.invoke tiered ~target:sse ~profile:Profile.mono vk ~args
  in
  check_bool "recovered to the JIT tier" true (r.Tiered.r_tier = Tiered.Jit);
  check_int "three injected faults" 3 (Stats.counter st "faults.injected_compile");
  check_int "three retries" 3 (Stats.counter st "guard.retries");
  check_int "no hard error" 0 (Stats.counter st "guard.compile_errors");
  check_bool "backoff charged" true
    (r.Tiered.r_compile_us > Faults.backoff_us ~attempt:1);
  ignore (Veval.run vk ~mode:(veval_mode sse) ~args:ref_args);
  check_args_bit_equal "retry output" ref_args args

let retry_exhausted_case () =
  (* Retry budget smaller than the fault's persistence: the compile is a
     hard error, the kernel de-optimizes to the interpreter, and the
     caller still gets the right answer. *)
  let entry = Suite.find "saxpy_fp" in
  let vk = bytecode "saxpy_fp" in
  let faults =
    Faults.make
      { Faults.default_spec with f_compile_fault_rate = 1.0; f_max_transient = 99 }
  in
  let tiered, st = guarded ~faults ~retry_budget:2 () in
  let args = entry.Suite.args ~scale:1 in
  let ref_args = copy_args args in
  let r =
    Tiered.invoke tiered ~target:sse ~profile:Profile.mono vk ~args
  in
  check_bool "fell back to the interpreter" true
    (r.Tiered.r_tier = Tiered.Interpreter);
  check_int "hard compile error" 1 (Stats.counter st "guard.compile_errors");
  check_int "retries bounded by budget" 2 (Stats.counter st "guard.retries");
  ignore (Veval.run vk ~mode:(veval_mode sse) ~args:ref_args);
  check_args_bit_equal "exhausted-retry output" ref_args args

(* --- chaos replay end-to-end ------------------------------------------- *)

let chaos_config ~seed =
  let faults =
    Faults.make
      {
        Faults.default_spec with
        Faults.f_seed = seed;
        f_corrupt_rate = 0.05;
        f_compile_fault_rate = 0.25;
        f_max_transient = 2;
      }
  in
  {
    (Service.default_config ~targets:[ sse ]) with
    Service.cfg_guard =
      {
        Tiered.g_oracle = Some Tiered.oracle_always;
        g_faults = Some faults;
        g_retry_budget = 3;
      };
    cfg_drop_simd = Some (200, Vapor_targets.Scalar_target.find "scalar");
  }

let chaos_replay_case () =
  (* A full chaos replay: every fault absorbed (mismatches always
     quarantined), the whole trace finishes, and the run is deterministic
     per seed. *)
  let trace = Trace.standard ~seed:7 ~length:300 ~n_targets:1 () in
  let rp = Service.replay (chaos_config ~seed:7) trace in
  check_int "whole trace replayed" 300 rp.Service.rp_invocations;
  check_bool "guarded activity reported" true (Service.guarded_activity rp);
  check_bool "every mismatch quarantined" true
    (rp.Service.rp_oracle_mismatches <= rp.Service.rp_quarantines);
  check_bool "oracle actually ran" true (rp.Service.rp_oracle_checks > 0);
  let rp2 = Service.replay (chaos_config ~seed:7) trace in
  check_int "deterministic quarantines" rp.Service.rp_quarantines
    rp2.Service.rp_quarantines;
  check_int "deterministic retries" rp.Service.rp_retries
    rp2.Service.rp_retries;
  check_int "deterministic oracle checks" rp.Service.rp_oracle_checks
    rp2.Service.rp_oracle_checks

(* --- goldens: reports the interpreter tier decides --------------------- *)

(* MD5 of a replay's report and counter table — the bytes `vaporc
   chaos-replay` / `serve-replay` print between their header and verdict
   lines for the same configuration.  Each configuration runs the
   interpreter tier: CI's chaos replay (corruption draws, oracle checks
   and quarantines on both tiers, a SIMD drop at event 200), the same
   chaos at hotness 1000 (every event interpreted under the guard), and
   unguarded interpreter-only replays in vector (sse) and scalarized
   (scalar) mode. *)
let report_md5 rp =
  Stdlib.Digest.to_hex
    (Stdlib.Digest.string
       (Service.report_to_string rp ^ Stats.to_table rp.Service.rp_stats))

let report_goldens =
  let scalar = Vapor_targets.Scalar_target.find "scalar" in
  let chaos ~seed ~hotness ~drop_simd =
    {
      (chaos_config ~seed) with
      Service.cfg_profile = Profile.gcc4cli;
      cfg_hotness = hotness;
      cfg_drop_simd = (if drop_simd then Some (200, scalar) else None);
    }
  in
  let interp_only target =
    {
      (Service.default_config ~targets:[ target ]) with
      Service.cfg_profile = Profile.gcc4cli;
      cfg_hotness = 1000;
    }
  in
  let ci_chaos seed golden =
    ( Printf.sprintf "chaos-replay --seed %d -t sse --drop-simd-at 200" seed,
      chaos ~seed ~hotness:3 ~drop_simd:true,
      seed,
      golden )
  in
  [
    ci_chaos 1 "3c904e51d993e906bbbd1b8eae335b53";
    ci_chaos 2 "39bae2553b8d641d0adc0108b1c1e409";
    ci_chaos 3 "16ceb46056fb3b14b69f47d1821ba936";
    ( "chaos-replay --seed 1 -t sse --hotness 1000",
      chaos ~seed:1 ~hotness:1000 ~drop_simd:false,
      1,
      "91dfd65f444fa5898f950f31ceaa69c2" );
    ( "serve-replay -t sse --hotness 1000",
      interp_only sse,
      42,
      "f2a0438befe5254a983f3ca5fa56cedc" );
    ( "serve-replay -t scalar --hotness 1000",
      interp_only scalar,
      42,
      "4acf681bc824c4dd8a7af1d1bcc03351" );
  ]

let report_goldens_case () =
  List.iter
    (fun (name, cfg, seed, golden) ->
      let trace = Trace.standard ~seed ~length:400 ~n_targets:1 () in
      Alcotest.(check string) name golden (report_md5 (Service.replay cfg trace)))
    report_goldens

let unguarded_counters_silent_case () =
  (* An unguarded replay must report zero guarded-execution activity —
     the gate that keeps healthy-path reports byte-identical. *)
  let trace = Trace.standard ~seed:42 ~length:100 ~n_targets:1 () in
  let rp =
    Service.replay (Service.default_config ~targets:[ sse ]) trace
  in
  check_bool "no guarded activity when unguarded" false
    (Service.guarded_activity rp)

let () =
  Alcotest.run "guarded"
    [
      ( "oracle-net",
        [
          Alcotest.test_case "suite x targets bit-equal" `Quick
            differential_sweep_case;
        ] );
      ( "error-channel",
        [
          Alcotest.test_case "clean compile" `Quick compile_checked_clean_case;
          Alcotest.test_case "forced scalar body runs" `Quick
            forced_scalar_runs_case;
          Alcotest.test_case "exec fault is typed and harmless" `Quick
            run_checked_fault_case;
        ] );
      ( "cache-edges",
        [
          Alcotest.test_case "entry budget zero" `Quick
            cache_entry_budget_zero_case;
          Alcotest.test_case "byte budget below one body" `Quick
            cache_byte_budget_tiny_case;
          Alcotest.test_case "re-insert existing key" `Quick
            cache_reinsert_case;
        ] );
      ( "guarded-tiered",
        [
          Alcotest.test_case "oracle passes healthy body" `Quick
            oracle_healthy_case;
          Alcotest.test_case "corruption quarantined" `Quick
            corruption_quarantine_case;
          Alcotest.test_case "transient faults retried" `Quick
            retry_recovers_case;
          Alcotest.test_case "retry budget exhausted" `Quick
            retry_exhausted_case;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "chaos replay absorbs faults" `Quick
            chaos_replay_case;
          Alcotest.test_case "unguarded replay is silent" `Quick
            unguarded_counters_silent_case;
          Alcotest.test_case "interpreter-tier report goldens" `Quick
            report_goldens_case;
        ] );
    ]
