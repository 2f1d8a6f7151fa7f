(* Tests for the fast-path execution engine: the pre-resolved simulator
   plans against the original Simulator.run, the sharded replay driver
   against the single-domain service, and the guarded interpreter tier. *)

open Vapor_ir
module Suite = Vapor_kernels.Suite
module Driver = Vapor_vectorizer.Driver
module Flows = Vapor_harness.Flows
module Veval = Vapor_vecir.Veval
module Target = Vapor_targets.Target

module Exec = Vapor_harness.Exec
module Compile = Vapor_jit.Compile
module Profile = Vapor_jit.Profile
module Service = Vapor_runtime.Service
module Tiered = Vapor_runtime.Tiered
module Trace = Vapor_runtime.Trace
module Faults = Vapor_runtime.Faults
module Stats = Vapor_runtime.Stats
module Code_cache = Vapor_runtime.Code_cache

let fail = Alcotest.fail
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let bytecode (entry : Suite.entry) =
  (Flows.vectorized_bytecode entry).Driver.vkernel

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

(* --- pre-resolved plans == reference simulator ------------------------- *)

let plan_sweep_case () =
  (* Every kernel x target x profile: the plan-driven [Exec.run] must
     report the same cycles and instructions as the pre-plan
     [Exec.run_reference], and leave bit-identical buffers. *)
  List.iter
    (fun (entry : Suite.entry) ->
      let vk = bytecode entry in
      List.iter
        (fun (target : Target.t) ->
          List.iter
            (fun (profile : Profile.t) ->
              let ctx =
                Printf.sprintf "%s/%s/%s" entry.Suite.name
                  target.Target.name profile.Profile.name
              in
              let compiled = Compile.compile ~target ~profile vk in
              let fast_args = entry.Suite.args ~scale:1 in
              let ref_args = copy_args fast_args in
              let rr = Exec.run_reference target compiled ~args:ref_args in
              let rf = Exec.run target compiled ~args:fast_args in
              check_int (ctx ^ ": cycles") rr.Exec.cycles rf.Exec.cycles;
              check_int (ctx ^ ": instructions") rr.Exec.instructions
                rf.Exec.instructions;
              check_args_bit_equal ctx ref_args fast_args)
            [ Profile.mono; Profile.gcc4cli ])
        Vapor_targets.Scalar_target.all)
    Suite.all

(* --- replay: fast engine and shards are report-identical ---------------- *)

let replay_trace () = Trace.standard ~length:300 ~n_targets:1 ()

let replay_cfg engine =
  {
    (Service.default_config ~targets:[ Vapor_targets.Sse.target ]) with
    Service.cfg_engine = engine;
  }

let replay_engine_equiv_case () =
  (* The fast engine must not be observable in the report: byte-identical
     output to the reference engine over a standard trace. *)
  let trace = replay_trace () in
  let r_ref =
    Service.report_to_string (Service.replay (replay_cfg Tiered.Reference) trace)
  in
  let r_fast =
    Service.report_to_string (Service.replay (replay_cfg Tiered.Fast) trace)
  in
  check_string "fast report == reference report" r_ref r_fast

let replay_domains_case () =
  (* Sharded replay must merge back to the same report for any domain
     count — the determinism contract behind [serve-replay --domains N]. *)
  let trace = replay_trace () in
  let cfg = replay_cfg Tiered.Fast in
  let base =
    Service.report_to_string (Service.replay ~domains:1 cfg trace)
  in
  List.iter
    (fun d ->
      let r =
        Service.report_to_string (Service.replay ~domains:d cfg trace)
      in
      check_string (Printf.sprintf "domains=%d report identical" d) base r)
    [ 2; 4 ]

let interp_chaos_cfg engine =
  {
    (replay_cfg engine) with
    Service.cfg_hotness = 1000;
    cfg_guard =
      {
        Tiered.g_oracle = Some Tiered.oracle_always;
        g_faults =
          Some
            (Faults.make
               {
                 (Faults.chaos_spec ~seed:1) with
                 Faults.f_corrupt_rate = 0.2;
               });
        g_retry_budget = 3;
      };
  }

let interp_engine_free_case () =
  (* The interpreter tier runs Veval whichever engine is selected, so a
     guarded replay that never leaves it — corruption draws, oracle
     checks and quarantines included — prints the same report and
     counters on both engines. *)
  let trace = Trace.standard ~length:150 ~n_targets:1 () in
  let run engine =
    let rp = Service.replay (interp_chaos_cfg engine) trace in
    rp, Service.report_to_string rp ^ Stats.to_table rp.Service.rp_stats
  in
  let rp, r_fast = run Tiered.Fast in
  let _, r_ref = run Tiered.Reference in
  check_int "every event interpreted" rp.Service.rp_invocations
    rp.Service.rp_interp_invocations;
  check_bool "corruptions drawn" true (rp.Service.rp_corrupted_bodies > 0);
  check_bool "corruptions quarantined" true (rp.Service.rp_quarantines > 0);
  check_string "reference report == fast report" r_ref r_fast

(* --- guarded interplay: corrupted interpreter results are quarantined --- *)

let corrupt_interp_quarantine_case () =
  (* A corrupted interpreter-tier result must be caught by the
     differential oracle and quarantined exactly like a corrupted JIT
     body: mismatch counted, kernel quarantined, and the caller handed
     the reference answer. *)
  let entry = Suite.find "saxpy_fp" in
  let vk = bytecode entry in
  let target = Vapor_targets.Sse.target in
  let st = Stats.create () in
  let cache = Code_cache.create ~stats:st () in
  let guard =
    {
      Tiered.g_oracle = Some Tiered.oracle_always;
      g_faults =
        Some (Faults.make { Faults.default_spec with Faults.f_corrupt_rate = 1.0 });
      g_retry_budget = 3;
    }
  in
  let tiered =
    Tiered.create ~stats:st ~guard ~engine:Tiered.Fast ~cache
      ~hotness_threshold:2 ()
  in
  let fast_args = entry.Suite.args ~scale:1 in
  let ref_args = copy_args fast_args in
  ignore (Veval.run vk ~mode:(veval_mode target) ~args:ref_args);
  ignore
    (Tiered.invoke tiered ~target ~profile:Profile.gcc4cli vk ~args:fast_args);
  check_bool "oracle mismatch recorded" true
    (Stats.counter st "oracle.mismatches" >= 1);
  check_bool "kernel quarantined" true
    (List.exists
       (fun (s : Tiered.kstate) -> s.Tiered.ks_quarantined)
       (Tiered.states tiered));
  check_args_bit_equal "caller got the reference answer" ref_args fast_args;
  (* Quarantined, the kernel runs unguarded and stays interpreted past
     the hotness threshold: no further draw, check or promotion. *)
  for i = 1 to 4 do
    let args = entry.Suite.args ~scale:1 in
    ignore (Tiered.invoke tiered ~target ~profile:Profile.gcc4cli vk ~args);
    check_args_bit_equal (Printf.sprintf "quarantined run %d" i) ref_args args
  done;
  check_int "no further corruption" 1
    (Stats.counter st "faults.corrupted_bodies");
  check_int "no further oracle check" 1 (Stats.counter st "oracle.checks");
  check_int "never promoted" 0 (Stats.counter st "tier.promotions")


(* --- guarded interpreter tier on every kernel and target ---------------- *)

(* One guarded interpreter-tier invocation of [vk] on [target] with the
   oracle checking every run; returns the tier's stats, its kernel states
   and the caller's arguments after the call. *)
let guarded_interp_invoke ~corrupt_rate (entry : Suite.entry) vk
    (target : Target.t) =
  let st = Stats.create () in
  let cache = Code_cache.create ~stats:st () in
  let guard =
    {
      Tiered.g_oracle = Some Tiered.oracle_always;
      g_faults =
        Some
          (Faults.make
             { Faults.default_spec with Faults.f_corrupt_rate = corrupt_rate });
      g_retry_budget = 3;
    }
  in
  let tiered =
    Tiered.create ~stats:st ~guard ~cache ~hotness_threshold:1000 ()
  in
  let args = entry.Suite.args ~scale:1 in
  ignore (Tiered.invoke tiered ~target ~profile:Profile.gcc4cli vk ~args);
  st, Tiered.states tiered, args

(* Every kernel in a vector (sse) and the scalarized (scalar) interpreter
   mode, with its reference Veval answer in that mode. *)
let for_suite_and_modes f =
  List.iter
    (fun (entry : Suite.entry) ->
      let vk = bytecode entry in
      List.iter
        (fun (target : Target.t) ->
          let ref_args = entry.Suite.args ~scale:1 in
          ignore (Veval.run vk ~mode:(veval_mode target) ~args:ref_args);
          f (entry.Suite.name ^ "/" ^ target.Target.name) entry vk target
            ref_args)
        [ Vapor_targets.Sse.target; Vapor_targets.Scalar_target.find "scalar" ])
    Suite.all

let interp_sweep_case () =
  (* A clean guarded run delivers the reference answer bit-for-bit and
     passes the oracle: no false mismatch, nothing quarantined. *)
  for_suite_and_modes (fun ctx entry vk target ref_args ->
      let st, states, args =
        guarded_interp_invoke ~corrupt_rate:0.0 entry vk target
      in
      check_int (ctx ^ ": oracle checks") 1 (Stats.counter st "oracle.checks");
      check_int (ctx ^ ": mismatches") 0 (Stats.counter st "oracle.mismatches");
      check_bool (ctx ^ ": not quarantined") false
        (List.exists
           (fun (s : Tiered.kstate) -> s.Tiered.ks_quarantined)
           states);
      check_args_bit_equal ctx ref_args args)

let corrupt_sweep_case () =
  (* The detectability contract the oracle relies on: a perturbed
     interpreter result never matches the reference, so it is always
     counted, quarantined, and replaced by the reference answer before
     the caller sees it. *)
  for_suite_and_modes (fun ctx entry vk target ref_args ->
      let st, states, args =
        guarded_interp_invoke ~corrupt_rate:1.0 entry vk target
      in
      check_int (ctx ^ ": corrupted") 1
        (Stats.counter st "faults.corrupted_bodies");
      check_int (ctx ^ ": mismatches") 1 (Stats.counter st "oracle.mismatches");
      check_bool (ctx ^ ": quarantined") true
        (List.exists
           (fun (s : Tiered.kstate) -> s.Tiered.ks_quarantined)
           states);
      check_args_bit_equal ctx ref_args args)

let () =
  Alcotest.run "fastpath"
    [
      ( "engine",
        [
          Alcotest.test_case "plans match reference simulator" `Quick
            plan_sweep_case;
          Alcotest.test_case "fast replay report-identical" `Quick
            replay_engine_equiv_case;
          Alcotest.test_case "domains 1/2/4 reports identical" `Quick
            replay_domains_case;
          Alcotest.test_case "corrupt interpreter result quarantined" `Quick
            corrupt_interp_quarantine_case;
          Alcotest.test_case "interpreter tier engine-independent" `Quick
            interp_engine_free_case;
        ] );
      ( "interp",
        [
          Alcotest.test_case "suite x modes match reference" `Quick
            interp_sweep_case;
          Alcotest.test_case "suite x modes corruption caught" `Quick
            corrupt_sweep_case;
        ] );
    ]
