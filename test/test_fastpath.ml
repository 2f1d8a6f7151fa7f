(* Tests for the execution path: the pre-resolved simulator plans against
   the reference Simulator.run, the sharded replay driver against the
   single-domain service, and the guarded interpreter tier. *)

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

(* Every plan the JIT can build: each registry target as [Target.resolve]
   pins it (the late-bound "sve" at its default length), plus SVE at its
   two other lengths. *)
let plan_targets =
  List.map Target.resolve Vapor_targets.Scalar_target.all
  @ List.map
      (fun vl -> Target.resolve ~vl Vapor_targets.Sve.target)
      [ 16; 64 ]

let plan_sweep_case () =
  (* Every kernel x plan target x profile x scale: the plan-driven
     [Exec.run] must report the same cycles and instructions as the
     reference [Exec.run_reference], and leave bit-identical buffers. *)
  List.iter
    (fun (entry : Suite.entry) ->
      let vk = bytecode entry in
      List.iter
        (fun (target : Target.t) ->
          List.iter
            (fun (profile : Profile.t) ->
              let compiled = Compile.compile ~target ~profile vk in
              List.iter
                (fun scale ->
                  let ctx =
                    Printf.sprintf "%s/%s/%s/x%d" entry.Suite.name
                      target.Target.name profile.Profile.name scale
                  in
                  let fast_args = entry.Suite.args ~scale in
                  let ref_args = copy_args fast_args in
                  let rr = Exec.run_reference target compiled ~args:ref_args in
                  let rf = Exec.run target compiled ~args:fast_args in
                  check_int (ctx ^ ": cycles") rr.Exec.cycles rf.Exec.cycles;
                  check_int (ctx ^ ": instructions") rr.Exec.instructions
                    rf.Exec.instructions;
                  check_args_bit_equal ctx ref_args fast_args)
                [ 1; 2 ])
            [ Profile.mono; Profile.gcc4cli ])
        plan_targets)
    Suite.all

let foreign_target_case () =
  (* A body runs only on its own plan: the target it was compiled for, or
     a late-bound target that resolves to it.  Any other target is
     rejected before memory is laid out — never simulated by a second
     engine — and [run_checked] reports it as a plan error with the
     caller's buffers untouched. *)
  let entry = Suite.find "saxpy_fp" in
  let vk = bytecode entry in
  let rejected ctx (target : Target.t) compiled =
    let args = entry.Suite.args ~scale:1 in
    let before = copy_args args in
    (match Exec.run target compiled ~args with
    | _ -> fail (ctx ^ ": Exec.run accepted a foreign target")
    | exception Invalid_argument _ -> ());
    (match Exec.run_checked target compiled ~args with
    | Ok _ -> fail (ctx ^ ": run_checked accepted a foreign target")
    | Error { Exec.ee_stage = `Plan; _ } -> ()
    | Error { Exec.ee_stage = `Simulate; ee_reason } ->
      fail (ctx ^ ": simulated, then faulted: " ^ ee_reason));
    check_args_bit_equal (ctx ^ ": buffers untouched") before args
  in
  let on_sse =
    Compile.compile ~target:Vapor_targets.Sse.target ~profile:Profile.gcc4cli
      vk
  in
  rejected "sse body on avx" Vapor_targets.Avx.target on_sse;
  rejected "sse body on scalar" (Vapor_targets.Scalar_target.find "scalar")
    on_sse;
  let sve = Vapor_targets.Sve.target in
  let on_sve128 =
    Compile.compile ~target:(Target.resolve ~vl:16 sve)
      ~profile:Profile.gcc4cli vk
  in
  rejected "sve128 body on sve (sve256)" sve on_sve128;
  (* The late-bound spelling runs the plan it resolves to. *)
  let on_sve = Compile.compile ~target:sve ~profile:Profile.gcc4cli vk in
  let late = entry.Suite.args ~scale:1 in
  let pinned = copy_args late in
  let rl = Exec.run sve on_sve ~args:late in
  let rp = Exec.run (Target.resolve sve) on_sve ~args:pinned in
  check_int "sve = sve256: cycles" rp.Exec.cycles rl.Exec.cycles;
  check_args_bit_equal "sve = sve256" pinned late

(* --- replay: shards are report-identical -------------------------------- *)

let replay_trace () = Trace.standard ~length:300 ~n_targets:1 ()

let replay_cfg = Service.default_config ~targets:[ Vapor_targets.Sse.target ]

let replay_domains_case () =
  (* Sharded replay must merge back to the same report for any domain
     count — the determinism contract behind [serve-replay --domains N]. *)
  let trace = replay_trace () in
  let base =
    Service.report_to_string (Service.replay ~domains:1 replay_cfg trace)
  in
  List.iter
    (fun d ->
      let r =
        Service.report_to_string (Service.replay ~domains:d replay_cfg trace)
      in
      check_string (Printf.sprintf "domains=%d report identical" d) base r)
    [ 2; 4 ]

let interp_chaos_case () =
  (* A guarded replay whose hotness threshold is never reached stays in
     the interpreter tier, and its corruption draws, oracle checks and
     quarantines all happen there. *)
  let trace = Trace.standard ~length:150 ~n_targets:1 () in
  let cfg =
    {
      replay_cfg with
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
  in
  let rp = Service.replay cfg trace in
  check_int "every event interpreted" rp.Service.rp_invocations
    rp.Service.rp_interp_invocations;
  check_bool "corruptions drawn" true (rp.Service.rp_corrupted_bodies > 0);
  check_bool "corruptions quarantined" true (rp.Service.rp_quarantines > 0)

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
    Tiered.create ~stats:st ~guard ~cache ~hotness_threshold:2 ()
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
          Alcotest.test_case "foreign target rejected" `Quick
            foreign_target_case;
          Alcotest.test_case "domains 1/2/4 reports identical" `Quick
            replay_domains_case;
          Alcotest.test_case "corrupt interpreter result quarantined" `Quick
            corrupt_interp_quarantine_case;
          Alcotest.test_case "guarded chaos replay stays interpreted" `Quick
            interp_chaos_case;
        ] );
      ( "interp",
        [
          Alcotest.test_case "suite x modes match reference" `Quick
            interp_sweep_case;
          Alcotest.test_case "suite x modes corruption caught" `Quick
            corrupt_sweep_case;
        ] );
    ]
