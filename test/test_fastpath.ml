(* Tests for the fast-path execution engine: the slot-compiled interpreter
   (Vfast) against the reference Veval, the pre-resolved simulator plans
   against the original Simulator.run, and the sharded replay driver
   against the single-domain service. *)

open Vapor_ir
module Suite = Vapor_kernels.Suite
module Driver = Vapor_vectorizer.Driver
module Flows = Vapor_harness.Flows
module Veval = Vapor_vecir.Veval
module Vfast = Vapor_vecir.Vfast
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

let mode_name = function
  | Veval.Vector vs -> Printf.sprintf "v%d" vs
  | Veval.Scalarized -> "scalarized"

(* The final scalar environments must carry the same bindings. *)
let check_scalars_equal ctx (ref_s : (string, Value.t) Hashtbl.t) fast_s =
  check_int (ctx ^ ": scalar count") (Hashtbl.length ref_s)
    (Hashtbl.length fast_s);
  Hashtbl.iter
    (fun name v ->
      match Hashtbl.find_opt fast_s name with
      | None -> fail (Printf.sprintf "%s: scalar %s missing" ctx name)
      | Some v' ->
        if not (Value.equal v v') then
          fail
            (Printf.sprintf "%s: scalar %s = %s, reference %s" ctx name
               (Value.to_string v') (Value.to_string v)))
    ref_s

(* --- slot-compiled interpreter == reference Veval ---------------------- *)

let vfast_sweep_case () =
  (* Every kernel, every target's vector size plus scalarized mode: the
     slot-compiled body and the reference evaluator must agree bit-for-bit
     on every output buffer and every final scalar. *)
  List.iter
    (fun (entry : Suite.entry) ->
      let vk = bytecode entry in
      List.iter
        (fun (target : Target.t) ->
          List.iter
            (fun mode ->
              let ctx =
                Printf.sprintf "%s/%s/%s" entry.Suite.name
                  target.Target.name (mode_name mode)
              in
              let fast_args = entry.Suite.args ~scale:1 in
              let ref_args = copy_args fast_args in
              let ref_s = Veval.run vk ~mode ~args:ref_args in
              let compiled = Vfast.compile vk ~mode in
              let fast_s = Vfast.run compiled ~args:fast_args in
              check_args_bit_equal ctx ref_args fast_args;
              check_scalars_equal ctx ref_s fast_s)
            [ veval_mode target; Veval.Scalarized ])
        Vapor_targets.Scalar_target.all)
    Suite.all

let vfast_guard_false_case () =
  (* With every version guard failing, the fallback branches run; the fast
     path must take them identically. *)
  let guard_true _ = false in
  List.iter
    (fun (entry : Suite.entry) ->
      let vk = bytecode entry in
      let mode = Veval.Vector 16 in
      let ctx = entry.Suite.name ^ "/guard-false" in
      let fast_args = entry.Suite.args ~scale:1 in
      let ref_args = copy_args fast_args in
      let ref_s = Veval.run ~guard_true vk ~mode ~args:ref_args in
      let compiled = Vfast.compile vk ~mode in
      let fast_s = Vfast.run ~guard_true compiled ~args:fast_args in
      check_args_bit_equal ctx ref_args fast_args;
      check_scalars_equal ctx ref_s fast_s)
    Suite.all

let vfast_reuse_case () =
  (* One compiled body, run repeatedly: runs are independent (fresh
     environment each time) and keep matching the reference. *)
  let entry = Suite.find "sfir_fp" in
  let vk = bytecode entry in
  let mode = Veval.Vector 16 in
  let compiled = Vfast.compile vk ~mode in
  for i = 1 to 3 do
    let fast_args = entry.Suite.args ~scale:1 in
    let ref_args = copy_args fast_args in
    let ref_s = Veval.run vk ~mode ~args:ref_args in
    let fast_s = Vfast.run compiled ~args:fast_args in
    let ctx = Printf.sprintf "sfir_fp run %d" i in
    check_args_bit_equal ctx ref_args fast_args;
    check_scalars_equal ctx ref_s fast_s
  done

let error_message body_error args_of =
  match body_error args_of with
  | exception Veval.Error m -> Some m
  | _ -> None

let vfast_error_equiv_case () =
  (* Faults must match the reference exactly: same exception, same
     message, for missing arguments, kind mismatches, and argument-order
     robustness. *)
  let entry = Suite.find "saxpy_fp" in
  let vk = bytecode entry in
  let mode = Veval.Vector 16 in
  let compiled = Vfast.compile vk ~mode in
  let cases =
    [
      "missing", (fun args -> List.tl args);
      ( "kind-mismatch",
        fun args ->
          List.map
            (fun (n, a) ->
              match a with
              | Eval.Array _ -> n, Eval.Scalar (Value.Int 0)
              | other -> n, other)
            args );
    ]
  in
  List.iter
    (fun (name, mangle) ->
      let ref_err =
        error_message
          (fun args -> ignore (Veval.run vk ~mode ~args))
          (mangle (entry.Suite.args ~scale:1))
      in
      let fast_err =
        error_message
          (fun args -> ignore (Vfast.run compiled ~args))
          (mangle (entry.Suite.args ~scale:1))
      in
      check_bool (name ^ ": reference faulted") true (ref_err <> None);
      Alcotest.(check (option string)) (name ^ ": same message") ref_err
        fast_err)
    cases;
  (* Argument order must not matter (assoc lookup, like the reference). *)
  let fast_args = List.rev (entry.Suite.args ~scale:1) in
  let ref_args = copy_args fast_args in
  ignore (Veval.run vk ~mode ~args:ref_args);
  ignore (Vfast.run compiled ~args:fast_args);
  check_args_bit_equal "reversed args" ref_args fast_args

let vfast_corrupt_case () =
  (* A corrupted slot body must produce output the reference would not —
     the detectability contract the differential oracle relies on. *)
  let entry = Suite.find "saxpy_fp" in
  let vk = bytecode entry in
  let mode = Veval.Vector 16 in
  let bad = Vfast.corrupt (Vfast.compile vk ~mode) in
  let fast_args = entry.Suite.args ~scale:1 in
  let ref_args = copy_args fast_args in
  ignore (Veval.run vk ~mode ~args:ref_args);
  ignore (Vfast.run bad ~args:fast_args);
  let differs =
    List.exists2
      (fun (_, b1) (_, b2) -> not (Buffer_.equal b1 b2))
      (arrays ref_args) (arrays fast_args)
  in
  check_bool "corrupted body differs from reference" true differs

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

(* --- guarded interplay: corrupted slot bodies are quarantined ----------- *)

let corrupt_slot_quarantine_case () =
  (* A corrupted slot-compiled interpreter body must be caught by the
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
      ~hotness_threshold:1000 ()
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
  check_args_bit_equal "caller got the reference answer" ref_args fast_args

let slot_cache_counter_case () =
  (* One kernel invoked repeatedly in the interpreter tier compiles its
     slot body once and reuses it on every later invocation. *)
  let entry = Suite.find "sfir_fp" in
  let vk = bytecode entry in
  let target = Vapor_targets.Sse.target in
  let st = Stats.create () in
  let cache = Code_cache.create ~stats:st () in
  let tiered = Tiered.create ~stats:st ~cache ~hotness_threshold:1000 () in
  for _ = 1 to 5 do
    ignore
      (Tiered.invoke tiered ~target ~profile:Profile.gcc4cli vk
         ~args:(entry.Suite.args ~scale:1))
  done;
  check_int "one slot compilation" 1 (Tiered.slot_compiles tiered);
  check_int "four slot hits" 4 (Tiered.slot_hits tiered)

let () =
  Alcotest.run "fastpath"
    [
      ( "vfast",
        [
          Alcotest.test_case "suite x targets x modes bit-equal" `Quick
            vfast_sweep_case;
          Alcotest.test_case "fallback branches bit-equal" `Quick
            vfast_guard_false_case;
          Alcotest.test_case "compiled body reusable" `Quick vfast_reuse_case;
          Alcotest.test_case "faults identical to reference" `Quick
            vfast_error_equiv_case;
          Alcotest.test_case "corrupt body detectable" `Quick
            vfast_corrupt_case;
        ] );
      ( "engine",
        [
          Alcotest.test_case "plans match reference simulator" `Quick
            plan_sweep_case;
          Alcotest.test_case "fast replay report-identical" `Quick
            replay_engine_equiv_case;
          Alcotest.test_case "domains 1/2/4 reports identical" `Quick
            replay_domains_case;
          Alcotest.test_case "corrupt slot body quarantined" `Quick
            corrupt_slot_quarantine_case;
          Alcotest.test_case "slot bodies compiled once" `Quick
            slot_cache_counter_case;
        ] );
    ]
