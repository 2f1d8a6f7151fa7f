(* End-to-end execution of compiled kernels on the simulated targets. *)

open Vapor_ir
module B = Vapor_vecir.Bytecode
module Layout = Vapor_machine.Layout
module Simulator = Vapor_machine.Simulator
module Target = Vapor_targets.Target
module Compile = Vapor_jit.Compile

type run_result = {
  cycles : int;
  instructions : int;
  compile_time_us : float;
}

let split_args (args : (string * Eval.arg) list) =
  let arrays =
    List.filter_map
      (function
        | n, Eval.Array b -> Some (n, b)
        | _, Eval.Scalar _ -> None)
      args
  in
  let scalars =
    List.filter_map
      (function
        | n, Eval.Scalar v -> Some (n, v)
        | _, Eval.Array _ -> None)
      args
  in
  arrays, scalars

(* Run a compiled kernel over the given arguments; array buffers are
   updated in place from the final memory image.  [simulate] is the
   prepared plan, or for [run_reference] the instruction-by-instruction
   [Simulator.run]. *)
let run_with ~simulate ?(policy = Layout.aligned_policy) (target : Target.t)
    (compiled : Compile.t) ~(args : (string * Eval.arg) list) : run_result =
  let module Stage = Vapor_obs.Stage in
  let arrays, scalars = split_args args in
  let stack_bytes =
    max Layout.default_stack_bytes
      (compiled.Compile.mfun.Vapor_machine.Mfun.stack_bytes + 256)
  in
  let t0 = Stage.start () in
  let layout = Layout.plan ~stack_bytes ~policy arrays in
  let mem = Layout.materialize layout arrays in
  Stage.record "layout" t0;
  let t0 = Stage.start () in
  let r : Simulator.result = simulate target compiled layout mem scalars in
  Stage.record "simulate" t0;
  Layout.read_back layout mem arrays;
  {
    cycles = r.Simulator.r_cycles;
    instructions = r.Simulator.r_instructions;
    compile_time_us = compiled.Compile.compile_time_us;
  }

let simulate_plan _target (compiled : Compile.t) layout mem scalars =
  Simulator.run_plan compiled.Compile.plan layout mem ~scalar_args:scalars

(* The plan is prepared for the concrete target the body was compiled
   for; a late-bound target runs it when it resolves to that target.  Any
   other target is the caller's error. *)
let run ?policy (target : Target.t) (compiled : Compile.t) ~args =
  let planned = Simulator.plan_target compiled.Compile.plan in
  if not (String.equal (Target.resolve target).Target.name planned.Target.name)
  then
    invalid_arg
      (Printf.sprintf "Exec.run: body compiled for %s, not %s"
         planned.Target.name target.Target.name);
  run_with ~simulate:simulate_plan ?policy target compiled ~args

let simulate_reference target (compiled : Compile.t) layout mem scalars =
  Simulator.run target layout mem compiled.Compile.mfun ~scalar_args:scalars

(* The tests' oracle for the plan; no serving path reaches it. *)
let run_reference ?policy target compiled ~args =
  run_with ~simulate:simulate_reference ?policy target compiled ~args

type exec_error = {
  ee_stage : [ `Plan | `Simulate ];
  ee_reason : string;
}

let exec_error_to_string e =
  Printf.sprintf "%s: %s"
    (match e.ee_stage with `Plan -> "plan" | `Simulate -> "simulate")
    e.ee_reason

(* Typed-error execution.  The simulator only writes caller buffers in
   [Layout.read_back] after a clean finish, so a fault mid-run leaves the
   arguments exactly as they were — the caller can safely re-run through
   the interpreter tier. *)
let run_checked ?policy (target : Target.t) (compiled : Compile.t)
    ~(args : (string * Eval.arg) list) : (run_result, exec_error) result =
  match run ?policy target compiled ~args with
  | r -> Ok r
  | exception Invalid_argument msg ->
    Error { ee_stage = `Plan; ee_reason = msg }
  | exception Simulator.Fault msg ->
    Error { ee_stage = `Simulate; ee_reason = msg }
