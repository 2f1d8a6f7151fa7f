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

(* --- frames ---------------------------------------------------------------
   A frame is one operand set laid out for one stack size: the layout, a
   pristine memory image built once and never written, a working image of
   exactly the same length, and the scalar arguments.  Every run blits the
   pristine image into the working one, so a run (a faulting one included)
   dirties only the working image, and the next run starts clean. *)

type frame = {
  fr_layout : Layout.t;
  fr_pristine : Bytes.t;
  fr_work : Bytes.t;
  fr_scalars : (string * Value.t) list;
}

let stack_bytes (compiled : Compile.t) =
  max Layout.default_stack_bytes
    (compiled.Compile.mfun.Vapor_machine.Mfun.stack_bytes + 256)

let frame ?(policy = Layout.aligned_policy) ~stack_bytes args =
  let arrays, scalars = split_args args in
  let layout = Layout.plan ~stack_bytes ~policy arrays in
  let pristine = Layout.materialize layout arrays in
  {
    fr_layout = layout;
    fr_pristine = pristine;
    (* exactly [total_bytes]: the simulator bounds-checks against it *)
    fr_work = Bytes.create (Bytes.length pristine);
    fr_scalars = scalars;
  }

let frame_layout fr = fr.fr_layout
let frame_pristine fr = Bytes.to_string fr.fr_pristine

(* The one execution body.  [frame_for] gives the frame for the body's
   stack size; the [layout] leaf times that (a first-use build included)
   and the blit.  Results reach [into]'s array buffers only after a clean
   finish.  [simulate] is the prepared plan, or for [run_reference] the
   instruction-by-instruction [Simulator.run]. *)
let exec ~simulate ?into target (compiled : Compile.t) frame_for : run_result =
  let module Stage = Vapor_obs.Stage in
  let t0 = Stage.start () in
  let fr = frame_for (stack_bytes compiled) in
  Bytes.blit fr.fr_pristine 0 fr.fr_work 0 (Bytes.length fr.fr_work);
  Stage.record "layout" t0;
  let t0 = Stage.start () in
  let r : Simulator.result =
    simulate target compiled fr.fr_layout fr.fr_work fr.fr_scalars
  in
  Stage.record "simulate" t0;
  (match into with
  | Some args -> Layout.read_back fr.fr_layout fr.fr_work (fst (split_args args))
  | None -> ());
  {
    cycles = r.Simulator.r_cycles;
    instructions = r.Simulator.r_instructions;
    compile_time_us = compiled.Compile.compile_time_us;
  }

let simulate_plan _target (compiled : Compile.t) layout mem scalars =
  Simulator.run_plan compiled.Compile.plan layout mem ~scalar_args:scalars

(* The plan is prepared for the concrete target the body was compiled
   for; a late-bound target runs it when it resolves to that target.  Any
   other target is the caller's error, raised before any memory is
   touched. *)
let exec_plan ?into (target : Target.t) (compiled : Compile.t) frame_for =
  let planned = Simulator.plan_target compiled.Compile.plan in
  if not (String.equal (Target.resolve target).Target.name planned.Target.name)
  then
    invalid_arg
      (Printf.sprintf "Exec.run: body compiled for %s, not %s"
         planned.Target.name target.Target.name);
  exec ~simulate:simulate_plan ?into target compiled frame_for

(* A caller's own arguments as a frame used once. *)
let one_shot ?policy args stack_bytes = frame ?policy ~stack_bytes args

let run ?policy (target : Target.t) (compiled : Compile.t) ~args =
  exec_plan ~into:args target compiled (one_shot ?policy args)

let simulate_reference target (compiled : Compile.t) layout mem scalars =
  Simulator.run target layout mem compiled.Compile.mfun ~scalar_args:scalars

(* The tests' oracle for the plan; no serving path reaches it. *)
let run_reference ?policy target compiled ~args =
  exec ~simulate:simulate_reference ~into:args target compiled
    (one_shot ?policy args)

type exec_error = {
  ee_stage : [ `Plan | `Simulate ];
  ee_reason : string;
}

let exec_error_to_string e =
  Printf.sprintf "%s: %s"
    (match e.ee_stage with `Plan -> "plan" | `Simulate -> "simulate")
    e.ee_reason

(* Typed-error execution.  Results are only read back after a clean
   finish, so a fault mid-run leaves [into] exactly as it was and the
   frame's pristine image untouched — the caller can safely re-run
   through the interpreter tier. *)
let run_frame ?into (target : Target.t) (compiled : Compile.t) frame_for :
    (run_result, exec_error) result =
  match exec_plan ?into target compiled frame_for with
  | r -> Ok r
  | exception Invalid_argument msg ->
    Error { ee_stage = `Plan; ee_reason = msg }
  | exception Simulator.Fault msg ->
    Error { ee_stage = `Simulate; ee_reason = msg }

let run_checked ?policy target compiled ~args =
  run_frame ~into:args target compiled (one_shot ?policy args)
