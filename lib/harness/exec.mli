(** End-to-end execution of compiled kernels on the simulated targets. *)

open Vapor_ir
module Layout = Vapor_machine.Layout
module Target = Vapor_targets.Target
module Compile = Vapor_jit.Compile

type run_result = {
  cycles : int;
  instructions : int;
  compile_time_us : float;
}

val split_args :
  (string * Eval.arg) list ->
  (string * Buffer_.t) list * (string * Value.t) list

(** Lay out memory per [policy], run the body's pre-resolved plan
    ([compiled.plan]), and copy results back into the argument buffers.
    [target] must be the target the body was compiled for, or a late-bound
    target that {!Vapor_targets.Target.resolve}s to it; any other target
    raises [Invalid_argument] before memory is laid out. *)
val run :
  ?policy:Layout.policy ->
  Target.t ->
  Compile.t ->
  args:(string * Eval.arg) list ->
  run_result

(** The same run through the instruction-by-instruction [Simulator.run]
    on [mfun]: the tests' oracle for the plan (cycles, instructions and
    output buffers must agree).  No serving path reaches it. *)
val run_reference :
  ?policy:Layout.policy ->
  Target.t ->
  Compile.t ->
  args:(string * Eval.arg) list ->
  run_result

(** Typed execution failure: layout planning or a simulator fault. *)
type exec_error = {
  ee_stage : [ `Plan | `Simulate ];
  ee_reason : string;
}

val exec_error_to_string : exec_error -> string

(** Like {!run} but never raises on planning/simulation faults: a target
    the body was not compiled for is a [`Plan] error.  On [Error] the
    argument buffers are untouched (results are only copied back after a
    clean finish), so the caller can fall back to the interpreter tier. *)
val run_checked :
  ?policy:Layout.policy ->
  Target.t ->
  Compile.t ->
  args:(string * Eval.arg) list ->
  (run_result, exec_error) result
