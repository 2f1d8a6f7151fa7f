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

(** Lay out [args] per [policy] as a one-shot {!frame}, run the body's
    pre-resolved plan ([compiled.plan]) on it, and copy results back into
    the argument buffers: {!run_frame} with [~into:args].  [target] must
    be the target the body was compiled for, or a late-bound target that
    {!Vapor_targets.Target.resolve}s to it; any other target raises
    [Invalid_argument] before memory is laid out. *)
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

(** {2 Frames}

    A frame is one operand set laid out for one stack size: the layout, a
    pristine memory image built once from the operands, a working image
    of exactly the layout's [total_bytes] (the simulator bounds-checks
    against its length, so an out-of-bounds access faults as in the
    reference), and the scalar arguments.  A run blits the pristine image
    into the working one, runs the plan on the working image, and reads
    it back only into the buffers it is given.  The pristine image is
    never written: a run that faults dirties only the working image, and
    the next run's blit restores it.  A frame is not re-entrant: one run
    at a time. *)

type frame

(** The stack bytes a body's frame must lay out: its spill area plus
    headroom, at least {!Vapor_machine.Layout.default_stack_bytes}.
    Together with the operands and the layout policy it is every input
    of the layout. *)
val stack_bytes : Compile.t -> int

(** Lay out and materialize [args] (read, never written) for a body
    needing [stack_bytes]. *)
val frame :
  ?policy:Layout.policy -> stack_bytes:int -> (string * Eval.arg) list -> frame

val frame_layout : frame -> Layout.t

(** A copy of the frame's pristine image. *)
val frame_pristine : frame -> string

(** The one execution body behind {!run}, {!run_checked} and the serving
    path: [frame_for (stack_bytes compiled)] gives the frame (the
    [layout] stage leaf times that call and the blit), the plan runs on
    its working image, and after a clean finish the results are read
    back into [into]'s array buffers, which must be the frame's
    operands or same-shaped copies of them.  Without [into] nothing is
    read back: the caller wants only the cycle count.

    Never raises on planning or simulation faults: a target the body was
    not compiled for is a [`Plan] error, raised before [frame_for] is
    called; a simulator fault is a [`Simulate] error.  On [Error], [into]
    is untouched and so is the frame's pristine image, so the caller can
    fall back to the interpreter tier, and the frame's next run starts
    from the operands again. *)
val run_frame :
  ?into:(string * Eval.arg) list ->
  Target.t ->
  Compile.t ->
  (int -> frame) ->
  (run_result, exec_error) result

(** {!run} that never raises on planning/simulation faults:
    {!run_frame} on a one-shot frame of [args] with [~into:args].  On
    [Error] the argument buffers are untouched. *)
val run_checked :
  ?policy:Layout.policy ->
  Target.t ->
  Compile.t ->
  args:(string * Eval.arg) list ->
  (run_result, exec_error) result
