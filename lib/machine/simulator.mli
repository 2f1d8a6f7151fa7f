(** Executing simulator for the virtual machine ISA with per-instruction
    cycle accounting: the stand-in for the paper's hardware targets. *)

open Vapor_ir
module Target = Vapor_targets.Target

exception Fault of string

type result = {
  r_cycles : int;
  r_instructions : int;
}

(** Run a compiled function to completion over a materialized memory
    image.  [fuel] bounds the executed instruction count.
    @raise Fault on alignment violations, out-of-bounds accesses, missing
    arguments, undefined registers, or fuel exhaustion. *)
val run :
  ?fuel:int ->
  Target.t ->
  Layout.t ->
  Bytes.t ->
  Mfun.t ->
  scalar_args:(string * Value.t) list ->
  result

(** A pre-resolved execution plan for one compiled function on one target:
    labels resolved to pcs, per-pc costs (x87-blended) precomputed,
    parameter binding compiled to closures.  The instructions the measured
    workload mix runs compile to specialized closures — scalar, control
    and spill instructions directly, vector lane operations through a few
    shared lane loops; every other instruction runs the reference step.
    Bit-, cycle-, instruction- and fault-exact against [run]; built once at
    JIT-compile time and reused for every invocation with zero per-run
    setup allocation. *)
type plan

val prepare : target:Target.t -> Mfun.t -> plan

(** The target the plan's costs and lane counts were resolved for. *)
val plan_target : plan -> Target.t

(** Run a prepared plan; same contract and faults as [run].  Not
    re-entrant: each plan owns one scratch machine state. *)
val run_plan :
  ?fuel:int ->
  plan ->
  Layout.t ->
  Bytes.t ->
  scalar_args:(string * Value.t) list ->
  result
