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
    labels resolved to pcs, costs (x87-blended) summed per basic block,
    parameter binding compiled to closures, every vector register given
    fixed lane storage.  Nearly every instruction compiles to a
    specialized closure that writes its result in place, masked loads
    and stores included; the rest — float [Vunop], [Viota], [Vpack] and
    [Vunpack], bitwise ops on float lanes — run the reference step.
    Bit-, cycle-, instruction- and fault-exact against [run]; built once
    at JIT-compile time (or when a body is loaded from the persistent
    store) and reused for every invocation.  Building it allocates about
    11 minor words per instruction at any function size, most of them
    the closures themselves.  A run allocates a constant
    handful of words (parameter binding, the result) and nothing per
    executed instruction, except in those reference steps. *)
type plan

val prepare : target:Target.t -> Mfun.t -> plan

(** The target the plan's costs and lane counts were resolved for. *)
val plan_target : plan -> Target.t

(** Run a prepared plan; same contract and faults as [run].  It charges
    each basic block's cycles and instructions at once, stepping one
    instruction at a time only in the block where [fuel] runs out.  Not
    re-entrant: each plan owns one scratch machine state. *)
val run_plan :
  ?fuel:int ->
  plan ->
  Layout.t ->
  Bytes.t ->
  scalar_args:(string * Value.t) list ->
  result
