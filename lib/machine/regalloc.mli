(** Linear-scan register allocation with spilling.

    Live intervals run from a virtual register's first to its last
    occurrence, stretched across the loops that carry the value.  When a
    class runs out of allocatable registers, the interval ending furthest
    away is spilled to a stack slot (vector classes to the simulator's
    [VSpill] slots), and spill code goes through reserved scratch
    registers.  The work is linear in the function's size for structured
    loops, and allocates little beyond the rewritten function. *)

(** Registers per class that the code-generator profile exposes; the
    allocator keeps three (GPR, FPR) or four (vector) of them as spill
    scratch. *)
type budget = {
  b_gpr : int;
  b_fpr : int;
  b_vr : int;
}

(** The [(label position, backedge position)] instruction ranges of a
    function's backward jumps, latest backedge first. *)
val loop_regions : Minstr.t array -> (int * int) list

(** Rewrite a function from virtual to physical registers, inserting
    spill code, under a budget.  The target is not consulted.

    @raise Invalid_argument ["regalloc: out of scratch registers"] when
    one instruction has more spilled operands of a class than that class
    has scratch registers. *)
val run : Vapor_targets.Target.t -> budget -> Mfun.t -> Mfun.t
