(* Linear-scan register allocation with spilling (Poletto & Sarkar style).

   Intervals are [first occurrence, last occurrence] per virtual register,
   conservatively extended to cover any loop region they partially overlap
   (so loop-carried values stay live across backedges).  When the register
   file is exhausted, the active interval with the furthest end is spilled
   to a stack slot; spill code uses reserved scratch registers.

   The number of *allocatable* registers is a code-generator quality knob:
   the Mono profile exposes fewer, producing real spill traffic whose
   cycles the simulator then charges — this is mechanism behind the
   paper's "lack of proper global register allocation" effects.

   Data layout.  One pass over the function records every register operand
   as one int in a flat array, in [Minstr.iter_regs] order, so each
   instruction's operands are read once.  Registers are then numbered
   densely, the three classes one after another ([key = base.(class) +
   virtual id]), and operands become [key * 2 + def].  Live ranges and
   assignments are int arrays indexed by key; the interval order is a
   counting sort by start; the free and active sets are small int arrays.
   Nothing allocates per instruction except the rewritten instructions
   themselves, and the whole allocation is linear in the function's size
   for structured loops. *)

open Vapor_ir
module Target = Vapor_targets.Target

type budget = {
  b_gpr : int;
  b_fpr : int;
  b_vr : int;
}

(* Loop regions: [start,stop] instruction index ranges of backedges, latest
   backedge first. *)
let loop_regions (instrs : Minstr.t array) =
  let label_pos = Hashtbl.create 16 and jumps = ref [] in
  Array.iteri
    (fun pc ins ->
      match ins with
      | Minstr.Label l -> Hashtbl.replace label_pos l pc
      | Minstr.Jmp l | Minstr.Br (_, _, _, l) -> jumps := (pc, l) :: !jumps
      | _ -> ())
    instrs;
  List.filter_map
    (fun (pc, l) ->
      match Hashtbl.find_opt label_pos l with
      | Some t when t < pc -> Some (t, pc)
      | Some _ | None -> None)
    !jumps

(* Register classes as dense indices. *)
let classes = [| Minstr.GPR; Minstr.FPR; Minstr.VR |]

let cls_index (cls : Minstr.cls) =
  match cls with
  | Minstr.GPR -> 0
  | Minstr.FPR -> 1
  | Minstr.VR -> 2

(* The class of a dense key, given the class bases. *)
let key_cls (base : int array) rk =
  if rk < base.(1) then 0 else if rk < base.(2) then 1 else 2

(* Scratch registers reserved per class for spill rewriting (Vdot can need
   four distinct vector operands). *)
let scratch_of c = if c = 2 then 4 else 3

(* Bytes per spill slot of a scalar class. *)
let slot_bytes = 8

(* The memory type used to spill a scalar register of a class. *)
let spill_ty c =
  match c with
  | 0 -> Src_type.I64
  | 1 -> Src_type.F64
  | _ -> invalid_arg "spill_ty: vectors use VSpill slots"

(* Loop regions as arrays sorted by start, with the running maximum of
   their ends. *)
type loops = {
  lo : int array;
  hi : int array;
  hi_max : int array;  (* hi_max.(j) = max hi.(0..j) *)
}

let sorted_loops ~n regions =
  let keys =
    Array.of_list (List.map (fun (lo, hi) -> (lo * (n + 1)) + hi) regions)
  in
  Array.sort Int.compare keys;
  let lo = Array.map (fun k -> k / (n + 1)) keys in
  let hi = Array.map (fun k -> k mod (n + 1)) keys in
  let hi_max = Array.copy hi in
  for j = 1 to Array.length hi - 1 do
    if hi_max.(j - 1) > hi.(j) then hi_max.(j) <- hi_max.(j - 1)
  done;
  { lo; hi; hi_max }

(* Extend a live range across the loops that carry it, to a fixpoint:
   a loop [lo, hi] with [lo <= stop < hi] stretches [stop] to [hi] when
   the value is defined before the loop ([start < lo]: the use recurs
   every iteration) or when its first occurrence is a use
   ([first_def > start]: loop-carried).  A value first defined at [start]
   inside a loop is a temporary of one iteration and stays short.
   [after] indexes the first loop starting after [start]; loops are swept
   once from there in start order, since [stop] only grows. *)
let extend loops ~after ~start ~first_def stop =
  let s = ref stop in
  if first_def > start && after > 0 && loops.hi_max.(after - 1) > !s then
    s := loops.hi_max.(after - 1);
  let j = ref after in
  while !j < Array.length loops.lo && loops.lo.(!j) <= !s do
    if loops.hi.(!j) > !s then s := loops.hi.(!j);
    incr j
  done;
  !s

(* The touched keys among the first [n_keys], in (start, key) order, into
   [order]; returns their count.  A counting sort by start over [bucket]
   ([n + 1] ints), stable in key order, so each class sees its intervals
   in (start, vreg) order. *)
let by_start ~n ~n_keys ~bucket ~order start =
  Array.fill bucket 0 (n + 1) 0;
  for rk = 0 to n_keys - 1 do
    let s = start.(rk) in
    if s >= 0 then bucket.(s + 1) <- bucket.(s + 1) + 1
  done;
  for s = 1 to n do
    bucket.(s) <- bucket.(s) + bucket.(s - 1)
  done;
  for rk = 0 to n_keys - 1 do
    let s = start.(rk) in
    if s >= 0 then begin
      order.(bucket.(s)) <- rk;
      bucket.(s) <- bucket.(s) + 1
    end
  done;
  bucket.(n)

(* Assign class [cls]'s intervals (keys [base.(cls)] up to
   [base.(cls + 1)]) to [k] physical registers: [where.(rk)]
   becomes a register (>= 0) or a stack slot [-1 - where.(rk)].  Expired
   intervals return their registers to a LIFO free stack in active-list
   order (most recently activated first); with none free, the first
   interval with a strictly greater [stop] — the current one, then the
   active ones from the most recently activated — is spilled.  Returns
   the slot count. *)
let linear_scan ~base ~cls ~k ~order ~n_order ~(start : int array)
    ~(stop : int array) (where : int array) =
  let free = Array.make k 0 and n_free = ref k in
  for i = 0 to k - 1 do
    free.(i) <- k - 1 - i
  done;
  (* active intervals, oldest first *)
  let active = Array.make k 0 and n_active = ref 0 in
  let slots = ref 0 in
  for i = 0 to n_order - 1 do
    let rk = order.(i) in
    if rk >= base.(cls) && rk < base.(cls + 1) then begin
      let pos = start.(rk) in
      for a = !n_active - 1 downto 0 do
        let u = active.(a) in
        if stop.(u) < pos then begin
          free.(!n_free) <- where.(u);
          incr n_free
        end
      done;
      let kept = ref 0 in
      for a = 0 to !n_active - 1 do
        let u = active.(a) in
        if stop.(u) >= pos then begin
          active.(!kept) <- u;
          incr kept
        end
      done;
      n_active := !kept;
      if !n_free > 0 then begin
        decr n_free;
        where.(rk) <- free.(!n_free);
        active.(!n_active) <- rk;
        incr n_active
      end
      else begin
        let victim = ref (-1) and furthest = ref stop.(rk) in
        for a = !n_active - 1 downto 0 do
          let u = active.(a) in
          if stop.(u) > !furthest then begin
            victim := a;
            furthest := stop.(u)
          end
        done;
        if !victim < 0 then where.(rk) <- -1 - !slots
        else begin
          let u = active.(!victim) in
          where.(rk) <- where.(u);
          where.(u) <- -1 - !slots;
          Array.blit active (!victim + 1) active !victim
            (!n_active - !victim - 1);
          active.(!n_active - 1) <- rk
        end;
        incr slots
      end
    end
  done;
  !slots

(* The first operand from [first] on naming register [rk]; there must be
   one. *)
let first_with ops ~first rk =
  let j = ref first in
  while ops.(!j) lsr 1 <> rk do
    incr j
  done;
  !j

(* Scratch arrays reused from call to call, one set per domain: compiles
   run on several domains at once, and a call never yields to another on
   its own domain.  An array past the minor heap's block limit would
   otherwise be fresh, cold major-heap memory on every call, which costs
   more to touch than everything the allocator then does with it.  Arrays
   only grow; each call initializes what it reads. *)
type workspace = {
  mutable ops : int array;
  mutable off : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable first_def : int array;
  mutable where : int array;
  mutable bucket : int array;
  mutable order : int array;
  regs : Minstr.reg array array;  (* per class, by physical id *)
  mutable stack : Minstr.addr array;  (* by stack slot offset / 8 *)
}

let workspace =
  Domain.DLS.new_key (fun () ->
      {
        ops = [||];
        off = [||];
        start = [||];
        stop = [||];
        first_def = [||];
        where = [||];
        bucket = [||];
        order = [||];
        regs = [| [||]; [||]; [||] |];
        stack = [||];
      })

(* [a] if it holds [n] ints, else a larger array (contents unspecified). *)
let at_least a n =
  if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) 0

(* [a] extended to hold index [i], new places filled by [make]. *)
let grown a i make =
  if i < Array.length a then a
  else
    let n = Array.length a in
    Array.init (max (i + 1) (2 * n)) (fun j -> if j < n then a.(j) else make j)

(* The output names each physical register with one record per class and
   id, and each scalar spill slot with one address, kept in the
   workspace from call to call (they are immutable).  So a rewritten
   instruction holds no register record of its own, and neither does any
   copy of the function that [Marshal] makes: the persistent store
   unmarshals a body on every warm start.  [phys_regs ws c n] holds the
   records of class [c]'s ids [0, n) at least; [stack_addrs ws n] the
   addresses of the first [n] slots, slot [k] at displacement [8k]. *)
let phys_regs ws c n =
  if n > Array.length ws.regs.(c) then
    ws.regs.(c) <-
      grown ws.regs.(c) (n - 1) (fun j -> { Minstr.cls = classes.(c); id = j });
  ws.regs.(c)

let stack_addrs ws n =
  if n > Array.length ws.stack then
    ws.stack <-
      grown ws.stack (n - 1) (fun j ->
          {
            Minstr.sym = "$stack";
            base = None;
            index = None;
            scale = 1;
            disp = j * slot_bytes;
          });
  ws.stack

(* Rewrite a function to physical registers, inserting spill code.
   Returns the rewritten function. *)
let run (target : Target.t) (budget : budget) (f : Mfun.t) : Mfun.t =
  ignore target;
  let instrs = f.Mfun.instrs in
  let n = Array.length instrs in
  let ws = Domain.DLS.get workspace in
  (* Operands of instruction [pc]: ops.(off.(pc)) .. ops.(off.(pc+1)-1),
     uses before defs, first as [id * 8 + class * 2 + def]. *)
  ws.ops <- at_least ws.ops ((3 * n) + 4);
  ws.off <- at_least ws.off (n + 1);
  let n_ops = ref 0 and n_ids = Array.make 3 0 in
  let push ~def (r : Minstr.reg) =
    let id = r.Minstr.id and c = cls_index r.Minstr.cls in
    if id < 0 then invalid_arg "regalloc: negative register id";
    if id >= n_ids.(c) then n_ids.(c) <- id + 1;
    if !n_ops = Array.length ws.ops then begin
      let grown = Array.make (2 * !n_ops) 0 in
      Array.blit ws.ops 0 grown 0 !n_ops;
      ws.ops <- grown
    end;
    ws.ops.(!n_ops) <- (id lsl 3) lor (c lsl 1) lor def;
    incr n_ops
  in
  let use r = push ~def:0 r and def r = push ~def:1 r in
  let off = ws.off in
  for pc = 0 to n - 1 do
    off.(pc) <- !n_ops;
    Minstr.iter_regs ~use ~def instrs.(pc)
  done;
  off.(n) <- !n_ops;
  let ops = ws.ops in
  let base = [| 0; n_ids.(0); n_ids.(0) + n_ids.(1); 0 |] in
  base.(3) <- base.(2) + n_ids.(2);
  let n_keys = base.(3) in
  (* Dense keys, and live ranges by key; untouched keys keep
     [start = -1]. *)
  ws.start <- at_least ws.start n_keys;
  ws.stop <- at_least ws.stop n_keys;
  ws.first_def <- at_least ws.first_def n_keys;
  ws.where <- at_least ws.where n_keys;
  let start = ws.start and stop = ws.stop and first_def = ws.first_def in
  let where = ws.where in
  Array.fill start 0 n_keys (-1);
  Array.fill first_def 0 n_keys max_int;
  Array.fill where 0 n_keys 0;
  for pc = 0 to n - 1 do
    for i = off.(pc) to off.(pc + 1) - 1 do
      let k = ops.(i) in
      let rk = base.((k lsr 1) land 3) + (k lsr 3) in
      ops.(i) <- (rk lsl 1) lor (k land 1);
      if start.(rk) < 0 then start.(rk) <- pc;
      stop.(rk) <- pc;
      if k land 1 = 1 && first_def.(rk) = max_int then first_def.(rk) <- pc
    done
  done;
  let key (r : Minstr.reg) = base.(cls_index r.Minstr.cls) + r.Minstr.id in
  (* A parameter's key, or -1 when the function never touches it. *)
  let param_key (r : Minstr.reg) =
    let id = r.Minstr.id in
    if id < 0 || id >= n_ids.(cls_index r.Minstr.cls) || start.(key r) < 0
    then -1
    else key r
  in
  (* Parameters are seeded before execution: live from entry. *)
  List.iter
    (fun (_, _, loc) ->
      match loc with
      | Mfun.In_reg r ->
        let rk = param_key r in
        if rk >= 0 then start.(rk) <- 0
      | Mfun.In_stack _ -> ())
    f.Mfun.param_regs;
  ws.bucket <- at_least ws.bucket (n + 1);
  ws.order <- at_least ws.order n_keys;
  let order = ws.order in
  let n_order = by_start ~n ~n_keys ~bucket:ws.bucket ~order start in
  (match loop_regions instrs with
  | [] -> ()
  | regions ->
    let loops = sorted_loops ~n regions in
    let n_loops = Array.length loops.lo and after = ref 0 in
    for i = 0 to n_order - 1 do
      let rk = order.(i) in
      while !after < n_loops && loops.lo.(!after) <= start.(rk) do
        incr after
      done;
      stop.(rk) <-
        extend loops ~after:!after ~start:start.(rk)
          ~first_def:first_def.(rk) stop.(rk)
    done);
  let budget_of c =
    match c with 0 -> budget.b_gpr | 1 -> budget.b_fpr | _ -> budget.b_vr
  in
  let usable = Array.init 3 (fun c -> max 1 (budget_of c - scratch_of c)) in
  let slots =
    Array.init 3 (fun cls ->
        linear_scan ~base ~cls ~k:usable.(cls) ~order ~n_order ~start ~stop
          where)
  in
  (* Stack frame layout for scalar spills: [gpr slots][fpr slots].
     Vector spills use the simulator's dedicated slot file (VSpill). *)
  let fpr_off = slots.(0) * slot_bytes in
  let stack_bytes = fpr_off + (slots.(1) * slot_bytes) in
  let stack = stack_addrs ws (slots.(0) + slots.(1)) in
  let slot_addr c slot = stack.((if c = 0 then 0 else slots.(0)) + slot) in
  (* registers a rewritten operand can name: allocated, then scratch *)
  let phys =
    Array.init 3 (fun c -> phys_regs ws c (usable.(c) + scratch_of c))
  in
  (* Vector spill slots start above any demotion slots already present. *)
  let vspill_base = f.Mfun.n_vspill in
  let spilled k = where.(k lsr 1) < 0 in
  let spill_load k scratch =
    let c = key_cls base (k lsr 1) and slot = -1 - where.(k lsr 1) in
    if c = 2 then Minstr.VReload (scratch, vspill_base + slot)
    else Minstr.Load (spill_ty c, scratch, slot_addr c slot)
  in
  let spill_store k scratch =
    let c = key_cls base (k lsr 1) and slot = -1 - where.(k lsr 1) in
    if c = 2 then Minstr.VSpill (vspill_base + slot, scratch)
    else Minstr.Store (spill_ty c, slot_addr c slot, scratch)
  in
  (* Spill code: one reload per distinct spilled use, one store per
     spilled def. *)
  let has_spill = Bytes.make n '\000' in
  let n_out = ref n and max_ops = ref 0 in
  for pc = 0 to n - 1 do
    let first = off.(pc) in
    if off.(pc + 1) - first > !max_ops then max_ops := off.(pc + 1) - first;
    for i = first to off.(pc + 1) - 1 do
      let k = ops.(i) in
      if spilled k then begin
        Bytes.set has_spill pc '\001';
        if k land 1 = 1 || first_with ops ~first (k lsr 1) = i then
          incr n_out
      end
    done
  done;
  let out = Array.make !n_out (Minstr.Label 0) and o = ref 0 in
  let emit ins =
    out.(!o) <- ins;
    incr o
  in
  (* The spilled operands of the current instruction go through scratch
     registers, numbered per class in operand order; operand [i]'s is
     [scratch.(i - !cur)], [!cur] being the instruction's first operand. *)
  let scratch = Array.make !max_ops (Minstr.gpr 0) in
  let next_scratch = Array.make 3 0 in
  let cur = ref 0 in
  let rewrite (reg : Minstr.reg) =
    let rk = key reg in
    let w = where.(rk) in
    if w >= 0 then phys.(cls_index reg.Minstr.cls).(w)
    else scratch.(first_with ops ~first:!cur rk - !cur)
  in
  for pc = 0 to n - 1 do
    cur := off.(pc);
    let spills = Bytes.get has_spill pc = '\001' in
    if spills then begin
      Array.fill next_scratch 0 3 0;
      for i = !cur to off.(pc + 1) - 1 do
        let k = ops.(i) in
        if spilled k then begin
          let j = first_with ops ~first:!cur (k lsr 1) in
          if j < i then scratch.(i - !cur) <- scratch.(j - !cur)
          else begin
            let c = key_cls base (k lsr 1) in
            let s = next_scratch.(c) in
            next_scratch.(c) <- s + 1;
            if s >= scratch_of c then
              invalid_arg "regalloc: out of scratch registers";
            let reg = phys.(c).(usable.(c) + s) in
            scratch.(i - !cur) <- reg;
            if k land 1 = 0 then emit (spill_load k reg)
          end
        end
      done
    end;
    emit (Minstr.map_regs rewrite instrs.(pc));
    if spills then
      for i = off.(pc + 1) - 1 downto !cur do
        let k = ops.(i) in
        if k land 1 = 1 && spilled k then
          emit (spill_store k scratch.(i - !cur))
      done
  done;
  let param_regs =
    List.map
      (fun (name, sty, loc) ->
        match loc with
        | Mfun.In_stack _ -> name, sty, loc
        | Mfun.In_reg reg ->
          let rk = param_key reg in
          let w = if rk < 0 then 0 (* never touched *) else where.(rk) in
          if w >= 0 then
            name, sty, Mfun.In_reg phys.(cls_index reg.Minstr.cls).(w)
          else
            let c = key_cls base rk in
            ( name,
              sty,
              Mfun.In_stack (spill_ty c, (slot_addr c (-1 - w)).Minstr.disp) ))
      f.Mfun.param_regs
  in
  {
    f with
    Mfun.instrs = out;
    n_gpr = budget.b_gpr;
    n_fpr = budget.b_fpr;
    n_vr = max 1 budget.b_vr;
    param_regs;
    stack_bytes;
    n_vspill = f.Mfun.n_vspill + slots.(2);
  }
