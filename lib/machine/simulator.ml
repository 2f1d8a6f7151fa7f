(* Executing simulator for the virtual machine ISA with per-instruction
   cycle accounting.  This is the project's stand-in for the paper's
   hardware targets: results must match the IR interpreter exactly (ints)
   or up to reduction reassociation (floats); cycles implement the target
   cost tables. *)

open Vapor_ir
module Target = Vapor_targets.Target

exception Fault of string

let faultf fmt = Format.kasprintf (fun s -> raise (Fault s)) fmt

type vval =
  | VInt of int array
  | VFloat of float array
  | VUndef

(* A one-element float32 cell.  Storing a double into it and reading it
   back rounds to f32 exactly as [Int32.float_of_bits (Int32.bits_of_float
   x)] does, but with no C call: the element kind is static, so ocamlopt
   compiles the store and the load to inline conversions. *)
type f32_cell =
  (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

(* The vector register file.  Storage register [i] is vector register [i]
   for [i < n_vr], spill slot [i - n_vr] for the [n_slots] after them, and
   one scratch register last.  Each owns lanes [i * vw, i * vw + vw) of
   both [vi] and [vf], allocated once; its tag [vt.(i)] says which of the
   two holds its value and how many lanes it has (see [int_tag]). *)
type state = {
  target : Target.t;
  mutable layout : Layout.t; (* mutable so a prepared plan can reuse one
                                scratch state across runs *)
  mutable mem : Bytes.t;
  gpr : int array;
  fpr : float array;
  vw : int; (* lanes per register *)
  n_vr : int;
  n_slots : int;
  vi : int array;
  vf : float array;
  vt : int array;
  f32 : f32_cell;
  mutable cycles : int;
  mutable executed : int;
}

type result = {
  r_cycles : int;
  r_instructions : int;
}

(* Register tags: 0 is undefined; otherwise the lane count times four,
   plus 1 for int lanes or 2 for float lanes. *)
let undef_tag = 0
let[@inline] int_tag n = (n lsl 2) lor 1
let[@inline] float_tag n = (n lsl 2) lor 2
let[@inline] tag_lanes t = t lsr 2

(* Does tag [t] hold lanes of [tmin]'s class, at least as many? *)
let[@inline] fits t tmin = t land 3 = tmin land 3 && t >= tmin

(* Lanes per register: every result is at most [vs] one-byte lanes, or
   the two lanes a pack makes when [vs] is narrower than its source. *)
let lanes_per_reg (target : Target.t) = max 2 target.Target.vs

let make_state (target : Target.t) layout mem (f : Mfun.t) =
  let n_vr = max 1 f.Mfun.n_vr and n_slots = max 1 f.Mfun.n_vspill in
  let vw = lanes_per_reg target in
  let n = n_vr + n_slots + 1 in
  {
    target;
    layout;
    mem;
    gpr = Array.make (max 1 f.Mfun.n_gpr) 0;
    fpr = Array.make (max 1 f.Mfun.n_fpr) 0.0;
    vw;
    n_vr;
    n_slots;
    vi = Array.make (n * vw) 0;
    vf = Array.make (n * vw) 0.0;
    vt = Array.make n undef_tag;
    f32 = Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout 1;
    cycles = 0;
    executed = 0;
  }

let lanes st ty = max 1 (st.target.Target.vs / Src_type.size_of ty)

let reg_index (r : Minstr.reg) = r.Minstr.id

let get_gpr st r = st.gpr.(reg_index r)
let set_gpr st r v = st.gpr.(reg_index r) <- v
let get_fpr st r = st.fpr.(reg_index r)
let set_fpr st r v = st.fpr.(reg_index r) <- v

(* Storage index of vector register [r] and of spill slot [s]; out of
   range, each raises what indexing a per-class array raises. *)
let vreg st (r : Minstr.reg) =
  let i = reg_index r in
  if i < 0 || i >= st.n_vr then invalid_arg "index out of bounds";
  i

let vslot st s =
  if s < 0 || s >= st.n_slots then invalid_arg "index out of bounds";
  st.n_vr + s

(* Storage register [i]'s value, materialized for [exec]. *)
let read_vval st i =
  let t = st.vt.(i) in
  match t land 3 with
  | 1 -> VInt (Array.sub st.vi (i * st.vw) (tag_lanes t))
  | 2 -> VFloat (Array.sub st.vf (i * st.vw) (tag_lanes t))
  | _ -> VUndef

(* Copy [v]'s lanes into storage register [i] and tag it. *)
let write_vval st i v =
  let o = i * st.vw in
  match v with
  | VInt a ->
    let n = Array.length a in
    assert (n <= st.vw);
    for l = 0 to n - 1 do
      st.vi.(o + l) <- a.(l)
    done;
    st.vt.(i) <- int_tag n
  | VFloat a ->
    let n = Array.length a in
    assert (n <= st.vw);
    for l = 0 to n - 1 do
      st.vf.(o + l) <- a.(l)
    done;
    st.vt.(i) <- float_tag n
  | VUndef -> st.vt.(i) <- undef_tag

let get_vr st r =
  let i = vreg st r in
  match read_vval st i with
  | VUndef -> faultf "use of undefined vector register v%d" i
  | v -> v

let set_vr st r v = write_vval st (vreg st r) v

let get_scalar st ty r =
  if Src_type.is_float ty then Value.Float (get_fpr st r)
  else Value.Int (get_gpr st r)

let set_scalar st ty r (v : Value.t) =
  if Src_type.is_float ty then set_fpr st r (Value.to_float v)
  else set_gpr st r (Value.to_int v)

let effective st (a : Minstr.addr) =
  let sym = if a.Minstr.sym = "" then 0 else Layout.base_of st.layout a.Minstr.sym in
  let base = match a.Minstr.base with Some r -> get_gpr st r | None -> 0 in
  let index =
    match a.Minstr.index with
    | Some r -> get_gpr st r * a.Minstr.scale
    | None -> 0
  in
  sym + base + index + a.Minstr.disp

let[@inline] check_bounds st addr bytes what =
  if addr < 0 || addr + bytes > Bytes.length st.mem then
    faultf "%s at address %d (+%d) out of memory" what addr bytes

(* Vector lane accessors built on Value for exact semantics sharing. *)
let vval_get ty v l : Value.t =
  let x =
    match v with
    | VInt a -> Value.Int a.(l)
    | VFloat a -> Value.Float a.(l)
    | VUndef -> faultf "lane read of undefined vector"
  in
  Value.normalize ty x

let vval_lanes = function
  | VInt a -> Array.length a
  | VFloat a -> Array.length a
  | VUndef -> 0

let vval_of_values ty (vs : Value.t array) =
  if Src_type.is_float ty then VFloat (Array.map Value.to_float vs)
  else VInt (Array.map Value.to_int vs)

let vload st kind ty a =
  let ea = effective st a in
  let vs = st.target.Target.vs in
  let ea =
    match kind with
    | Minstr.VM_aligned ->
      if ea mod vs <> 0 then
        if st.target.Target.explicit_realign then ea / vs * vs (* lvx floors *)
        else faultf "aligned vector access to misaligned address %d" ea
      else ea
    | Minstr.VM_misaligned -> ea
  in
  let m = lanes st ty in
  let esize = Src_type.size_of ty in
  check_bounds st ea (m * esize) "vector load";
  vval_of_values ty
    (Array.init m (fun l -> Layout.read_value st.mem ty (ea + (l * esize))))

let vstore st kind ty a v =
  let ea = effective st a in
  let vs = st.target.Target.vs in
  let ea =
    match kind with
    | Minstr.VM_aligned ->
      if ea mod vs <> 0 then
        faultf "aligned vector store to misaligned address %d" ea
      else ea
    | Minstr.VM_misaligned -> ea
  in
  let m = lanes st ty in
  let esize = Src_type.size_of ty in
  check_bounds st ea (m * esize) "vector store";
  if vval_lanes v <> m then
    faultf "vector store of %d lanes, expected %d" (vval_lanes v) m;
  for l = 0 to m - 1 do
    Layout.write_value st.mem ty (ea + (l * esize)) (vval_get ty v l)
  done

let widen_exn ty =
  match Src_type.widen ty with
  | Some w -> w
  | None -> faultf "widen of %s" (Src_type.to_string ty)

let narrow_exn ty =
  match Src_type.narrow ty with
  | Some n -> n
  | None -> faultf "narrow of %s" (Src_type.to_string ty)

let half_off h m =
  match h with
  | Minstr.Lo -> 0
  | Minstr.Hi -> m / 2

(* Execute one instruction (no control flow, no cycle accounting). *)
let rec exec st (i : Minstr.t) =
  match i with
  | Minstr.Li (d, v) -> set_gpr st d v
  | Minstr.Lfi (d, v) -> set_fpr st d v
  | Minstr.Mov (d, s) -> (
    match d.Minstr.cls with
    | Minstr.GPR -> set_gpr st d (get_gpr st s)
    | Minstr.FPR -> set_fpr st d (get_fpr st s)
    | Minstr.VR -> set_vr st d (get_vr st s))
  | Minstr.Lea (d, a) -> set_gpr st d (effective st a)
  | Minstr.Sop (op, ty, d, a, b) ->
    set_scalar st ty d (Value.binop ty op (get_scalar st ty a) (get_scalar st ty b))
  | Minstr.Sunop (op, ty, d, s) ->
    set_scalar st ty d (Value.unop ty op (get_scalar st ty s))
  | Minstr.Scmp (op, ty, d, a, b) ->
    set_gpr st d
      (Value.to_int
         (Value.binop ty op (get_scalar st ty a) (get_scalar st ty b)))
  | Minstr.Cmov (d, c, a, b) ->
    let src = if get_gpr st c <> 0 then a else b in
    exec st (Minstr.Mov (d, src))
  | Minstr.Cvt (t1, t2, d, s) ->
    set_scalar st t2 d (Value.convert ~from:t1 ~into:t2 (get_scalar st t1 s))
  | Minstr.Load (ty, d, a) ->
    let ea = effective st a in
    check_bounds st ea (Src_type.size_of ty) "load";
    set_scalar st ty d (Layout.read_value st.mem ty ea)
  | Minstr.Store (ty, a, s) ->
    let ea = effective st a in
    check_bounds st ea (Src_type.size_of ty) "store";
    Layout.write_value st.mem ty ea (get_scalar st ty s)
  | Minstr.VLoad (k, ty, d, a) -> set_vr st d (vload st k ty a)
  | Minstr.VStore (k, ty, a, s) -> vstore st k ty a (get_vr st s)
  | Minstr.Vop (op, ty, d, a, b) ->
    let va = get_vr st a and vb = get_vr st b in
    let m = lanes st ty in
    set_vr st d
      (vval_of_values ty
         (Array.init m (fun l ->
              Value.binop ty op (vval_get ty va l) (vval_get ty vb l))))
  | Minstr.Vunop (op, ty, d, s) ->
    let v = get_vr st s in
    let m = lanes st ty in
    set_vr st d
      (vval_of_values ty
         (Array.init m (fun l -> Value.unop ty op (vval_get ty v l))))
  | Minstr.Vshift (op, ty, d, s, amt) ->
    let v = get_vr st s in
    let a = Value.Int (get_gpr st amt) in
    let m = lanes st ty in
    set_vr st d
      (vval_of_values ty
         (Array.init m (fun l -> Value.binop ty op (vval_get ty v l) a)))
  | Minstr.Vsplat (ty, d, s) ->
    let x = Value.normalize ty (get_scalar st ty s) in
    set_vr st d (vval_of_values ty (Array.make (lanes st ty) x))
  | Minstr.Viota (ty, d, s, inc) ->
    let x = get_gpr st s in
    set_vr st d
      (vval_of_values ty
         (Array.init (lanes st ty) (fun l ->
              Value.Int (Src_type.normalize_int ty (x + (l * inc))))))
  | Minstr.Vinsert (ty, d, v, n, s) ->
    let base = get_vr st v in
    let m = lanes st ty in
    if n < 0 || n >= m then faultf "vinsert lane %d out of %d" n m;
    set_vr st d
      (vval_of_values ty
         (Array.init m (fun l ->
              if l = n then Value.normalize ty (get_scalar st ty s)
              else vval_get ty base l)))
  | Minstr.Vreduce (op, ty, d, s) ->
    let v = get_vr st s in
    let m = lanes st ty in
    let acc = ref (vval_get ty v 0) in
    for l = 1 to m - 1 do
      acc := Value.binop ty op !acc (vval_get ty v l)
    done;
    set_scalar st ty d !acc
  | Minstr.Lvsr (ty, d, a) ->
    let ea = effective st a in
    let vs = st.target.Target.vs in
    let tok = ea mod vs / Src_type.size_of ty in
    set_vr st d (VInt [| tok |])
  | Minstr.Vperm (ty, d, a, b, t) ->
    let va = get_vr st a and vb = get_vr st b in
    let tok =
      match get_vr st t with
      | VInt [| tok |] -> tok
      | VInt _ | VFloat _ | VUndef -> faultf "vperm with non-token register"
    in
    let m = lanes st ty in
    set_vr st d
      (vval_of_values ty
         (Array.init m (fun l ->
              let p = tok + l in
              if p < m then vval_get ty va p else vval_get ty vb (p - m))))
  | Minstr.Vwidenmul (h, ty, d, a, b) ->
    let w = widen_exn ty in
    let va = get_vr st a and vb = get_vr st b in
    let m = lanes st ty in
    let off = half_off h m in
    set_vr st d
      (vval_of_values w
         (Array.init (m / 2) (fun l ->
              Value.binop w Op.Mul
                (Value.convert ~from:ty ~into:w (vval_get ty va (off + l)))
                (Value.convert ~from:ty ~into:w (vval_get ty vb (off + l))))))
  | Minstr.Vdot (ty, d, a, b, acc) ->
    let w = widen_exn ty in
    let va = get_vr st a
    and vb = get_vr st b
    and vacc = get_vr st acc in
    let m = lanes st ty in
    set_vr st d
      (vval_of_values w
         (Array.init (m / 2) (fun l ->
              let p j =
                Value.binop w Op.Mul
                  (Value.convert ~from:ty ~into:w (vval_get ty va ((2 * l) + j)))
                  (Value.convert ~from:ty ~into:w (vval_get ty vb ((2 * l) + j)))
              in
              Value.binop w Op.Add (vval_get w vacc l)
                (Value.binop w Op.Add (p 0) (p 1)))))
  | Minstr.Vunpack (h, ty, d, s) ->
    let w = widen_exn ty in
    let v = get_vr st s in
    let m = lanes st ty in
    let off = half_off h m in
    set_vr st d
      (vval_of_values w
         (Array.init (m / 2) (fun l ->
              Value.convert ~from:ty ~into:w (vval_get ty v (off + l)))))
  | Minstr.Vpack (ty, d, a, b) ->
    let n = narrow_exn ty in
    let va = get_vr st a and vb = get_vr st b in
    let m = lanes st ty in
    set_vr st d
      (vval_of_values n
         (Array.init (2 * m) (fun l ->
              let x = if l < m then vval_get ty va l else vval_get ty vb (l - m) in
              Value.convert ~from:ty ~into:n x)))
  | Minstr.Vcvt (t1, t2, d, s) ->
    let v = get_vr st s in
    let m = lanes st t1 in
    set_vr st d
      (vval_of_values t2
         (Array.init m (fun l ->
              Value.convert ~from:t1 ~into:t2 (vval_get t1 v l))))
  | Minstr.Vextract (ty, stride, offset, d, parts) ->
    let ps = Array.of_list (List.map (get_vr st) parts) in
    let m = lanes st ty in
    set_vr st d
      (vval_of_values ty
         (Array.init m (fun l ->
              let p = offset + (l * stride) in
              vval_get ty ps.(p / m) (p mod m))))
  | Minstr.Vinterleave (h, ty, d, a, b) ->
    let va = get_vr st a and vb = get_vr st b in
    let m = lanes st ty in
    let off = half_off h m in
    set_vr st d
      (vval_of_values ty
         (Array.init m (fun l ->
              if l mod 2 = 0 then vval_get ty va (off + (l / 2))
              else vval_get ty vb (off + (l / 2)))))
  | Minstr.Vcmp (op, ty, d, a, b) ->
    let va = get_vr st a and vb = get_vr st b in
    let m = lanes st ty in
    set_vr st d
      (VInt
         (Array.init m (fun l ->
              Value.to_int
                (Value.binop ty op (vval_get ty va l) (vval_get ty vb l)))))
  | Minstr.Vsel (ty, d, mask, a, b) ->
    let vm = get_vr st mask in
    let va = get_vr st a
    and vb = get_vr st b in
    let m = lanes st ty in
    set_vr st d
      (vval_of_values ty
         (Array.init m (fun l ->
              if Value.to_int (vval_get Src_type.I64 vm l) <> 0 then
                vval_get ty va l
              else vval_get ty vb l)))
  | Minstr.VMaskedLoad (ty, d, m, a) ->
    (* Predicated access: no alignment requirement (SVE ld1 / AVX-512
       vmovups{k}); inactive lanes read as zero and touch no memory, so
       bounds are only checked for active lanes. *)
    let vm = get_vr st m in
    let ea = effective st a in
    let ml = lanes st ty in
    let esize = Src_type.size_of ty in
    set_vr st d
      (vval_of_values ty
         (Array.init ml (fun l ->
              if Value.to_int (vval_get Src_type.I64 vm l) <> 0 then begin
                check_bounds st (ea + (l * esize)) esize "masked vector load";
                Layout.read_value st.mem ty (ea + (l * esize))
              end
              else Value.normalize ty
                     (if Src_type.is_float ty then Value.Float 0.0
                      else Value.Int 0))))
  | Minstr.VMaskedStore (ty, a, m, s) ->
    let vm = get_vr st m in
    let v = get_vr st s in
    let ea = effective st a in
    let ml = lanes st ty in
    let esize = Src_type.size_of ty in
    if vval_lanes v <> ml then
      faultf "masked vector store of %d lanes, expected %d" (vval_lanes v) ml;
    for l = 0 to ml - 1 do
      if Value.to_int (vval_get Src_type.I64 vm l) <> 0 then begin
        check_bounds st (ea + (l * esize)) esize "masked vector store";
        Layout.write_value st.mem ty (ea + (l * esize)) (vval_get ty v l)
      end
    done
  | Minstr.VSpill (slot, s) ->
    let v = get_vr st s in
    write_vval st (vslot st slot) v
  | Minstr.VReload (d, slot) -> set_vr st d (read_vval st (vslot st slot))
  | Minstr.Label _ | Minstr.Jmp _ | Minstr.Br _ ->
    assert false (* handled by the driver loop *)
  | Minstr.Lib inner -> exec st inner

let is_scalar_fp = function
  | Minstr.Sop (_, ty, _, _, _)
  | Minstr.Sunop (_, ty, _, _)
  | Minstr.Scmp (_, ty, _, _, _) ->
    Src_type.is_float ty
  | _ -> false

(* Run a compiled function to completion.  [fuel] bounds the instruction
   count (guards against codegen bugs producing infinite loops). *)
let run ?(fuel = 200_000_000) (target : Target.t) (layout : Layout.t)
    (mem : Bytes.t) (f : Mfun.t)
    ~(scalar_args : (string * Value.t) list) : result =
  let st = make_state target layout mem f in
  (* Seed scalar parameters. *)
  List.iter
    (fun (name, sty, loc) ->
      match List.assoc_opt name scalar_args with
      | Some v -> (
        (* Round to the declared parameter type at the call boundary,
           exactly as the interpreter does on binding — an F32 argument
           must not enter the register file at double precision. *)
        let v = Value.normalize sty v in
        match (loc : Mfun.param_loc) with
        | Mfun.In_reg r -> (
          match r.Minstr.cls with
          | Minstr.GPR -> set_gpr st r (Value.to_int v)
          | Minstr.FPR -> set_fpr st r (Value.to_float v)
          | Minstr.VR -> faultf "vector parameter %s" name)
        | Mfun.In_stack (ty, off) ->
          Layout.write_value st.mem ty (st.layout.Layout.stack_base + off) v)
      | None -> faultf "missing scalar argument %s" name)
    f.Mfun.param_regs;
  (* Resolve labels. *)
  let labels = Hashtbl.create 16 in
  Array.iteri
    (fun pc ins ->
      match ins with
      | Minstr.Label l -> Hashtbl.replace labels l pc
      | _ -> ())
    f.Mfun.instrs;
  let label_pc l =
    match Hashtbl.find_opt labels l with
    | Some pc -> pc
    | None -> faultf "undefined label %d" l
  in
  let n = Array.length f.Mfun.instrs in
  let pc = ref 0 in
  let x87 = f.Mfun.fp_unit = Mfun.Fp_x87 in
  while !pc < n do
    if st.executed > fuel then faultf "fuel exhausted (infinite loop?)";
    let ins = f.Mfun.instrs.(!pc) in
    st.executed <- st.executed + 1;
    let c =
      if x87 && is_scalar_fp ins then target.Target.costs.Target.c_x87_fp_op
      else Minstr.cost target ins
    in
    st.cycles <- st.cycles + c;
    (match ins with
    | Minstr.Label _ -> incr pc
    | Minstr.Jmp l -> pc := label_pc l
    | Minstr.Br (op, a, b, l) ->
      let taken =
        Value.is_true
          (Value.binop Src_type.I64 op (Value.Int (get_gpr st a))
             (Value.Int (get_gpr st b)))
      in
      if taken then pc := label_pc l else incr pc
    | ins ->
      exec st ins;
      incr pc)
  done;
  { r_cycles = st.cycles; r_instructions = st.executed }

(* ---------------------------------------------------------------------- *)
(* Pre-resolved execution plans.

   [prepare] does once, at JIT-compile time, everything [run] re-derives
   on every invocation: label -> pc resolution, per-pc cycle costs (with
   the x87 blending) summed per basic block, parameter-binding closures,
   symbol interning for effective addresses, and every vector register's
   offset into the register file.  Every instruction then compiles to a
   closure over the raw register arrays, but only the mix the workloads
   actually run is specialized (docs/PERF.md §2 has the measured mix):
   scalar, control, spill and move instructions directly, vector
   instructions through the lane loops below, each writing its result in
   place.  Everything else runs [exec] on the same state, so a plan is
   cycle-, instruction-, fault- and bit-exact against [run].  [run_plan]
   reuses one scratch state per plan, and an instruction that does not
   run [exec] allocates nothing. *)

type plan = {
  p_target : Target.t;
  p_mfun : Mfun.t;
  p_cost : int array; (* per-pc cycle cost, x87-blended *)
  (* from each pc to the end of its basic block: instruction count and
     summed cost *)
  p_blen : int array;
  p_bcost : int array;
  p_code : (state -> int) array; (* action; returns the next pc *)
  p_syms : string array; (* interned address symbols *)
  p_bases : int array; (* per-run resolved bases; min_int = unresolved *)
  p_binders : (state -> (string * Value.t) list -> unit) array;
  mutable p_state : state option; (* scratch, created on first run *)
}

let plan_target p = p.p_target

(* --- lane arithmetic ------------------------------------------------------
   Each function below reproduces a [Value] or [Layout] operation on raw
   ints and floats, so plan closures never build a [Value.t]. *)

(* (mask, sign-bit) pair such that [Src_type.normalize_int ty v] equals
   [norm nm ns v]: ns = 0 for unsigned types, and i64 keeps every bit via
   nm = -1.  Lane loops apply it inline — a per-lane call into Src_type
   would cost a call and a type dispatch on each of the 8-16 lanes of the
   narrow integer kernels. *)
let norm_consts ty =
  match ty with
  | Src_type.I8 -> 0xff, 0x80
  | Src_type.U8 -> 0xff, 0
  | Src_type.I16 -> 0xffff, 0x8000
  | Src_type.U16 -> 0xffff, 0
  | Src_type.I32 -> 0xffffffff, 0x80000000
  | Src_type.U32 -> 0xffffffff, 0
  | Src_type.I64 -> -1, 0
  | Src_type.F32 | Src_type.F64 ->
    invalid_arg "Simulator.norm_consts: float type"

let[@inline] norm nm ns v =
  let x = v land nm in
  if x land ns <> 0 then x - nm - 1 else x

(* [Src_type.normalize_float] at F32 ([n32]) or F64, through the state's
   rounding cell. *)
let[@inline] round (c : f32_cell) n32 x =
  if n32 then begin
    Bigarray.Array1.unsafe_set c 0 x;
    Bigarray.Array1.unsafe_get c 0
  end
  else x

(* [Value.binop] at integer type [ty], before normalizing the result
   (comparisons yield 0/1, which every normalization leaves alone).  Ints
   cross a closure unboxed, so the op is chosen once per instruction. *)
let int_binop (op : Op.binop) ty : int -> int -> int =
  let mask = Value.shift_mask ty in
  match op with
  | Op.Add -> ( + )
  | Op.Sub -> ( - )
  | Op.Mul -> ( * )
  | Op.Div -> fun x y -> if y = 0 then raise Division_by_zero else x / y
  | Op.Min -> fun x y -> if x <= y then x else y
  | Op.Max -> fun x y -> if x >= y then x else y
  | Op.And -> ( land )
  | Op.Or -> ( lor )
  | Op.Xor -> ( lxor )
  | Op.Shl -> fun x y -> x lsl (y land mask)
  | Op.Shr -> fun x y -> x asr (y land mask)
  | Op.Eq -> fun x y -> Bool.to_int (x = y)
  | Op.Ne -> fun x y -> Bool.to_int (x <> y)
  | Op.Lt -> fun x y -> Bool.to_int (x < y)
  | Op.Le -> fun x y -> Bool.to_int (x <= y)
  | Op.Gt -> fun x y -> Bool.to_int (x > y)
  | Op.Ge -> fun x y -> Bool.to_int (x >= y)

(* [Value.unop] at an integer type, before normalizing, shaped as a
   binary op that ignores its second operand so it fits [int_lanes];
   [None] where [Value.unop] rejects the op. *)
let int_unop (op : Op.unop) : (int -> int -> int) option =
  match op with
  | Op.Neg -> Some (fun x _ -> -x)
  | Op.Abs -> Some (fun x _ -> abs x)
  | Op.Not -> Some (fun x _ -> lnot x)
  | Op.Sqrt -> None

(* [Value.binop] at F32 ([n32]) or F64, comparisons as the 1.0/0.0 a float
   register or lane ends up holding.  Bitwise ops are never prepared: they
   run [exec], which rejects them.  Unlike the int ops this is a [match]
   inlined into each loop, never a closure: through a closure every lane
   would box its operands and result. *)
let[@inline] float_binop c (op : Op.binop) n32 x y =
  match op with
  | Op.Add -> round c n32 (x +. y)
  | Op.Sub -> round c n32 (x -. y)
  | Op.Mul -> round c n32 (x *. y)
  | Op.Div -> round c n32 (x /. y)
  | Op.Min -> round c n32 (Float.min x y)
  | Op.Max -> round c n32 (Float.max x y)
  | Op.Eq -> if x = y then 1.0 else 0.0
  | Op.Ne -> if x <> y then 1.0 else 0.0
  | Op.Lt -> if x < y then 1.0 else 0.0
  | Op.Le -> if x <= y then 1.0 else 0.0
  | Op.Gt -> if x > y then 1.0 else 0.0
  | Op.Ge -> if x >= y then 1.0 else 0.0
  | Op.And | Op.Or | Op.Xor | Op.Shl | Op.Shr -> Float.nan

(* Lane reads and writes in [Layout]'s byte formats. *)
let[@inline] read_int esize mem a =
  match esize with
  | 1 -> Bytes.get_uint8 mem a
  | 2 -> Bytes.get_uint16_le mem a
  | 4 -> Int32.to_int (Bytes.get_int32_le mem a)
  | _ -> Int64.to_int (Bytes.get_int64_le mem a)

let[@inline] write_int esize mem a x =
  match esize with
  | 1 -> Bytes.set_uint8 mem a (x land 0xff)
  | 2 -> Bytes.set_uint16_le mem a (x land 0xffff)
  | 4 -> Bytes.set_int32_le mem a (Int32.of_int x)
  | _ -> Bytes.set_int64_le mem a (Int64.of_int x)

let[@inline] read_float n32 mem a =
  if n32 then Int32.float_of_bits (Bytes.get_int32_le mem a)
  else Int64.float_of_bits (Bytes.get_int64_le mem a)

let[@inline] write_float n32 mem a x =
  if n32 then Bytes.set_int32_le mem a (Int32.bits_of_float x)
  else Bytes.set_int64_le mem a (Int64.bits_of_float x)

(* The lane loops below work on the register file [vi] or [vf] at
   storage offsets resolved by [prepare] and write their result at [d]
   in place. *)

(* The int lanewise loop (Vop, Vunop, int Vcmp): lane l is [f x y] for
   the normalized lanes x at [a] and y at [b], normalized.  Lane l of
   [a] and [b] is read before lane l of [d] is written, so [d] may be
   [a] or [b]. *)
let int_lanes vi m nm ns f a b d =
  for l = 0 to m - 1 do
    vi.(d + l) <- norm nm ns (f (norm nm ns vi.(a + l)) (norm nm ns vi.(b + l)))
  done

(* The int reduction: [f] folded left over the normalized lanes at [a]. *)
let int_reduce vi m nm ns f a =
  let acc = ref (norm nm ns vi.(a)) in
  for l = 1 to m - 1 do
    acc := norm nm ns (f !acc (norm nm ns vi.(a + l)))
  done;
  !acc

(* The gather loop (Vunpack, Vpack, int Vcvt, Vextract, Vinterleave,
   Vperm): lane l is the register-file lane [src.(l)], normalized at the
   source type [(nm, ns)] and renormalized to the destination type
   [(dm, ds)], exactly as [Value.convert] narrows or widens.  A gather
   may read a lane it has already overwritten; [prepare] sends those
   through scratch. *)
let gather vi (nm, ns) (dm, ds) src d =
  for l = 0 to Array.length src - 1 do
    vi.(d + l) <- norm dm ds (norm nm ns vi.(src.(l)))
  done

(* [gather] for float lanes, rounded at the lane type ([n32]). *)
let gather_float vf c n32 src d =
  for l = 0 to Array.length src - 1 do
    vf.(d + l) <- round c n32 vf.(src.(l))
  done

(* Gather map for the [count] lanes [first + l * stride] of the
   concatenated [m]-lane sources numbered from [src]: per lane, the
   source number and its lane. *)
let lane_map ?(src = 0) ?(first = 0) ?(stride = 1) m count =
  let p l = first + (l * stride) in
  Array.init count (fun l -> src + (p l / m)), Array.init count (fun l -> p l mod m)

(* Copy storage register [s] (value and tag) to [d]. *)
let copy_reg st s d =
  let t = st.vt.(s) in
  let os = s * st.vw and od = d * st.vw in
  (match t land 3 with
  | 1 ->
    let vi = st.vi in
    for l = 0 to tag_lanes t - 1 do
      vi.(od + l) <- vi.(os + l)
    done
  | 2 ->
    let vf = st.vf in
    for l = 0 to tag_lanes t - 1 do
      vf.(od + l) <- vf.(os + l)
    done
  | _ -> ());
  st.vt.(d) <- t

(* The address symbol an instruction reads or writes through, or "". *)
let rec addr_sym (i : Minstr.t) =
  match i with
  | Minstr.Lea (_, a)
  | Minstr.Load (_, _, a)
  | Minstr.Store (_, a, _)
  | Minstr.VLoad (_, _, _, a)
  | Minstr.VStore (_, _, a, _)
  | Minstr.Lvsr (_, _, a)
  | Minstr.VMaskedLoad (_, _, _, a)
  | Minstr.VMaskedStore (_, a, _, _) ->
    a.Minstr.sym
  | Minstr.Lib inner -> addr_sym inner
  | _ -> ""

let prepare ~(target : Target.t) (f : Mfun.t) : plan =
  let stage_t0 = Vapor_obs.Stage.start () in
  let instrs = f.Mfun.instrs in
  let n = Array.length instrs in
  (* Symbol interning: bases are resolved once per run, lazily faulting
     with Layout.base_of's own exception only where [run] would.  A
     function names a handful of arrays, so a linear scan of a small
     array finds a symbol sooner than hashing its name. *)
  let syms = ref (Array.make 8 "") and n_syms = ref 0 in
  let intern s =
    let a = !syms and k = ref 0 in
    while !k < !n_syms && not (String.equal a.(!k) s) do
      incr k
    done;
    if !k = !n_syms then begin
      if !k = Array.length a then syms := Array.append a a;
      !syms.(!k) <- s;
      incr n_syms
    end;
    !k
  in
  (* Labels are a function's dense [fresh_label] counters: pcs by label
     in an int array (-1 where undefined), any label outside
     [0, 2n + 16] in a list.  A redefined label resolves to its last
     definition, as in [run]. *)
  let dense = ref (Array.make 16 (-1)) and sparse = ref [] in
  let define_label l pc =
    if l < 0 || l > (2 * n) + 16 then sparse := (l, pc) :: !sparse
    else begin
      let a = !dense in
      if l >= Array.length a then begin
        dense := Array.make (max (l + 1) (2 * Array.length a)) (-1);
        Array.blit a 0 !dense 0 (Array.length a)
      end;
      !dense.(l) <- pc
    end
  in
  let label_pc l =
    let a = !dense in
    if l >= 0 && l < Array.length a then a.(l)
    else Option.value ~default:(-1) (List.assoc_opt l !sparse)
  in
  (* One pass over the function: per-pc cycle cost with the x87 blending
     [run] applies inline, labels, symbols, and the instructions naming a
     vector register or spill slot outside the file, which run [exec]
     (it raises what indexing a per-class array raised). *)
  let x87 = f.Mfun.fp_unit = Mfun.Fp_x87 in
  let x87_cost = target.Target.costs.Target.c_x87_fp_op in
  let n_vr = max 1 f.Mfun.n_vr and n_slots = max 1 f.Mfun.n_vspill in
  let p_cost = Array.make n 0 and outside = Bytes.make n '\000' in
  let at = ref 0 in
  let check (r : Minstr.reg) =
    if r.Minstr.cls = Minstr.VR && (r.Minstr.id < 0 || r.Minstr.id >= n_vr)
    then Bytes.unsafe_set outside !at '\001'
  in
  for pc = 0 to n - 1 do
    let ins = instrs.(pc) in
    p_cost.(pc) <-
      (if x87 && is_scalar_fp ins then x87_cost else Minstr.cost target ins);
    at := pc;
    Minstr.iter_regs ~use:check ~def:check ins;
    match ins with
    | Minstr.Label l -> define_label l pc
    | Minstr.VSpill (s, _) | Minstr.VReload (_, s) ->
      if s < 0 || s >= n_slots then Bytes.set outside pc '\001'
    | _ ->
      let s = addr_sym ins in
      if s <> "" then ignore (intern s : int)
  done;
  let p_syms = Array.sub !syms 0 !n_syms in
  let p_bases = Array.make (max 1 !n_syms) min_int in
  (* Basic blocks: leaders are pc 0, every label and every pc after a
     jump or branch.  Each pc records the instructions and cycles left in
     its block, so [run_plan] charges a block at once and can still enter
     one mid-way when it steps against the fuel limit. *)
  let p_blen = Array.make n 0 and p_bcost = Array.make n 0 in
  for pc = n - 1 downto 0 do
    let ends =
      pc = n - 1
      || (match instrs.(pc) with
         | Minstr.Jmp _ | Minstr.Br _ -> true
         | _ -> false)
      || match instrs.(pc + 1) with
         | Minstr.Label _ -> true
         | _ -> false
    in
    if ends then begin
      p_blen.(pc) <- 1;
      p_bcost.(pc) <- p_cost.(pc)
    end
    else begin
      p_blen.(pc) <- 1 + p_blen.(pc + 1);
      p_bcost.(pc) <- p_cost.(pc) + p_bcost.(pc + 1)
    end
  done;
  let[@inline] sym_base st k sym =
    let b = p_bases.(k) in
    if b = min_int then Layout.base_of st.layout sym else b
  in
  (* Effective-address closures over the interned base table. *)
  let compile_addr (a : Minstr.addr) : state -> int =
    let disp = a.Minstr.disp in
    if a.Minstr.sym = "" then
      (* No symbol: pure register arithmetic, no base lookup. *)
      match a.Minstr.base, a.Minstr.index with
      | None, None -> fun _ -> disp
      | Some b, None ->
        let ib = reg_index b in
        fun st -> st.gpr.(ib) + disp
      | None, Some i ->
        let ii = reg_index i and sc = a.Minstr.scale in
        fun st -> (st.gpr.(ii) * sc) + disp
      | Some b, Some i ->
        let ib = reg_index b and ii = reg_index i and sc = a.Minstr.scale in
        fun st -> st.gpr.(ib) + (st.gpr.(ii) * sc) + disp
    else begin
      let k = intern a.Minstr.sym and sym = a.Minstr.sym in
      match a.Minstr.base, a.Minstr.index with
      | None, None -> fun st -> sym_base st k sym + disp
      | Some b, None ->
        let ib = reg_index b in
        fun st -> sym_base st k sym + st.gpr.(ib) + disp
      | None, Some i ->
        let ii = reg_index i and sc = a.Minstr.scale in
        fun st -> sym_base st k sym + (st.gpr.(ii) * sc) + disp
      | Some b, Some i ->
        let ib = reg_index b and ii = reg_index i and sc = a.Minstr.scale in
        fun st -> sym_base st k sym + st.gpr.(ib) + (st.gpr.(ii) * sc) + disp
    end
  in
  let vs = target.Target.vs in
  let lanes_of ty = max 1 (vs / Src_type.size_of ty) in
  let explicit_realign = target.Target.explicit_realign in
  (* The register file [make_state] builds for this plan: vector register
     r's lanes start at [r * vw], spill slot s is storage register
     [n_vr + s], and the scratch register comes last. *)
  let vw = lanes_per_reg target in
  let scratch = (n_vr + n_slots) * vw in
  (* Does a loop writing lane l at [d] after reading lane [src.(l)] read
     a lane it has already written? *)
  let overwrites d src =
    let hit = ref false in
    Array.iteri (fun l x -> if x >= d && x < d + l then hit := true) src;
    !hit
  in
  (* The helpers below are shared by every instruction's action; each
     takes the instruction [ins] and the pc [next] after it. *)
  let fallback ins next st =
    exec st ins;
    next
  in
  (* The shape combinator: [body st] runs when each vector register of
     [srcs] fits its paired minimal tag — lanes of that class, at least
     that many.  Any other shape (undefined, the other class, too few
     lanes) runs [exec] instead, so the fault or result is the
     reference's own. *)
  let shaped ins next srcs (body : state -> unit) =
    match srcs with
    | [ (a, ta) ] ->
      fun st ->
        if fits st.vt.(a) ta then body st else exec st ins;
        next
    | [ (a, ta); (b, tb) ] ->
      fun st ->
        if fits st.vt.(a) ta && fits st.vt.(b) tb then body st
        else exec st ins;
        next
    | srcs ->
      let regs = Array.of_list (List.map fst srcs)
      and tmin = Array.of_list (List.map snd srcs) in
      fun st ->
        let ok = ref true in
        for j = 0 to Array.length regs - 1 do
          if not (fits st.vt.(regs.(j)) tmin.(j)) then ok := false
        done;
        if !ok then body st else exec st ins;
        next
  in
  (* A gather arm from the registers [regs] along [(sj, si)] at type
     [ty] into [id] at type [into]: each source must hold the lanes the
     map reads, and a result that would overwrite a lane still to be
     read goes through scratch.  A map reaching past [regs] (an extract
     whose lanes run beyond its parts) runs [exec], which faults. *)
  let gather_arm ins next regs (sj, si) ty into id =
    let m = Array.length sj and k = Array.length regs in
    if Array.exists (fun j -> j < 0 || j >= k) sj || Array.exists (fun i -> i < 0) si
    then fallback ins next
    else begin
    let src = Array.init m (fun l -> (regs.(sj.(l)) * vw) + si.(l)) in
    let need = Array.make k 0 in
    Array.iteri (fun l j -> need.(j) <- max need.(j) (si.(l) + 1)) sj;
    let tag_of = if Src_type.is_float ty then float_tag else int_tag in
    let srcs = List.mapi (fun j r -> r, tag_of need.(j)) (Array.to_list regs) in
    let od = id * vw in
    let through = overwrites od src in
    let dst = if through then scratch else od in
    if Src_type.is_float ty then
      let n32 = into = Src_type.F32 and tag = float_tag m in
      shaped ins next srcs (fun st ->
          let vf = st.vf in
          gather_float vf st.f32 n32 src dst;
          if through then
            for l = 0 to m - 1 do
              vf.(od + l) <- vf.(scratch + l)
            done;
          st.vt.(id) <- tag)
    else
      let from = norm_consts ty and into = norm_consts into in
      let tag = int_tag m in
      shaped ins next srcs (fun st ->
          let vi = st.vi in
          gather vi from into src dst;
          if through then
            for l = 0 to m - 1 do
              vi.(od + l) <- vi.(scratch + l)
            done;
          st.vt.(id) <- tag)
    end
  in
  (* Every action reproduces exec's semantics (normalization, raw register
     reads, fault messages) expression for expression.  [next] is pc+1. *)
  let rec compile_action pc (ins : Minstr.t) : state -> int =
    let next = pc + 1 in
    if Bytes.get outside pc = '\001' then fallback ins next
    else
    match ins with
    | Minstr.Label _ -> fun _ -> next
    | Minstr.Jmp l -> (
      match label_pc l with
      | -1 -> fun _ -> faultf "undefined label %d" l
      | t -> fun _ -> t)
    | Minstr.Br (op, a, b, l) -> (
      let ia = reg_index a and ib = reg_index b in
      let target_pc = label_pc l in
      let goto taken =
        if taken then
          if target_pc < 0 then faultf "undefined label %d" l else target_pc
        else next
      in
      (* Br compares at I64, where normalization is the identity: the six
         comparisons reduce to raw integer compares. *)
      match op with
      | Op.Eq -> fun st -> goto (st.gpr.(ia) = st.gpr.(ib))
      | Op.Ne -> fun st -> goto (st.gpr.(ia) <> st.gpr.(ib))
      | Op.Lt -> fun st -> goto (st.gpr.(ia) < st.gpr.(ib))
      | Op.Le -> fun st -> goto (st.gpr.(ia) <= st.gpr.(ib))
      | Op.Gt -> fun st -> goto (st.gpr.(ia) > st.gpr.(ib))
      | Op.Ge -> fun st -> goto (st.gpr.(ia) >= st.gpr.(ib))
      | _ ->
        let f = int_binop op Src_type.I64 in
        fun st -> goto (f st.gpr.(ia) st.gpr.(ib) <> 0))
    | Minstr.Li (d, v) ->
      let id = reg_index d in
      fun st -> st.gpr.(id) <- v; next
    | Minstr.Lfi (d, v) ->
      let id = reg_index d in
      fun st -> st.fpr.(id) <- v; next
    | Minstr.Mov (d, s) -> (
      let id = reg_index d and is = reg_index s in
      match d.Minstr.cls with
      | Minstr.GPR -> fun st -> st.gpr.(id) <- st.gpr.(is); next
      | Minstr.FPR -> fun st -> st.fpr.(id) <- st.fpr.(is); next
      | Minstr.VR ->
        fun st ->
          if st.vt.(is) = undef_tag then
            faultf "use of undefined vector register v%d" is;
          copy_reg st is id;
          next)
    | Minstr.Lea (d, a) ->
      let id = reg_index d in
      let ea = compile_addr a in
      fun st -> st.gpr.(id) <- ea st; next
    | Minstr.Sop (op, ty, d, a, b) when not (Src_type.is_float ty) ->
      let id = reg_index d and ia = reg_index a and ib = reg_index b in
      let nm, ns = norm_consts ty in
      (* the address arithmetic the mono profile spills through is most of
         the scalar ops: inline it rather than call [int_binop]'s closure *)
      (match op with
      | Op.Add -> fun st -> st.gpr.(id) <- norm nm ns (st.gpr.(ia) + st.gpr.(ib)); next
      | Op.Sub -> fun st -> st.gpr.(id) <- norm nm ns (st.gpr.(ia) - st.gpr.(ib)); next
      | Op.Mul -> fun st -> st.gpr.(id) <- norm nm ns (st.gpr.(ia) * st.gpr.(ib)); next
      | _ ->
        let f = int_binop op ty in
        fun st -> st.gpr.(id) <- norm nm ns (f st.gpr.(ia) st.gpr.(ib)); next)
    | Minstr.Sop (op, ty, d, a, b) when not (Op.is_bitwise op) ->
      let id = reg_index d and ia = reg_index a and ib = reg_index b in
      let n32 = ty = Src_type.F32 in
      fun st ->
        st.fpr.(id) <- float_binop st.f32 op n32 st.fpr.(ia) st.fpr.(ib);
        next
    | Minstr.Sunop (op, ty, d, s) when not (Src_type.is_float ty) -> (
      let id = reg_index d and is = reg_index s in
      let nm, ns = norm_consts ty in
      match int_unop op with
      | Some g -> fun st -> st.gpr.(id) <- norm nm ns (g st.gpr.(is) 0); next
      | None -> fallback ins next)
    | Minstr.Sunop (op, ty, d, s) -> (
      let id = reg_index d and is = reg_index s and n32 = ty = Src_type.F32 in
      match op with
      | Op.Neg -> fun st -> st.fpr.(id) <- round st.f32 n32 (-.st.fpr.(is)); next
      | Op.Abs -> fun st -> st.fpr.(id) <- round st.f32 n32 (Float.abs st.fpr.(is)); next
      | Op.Sqrt -> fun st -> st.fpr.(id) <- round st.f32 n32 (Float.sqrt st.fpr.(is)); next
      | Op.Not -> fallback ins next)
    | Minstr.Cvt (t1, t2, d, s) -> (
      let id = reg_index d and is = reg_index s in
      let n32 = t2 = Src_type.F32 in
      match Src_type.is_float t1, Src_type.is_float t2 with
      | true, true -> fun st -> st.fpr.(id) <- round st.f32 n32 st.fpr.(is); next
      | true, false ->
        fun st ->
          st.gpr.(id) <-
            Src_type.normalize_int t2
              (int_of_float (Float.of_int 0 +. Float.trunc st.fpr.(is)));
          next
      | false, true ->
        fun st ->
          st.fpr.(id) <- round st.f32 n32 (float_of_int st.gpr.(is));
          next
      | false, false ->
        fun st -> st.gpr.(id) <- Src_type.normalize_int t2 st.gpr.(is); next)
    | Minstr.Load (ty, d, a) -> (
      (* Unboxed reads, same byte formats as [Layout.read_value]; i64 (the
         spill width) is the hottest instruction of all. *)
      let id = reg_index d and sz = Src_type.size_of ty in
      (* A symbol plus a displacement — the stack slots the mono profile
         spills every scalar through — is most memory operands: i64 and
         f64 loads and stores read such an address inline instead of
         calling an address closure. *)
      let sym = a.Minstr.sym and disp = a.Minstr.disp in
      match ty, a.Minstr.base, a.Minstr.index with
      | Src_type.I64, None, None when sym <> "" ->
        let k = intern sym in
        fun st ->
          let addr = sym_base st k sym + disp in
          check_bounds st addr sz "load";
          st.gpr.(id) <- Int64.to_int (Bytes.get_int64_le st.mem addr);
          next
      | Src_type.F64, None, None when sym <> "" ->
        let k = intern sym in
        fun st ->
          let addr = sym_base st k sym + disp in
          check_bounds st addr sz "load";
          st.fpr.(id) <- Int64.float_of_bits (Bytes.get_int64_le st.mem addr);
          next
      | _ -> (
        let ea = compile_addr a in
        match ty with
        | Src_type.F32 | Src_type.F64 ->
          let n32 = ty = Src_type.F32 in
          fun st ->
            let addr = ea st in
            check_bounds st addr sz "load";
            st.fpr.(id) <- read_float n32 st.mem addr;
            next
        | Src_type.I64 ->
          fun st ->
            let addr = ea st in
            check_bounds st addr sz "load";
            st.gpr.(id) <- Int64.to_int (Bytes.get_int64_le st.mem addr);
            next
        | Src_type.I8 | Src_type.U8 | Src_type.I16 | Src_type.U16
        | Src_type.I32 | Src_type.U32 ->
          let nm, ns = norm_consts ty in
          fun st ->
            let addr = ea st in
            check_bounds st addr sz "load";
            st.gpr.(id) <- norm nm ns (read_int sz st.mem addr);
            next))
    | Minstr.Store (ty, a, s) -> (
      (* Unboxed writes, same byte formats as [Layout.write_value]. *)
      let is = reg_index s and sz = Src_type.size_of ty in
      let sym = a.Minstr.sym and disp = a.Minstr.disp in
      match ty, a.Minstr.base, a.Minstr.index with
      | Src_type.I64, None, None when sym <> "" ->
        let k = intern sym in
        fun st ->
          let addr = sym_base st k sym + disp in
          check_bounds st addr sz "store";
          Bytes.set_int64_le st.mem addr (Int64.of_int st.gpr.(is));
          next
      | Src_type.F64, None, None when sym <> "" ->
        let k = intern sym in
        fun st ->
          let addr = sym_base st k sym + disp in
          check_bounds st addr sz "store";
          Bytes.set_int64_le st.mem addr (Int64.bits_of_float st.fpr.(is));
          next
      | _ -> (
        let ea = compile_addr a in
        match ty with
        | Src_type.F32 | Src_type.F64 ->
          let n32 = ty = Src_type.F32 in
          fun st ->
            let addr = ea st in
            check_bounds st addr sz "store";
            write_float n32 st.mem addr st.fpr.(is);
            next
        | Src_type.I64 ->
          fun st ->
            let addr = ea st in
            check_bounds st addr sz "store";
            Bytes.set_int64_le st.mem addr (Int64.of_int st.gpr.(is));
            next
        | Src_type.I8 | Src_type.U8 | Src_type.I16 | Src_type.U16
        | Src_type.I32 | Src_type.U32 ->
          fun st ->
            let addr = ea st in
            check_bounds st addr sz "store";
            write_int sz st.mem addr st.gpr.(is);
            next))
    | Minstr.VSpill (slot, s) ->
      let is = reg_index s and sd = n_vr + slot in
      fun st ->
        if st.vt.(is) = undef_tag then
          faultf "use of undefined vector register v%d" is;
        copy_reg st is sd;
        next
    | Minstr.VReload (d, slot) ->
      let id = reg_index d and ss = n_vr + slot in
      fun st -> copy_reg st ss id; next
    | Minstr.Lib inner -> (
      (* Lib executes its payload; control flow inside Lib is as illegal
         here as in exec (assert false), so route it through exec. *)
      match inner with
      | Minstr.Label _ | Minstr.Jmp _ | Minstr.Br _ -> fallback ins next
      | _ -> compile_action pc inner)
    | Minstr.VLoad (k, ty, d, a) ->
      let id = reg_index d in
      let ea_of = compile_addr a in
      let m = lanes_of ty and esize = Src_type.size_of ty in
      let bytes = m * esize and od = id * vw in
      let addr : state -> int =
        match k with
        | Minstr.VM_misaligned -> ea_of
        | Minstr.VM_aligned ->
          if explicit_realign then fun st -> ea_of st / vs * vs (* lvx floors *)
          else
            fun st ->
              let ea = ea_of st in
              if ea mod vs <> 0 then
                faultf "aligned vector access to misaligned address %d" ea
              else ea
      in
      (* One unboxed loop per lane width: vector loads are hot. *)
      let read : state -> int -> unit =
        match ty with
        | Src_type.F32 ->
          let tag = float_tag m in
          fun st ea ->
            let vf = st.vf and mem = st.mem in
            for l = 0 to m - 1 do
              vf.(od + l) <- Int32.float_of_bits (Bytes.get_int32_le mem (ea + (4 * l)))
            done;
            st.vt.(id) <- tag
        | Src_type.F64 ->
          let tag = float_tag m in
          fun st ea ->
            let vf = st.vf and mem = st.mem in
            for l = 0 to m - 1 do
              vf.(od + l) <- Int64.float_of_bits (Bytes.get_int64_le mem (ea + (8 * l)))
            done;
            st.vt.(id) <- tag
        | Src_type.I8 | Src_type.U8 | Src_type.I16 | Src_type.U16 | Src_type.I32
        | Src_type.U32 | Src_type.I64 -> (
          let nm, ns = norm_consts ty and tag = int_tag m in
          match esize with
          | 1 ->
            fun st ea ->
              let vi = st.vi and mem = st.mem in
              for l = 0 to m - 1 do
                vi.(od + l) <- norm nm ns (Bytes.get_uint8 mem (ea + l))
              done;
              st.vt.(id) <- tag
          | 2 ->
            fun st ea ->
              let vi = st.vi and mem = st.mem in
              for l = 0 to m - 1 do
                vi.(od + l) <- norm nm ns (Bytes.get_uint16_le mem (ea + (2 * l)))
              done;
              st.vt.(id) <- tag
          | _ ->
            fun st ea ->
              let vi = st.vi and mem = st.mem in
              for l = 0 to m - 1 do
                vi.(od + l) <- norm nm ns (read_int esize mem (ea + (esize * l)))
              done;
              st.vt.(id) <- tag)
      in
      fun st ->
        let ea = addr st in
        check_bounds st ea bytes "vector load";
        read st ea;
        next
    | Minstr.VStore (k, ty, a, s) ->
      let is = reg_index s in
      let ea_of = compile_addr a in
      let m = lanes_of ty and esize = Src_type.size_of ty in
      let bytes = m * esize and os = is * vw in
      (* [vstore]'s checks in its order: alignment, bounds, lane count. *)
      let addr st lanes =
        let ea = ea_of st in
        (match k with
        | Minstr.VM_aligned when ea mod vs <> 0 ->
          faultf "aligned vector store to misaligned address %d" ea
        | Minstr.VM_aligned | Minstr.VM_misaligned -> ());
        check_bounds st ea bytes "vector store";
        if lanes <> m then faultf "vector store of %d lanes, expected %d" lanes m;
        ea
      in
      (* Float stores are hot: one unboxed loop per width. *)
      (match ty with
      | Src_type.F32 ->
        fun st ->
          let t = st.vt.(is) in
          if t land 3 = 2 then begin
            let ea = addr st (tag_lanes t) and vf = st.vf and mem = st.mem in
            for l = 0 to m - 1 do
              Bytes.set_int32_le mem (ea + (4 * l)) (Int32.bits_of_float vf.(os + l))
            done
          end
          else exec st ins;
          next
      | Src_type.F64 ->
        fun st ->
          let t = st.vt.(is) in
          if t land 3 = 2 then begin
            let ea = addr st (tag_lanes t) and vf = st.vf and mem = st.mem in
            for l = 0 to m - 1 do
              Bytes.set_int64_le mem (ea + (8 * l)) (Int64.bits_of_float vf.(os + l))
            done
          end
          else exec st ins;
          next
      | Src_type.I8 | Src_type.U8 | Src_type.I16 | Src_type.U16 | Src_type.I32
      | Src_type.U32 | Src_type.I64 ->
        fun st ->
          let t = st.vt.(is) in
          if t land 3 = 1 then begin
            let ea = addr st (tag_lanes t) and vi = st.vi and mem = st.mem in
            for l = 0 to m - 1 do
              write_int esize mem (ea + (l * esize)) vi.(os + l)
            done
          end
          else exec st ins;
          next)
    | Minstr.Vsplat (ty, d, s) ->
      let id = reg_index d and is = reg_index s in
      let m = lanes_of ty and od = id * vw in
      if Src_type.is_float ty then
        let n32 = ty = Src_type.F32 and tag = float_tag m in
        fun st ->
          let x = round st.f32 n32 st.fpr.(is) and vf = st.vf in
          for l = 0 to m - 1 do
            vf.(od + l) <- x
          done;
          st.vt.(id) <- tag;
          next
      else
        let nm, ns = norm_consts ty and tag = int_tag m in
        fun st ->
          let x = norm nm ns st.gpr.(is) and vi = st.vi in
          for l = 0 to m - 1 do
            vi.(od + l) <- x
          done;
          st.vt.(id) <- tag;
          next
    (* Float lanes: the lanewise loop, the reduction and Vinsert, each with
       its shape check and fallback ins next written out; the op is chosen per lane
       by [float_binop]'s inlined match. *)
    | Minstr.Vop (op, ty, d, a, b)
      when Src_type.is_float ty && not (Op.is_bitwise op) ->
      let id = reg_index d and ia = reg_index a and ib = reg_index b in
      let m = lanes_of ty and n32 = ty = Src_type.F32 in
      let od = id * vw and oa = ia * vw and ob = ib * vw and tag = float_tag m in
      fun st ->
        if fits st.vt.(ia) tag && fits st.vt.(ib) tag then begin
          let vf = st.vf and c = st.f32 in
          for l = 0 to m - 1 do
            vf.(od + l) <-
              float_binop c op n32 (round c n32 vf.(oa + l)) (round c n32 vf.(ob + l))
          done;
          st.vt.(id) <- tag
        end
        else exec st ins;
        next
    | Minstr.Vreduce (op, ty, d, s)
      when Src_type.is_float ty && not (Op.is_bitwise op) ->
      let id = reg_index d and is = reg_index s in
      let m = lanes_of ty and n32 = ty = Src_type.F32 and os = reg_index s * vw in
      let tmin = float_tag m in
      fun st ->
        if fits st.vt.(is) tmin then begin
          let vf = st.vf and c = st.f32 in
          let acc = ref (round c n32 vf.(os)) in
          for l = 1 to m - 1 do
            acc := float_binop c op n32 !acc (round c n32 vf.(os + l))
          done;
          st.fpr.(id) <- !acc
        end
        else exec st ins;
        next
    | Minstr.Vinsert (ty, d, v, n, s)
      when Src_type.is_float ty && n >= 0 && n < lanes_of ty ->
      (* Lane n is never read from the base, as in [exec]. *)
      let id = reg_index d and iv = reg_index v and is = reg_index s in
      let m = lanes_of ty and n32 = ty = Src_type.F32 in
      let need = if n = m - 1 then m - 1 else m in
      let od = id * vw and ov = iv * vw and tag = float_tag m in
      let tmin = float_tag need in
      fun st ->
        if fits st.vt.(iv) tmin then begin
          let vf = st.vf and c = st.f32 in
          for l = 0 to m - 1 do
            vf.(od + l) <- round c n32 (if l = n then st.fpr.(is) else vf.(ov + l))
          done;
          st.vt.(id) <- tag
        end
        else exec st ins;
        next
    (* Int lanes, all through [shaped]. *)
    | Minstr.Vop (op, ty, d, a, b) when not (Src_type.is_float ty) ->
      let id = reg_index d and ia = reg_index a and ib = reg_index b in
      let m = lanes_of ty and nm, ns = norm_consts ty in
      let f = int_binop op ty and tag = int_tag m in
      let od = id * vw and oa = ia * vw and ob = ib * vw in
      shaped ins next [ ia, tag; ib, tag ] (fun st ->
          int_lanes st.vi m nm ns f oa ob od;
          st.vt.(id) <- tag)
    | Minstr.Vunop (op, ty, d, s) when not (Src_type.is_float ty) -> (
      let id = reg_index d and is = reg_index s in
      let m = lanes_of ty and nm, ns = norm_consts ty in
      let od = id * vw and os = is * vw and tag = int_tag m in
      match int_unop op with
      | Some f ->
        shaped ins next [ is, tag ] (fun st ->
            int_lanes st.vi m nm ns f os os od;
            st.vt.(id) <- tag)
      | None -> fallback ins next)
    | Minstr.Vshift (((Op.Shl | Op.Shr) as op), ty, d, s, amt)
      when not (Src_type.is_float ty) ->
      (* [exec] shifts every lane by the raw GPR; normalizing the amount at
         [ty] keeps the low bits a shift reads. *)
      let id = reg_index d and is = reg_index s and iamt = reg_index amt in
      let m = lanes_of ty and nm, ns = norm_consts ty in
      let f = int_binop op ty and od = id * vw and os = is * vw in
      let tag = int_tag m in
      shaped ins next [ is, tag ] (fun st ->
          let vi = st.vi and y = norm nm ns st.gpr.(iamt) in
          for l = 0 to m - 1 do
            vi.(od + l) <- norm nm ns (f (norm nm ns vi.(os + l)) y)
          done;
          st.vt.(id) <- tag)
    | Minstr.Vreduce (op, ty, d, s) when not (Src_type.is_float ty) ->
      let id = reg_index d and is = reg_index s in
      let m = lanes_of ty and nm, ns = norm_consts ty in
      let f = int_binop op ty and os = is * vw in
      shaped ins next [ is, int_tag m ] (fun st ->
          st.gpr.(id) <- int_reduce st.vi m nm ns f os)
    | Minstr.Vunpack (h, ty, d, s) when not (Src_type.is_float ty) -> (
      match Src_type.widen ty with
      | None -> fallback ins next (* widen_exn faults at execution *)
      | Some w ->
        let m = lanes_of ty in
        gather_arm ins next [| reg_index s |]
          (lane_map ~first:(half_off h m) m (m / 2))
          ty w (reg_index d))
    | Minstr.Vpack (ty, d, a, b) when not (Src_type.is_float ty) -> (
      match Src_type.narrow ty with
      | None -> fallback ins next (* narrow_exn faults at execution *)
      | Some n ->
        let m = lanes_of ty in
        gather_arm ins next [| reg_index a; reg_index b |] (lane_map m (2 * m)) ty n
          (reg_index d))
    | Minstr.Vcvt (t1, t2, d, s)
      when not (Src_type.is_float t1 || Src_type.is_float t2) ->
      let m = lanes_of t1 in
      gather_arm ins next [| reg_index s |] (lane_map m m) t1 t2 (reg_index d)
    | Minstr.Vextract (ty, stride, offset, d, parts) ->
      let m = lanes_of ty in
      gather_arm ins next
        (Array.of_list (List.map reg_index parts))
        (lane_map ~first:offset ~stride m m)
        ty ty (reg_index d)
    | Minstr.Vinterleave (h, ty, d, a, b) ->
      (* lane l is lane [off + l/2] of [a] (even l) or [b] (odd l) *)
      let m = lanes_of ty in
      let off = half_off h m in
      gather_arm ins next [| reg_index a; reg_index b |]
        (Array.init m (fun l -> l mod 2), Array.init m (fun l -> off + (l / 2)))
        ty ty (reg_index d)
    | Minstr.Vinsert (ty, d, v, n, s)
      when (not (Src_type.is_float ty)) && n >= 0 && n < lanes_of ty ->
      (* Lane n is never read from the base, as in [exec]. *)
      let id = reg_index d and iv = reg_index v and is = reg_index s in
      let m = lanes_of ty and nm, ns = norm_consts ty in
      let need = if n = m - 1 then m - 1 else m in
      let od = id * vw and ov = iv * vw and tag = int_tag m in
      shaped ins next [ iv, int_tag need ] (fun st ->
          let vi = st.vi and x = norm nm ns st.gpr.(is) in
          for l = 0 to m - 1 do
            vi.(od + l) <- (if l = n then x else norm nm ns vi.(ov + l))
          done;
          st.vt.(id) <- tag)
    (* The widening products: lane l widens its source lanes and multiplies
       them at the wide type [w]; lane l reads no lane below l, so both
       write in place. *)
    | Minstr.Vwidenmul (h, ty, d, a, b) when not (Src_type.is_float ty) -> (
      match Src_type.widen ty with
      | None -> fallback ins next
      | Some w ->
        let id = reg_index d and ia = reg_index a and ib = reg_index b in
        let m = lanes_of ty in
        let half = m / 2 and first = half_off h m in
        let nm, ns = norm_consts ty and wm, ws = norm_consts w in
        let oa = (ia * vw) + first and ob = (ib * vw) + first in
        let od = id * vw and tag = int_tag half in
        let tmin = int_tag (first + half) in
        shaped ins next [ ia, tmin; ib, tmin ] (fun st ->
            let vi = st.vi in
            for l = 0 to half - 1 do
              let x = norm wm ws (norm nm ns vi.(oa + l))
              and y = norm wm ws (norm nm ns vi.(ob + l)) in
              vi.(od + l) <- norm wm ws (x * y)
            done;
            st.vt.(id) <- tag))
    | Minstr.Vdot (ty, d, a, b, acc) when not (Src_type.is_float ty) -> (
      match Src_type.widen ty with
      | None -> fallback ins next
      | Some w ->
        (* lane l is acc.(l) + (p0 + p1) at w, the products of the widened
           lanes 2l and 2l+1 *)
        let id = reg_index d and ia = reg_index a and ib = reg_index b in
        let ic = reg_index acc in
        let m = lanes_of ty in
        let half = m / 2 in
        let nm, ns = norm_consts ty and wm, ws = norm_consts w in
        let oa = ia * vw and ob = ib * vw and oc = ic * vw in
        let od = id * vw and tag = int_tag half in
        let tp = int_tag (2 * half) in
        shaped ins next [ ia, tp; ib, tp; ic, tag ] (fun st ->
            let vi = st.vi in
            for l = 0 to half - 1 do
              let i = 2 * l in
              let p0 =
                norm wm ws
                  (norm wm ws (norm nm ns vi.(oa + i))
                  * norm wm ws (norm nm ns vi.(ob + i)))
              and p1 =
                norm wm ws
                  (norm wm ws (norm nm ns vi.(oa + i + 1))
                  * norm wm ws (norm nm ns vi.(ob + i + 1)))
              in
              vi.(od + l) <- norm wm ws (norm wm ws vi.(oc + l) + norm wm ws (p0 + p1))
            done;
            st.vt.(id) <- tag))
    (* Conversions with a float side, lane by lane as [Value.convert]:
       an int source is normalized at [t1], a float one rounded at [t1];
       float -> int truncates toward zero.  The two classes live in
       separate arrays, so [d] may be [s]. *)
    | Minstr.Vcvt (t1, t2, d, s) -> (
      let id = reg_index d and is = reg_index s and m = lanes_of t1 in
      let od = id * vw and os = is * vw in
      let n1 = t1 = Src_type.F32 and n2 = t2 = Src_type.F32 in
      match Src_type.is_float t1, Src_type.is_float t2 with
      | false, true ->
        let nm, ns = norm_consts t1 and tag = float_tag m in
        shaped ins next [ is, int_tag m ] (fun st ->
            let vf = st.vf and vi = st.vi and c = st.f32 in
            for l = 0 to m - 1 do
              vf.(od + l) <- round c n2 (float_of_int (norm nm ns vi.(os + l)))
            done;
            st.vt.(id) <- tag)
      | true, false ->
        let dm, ds = norm_consts t2 and tag = int_tag m in
        shaped ins next [ is, float_tag m ] (fun st ->
            let vf = st.vf and vi = st.vi and c = st.f32 in
            for l = 0 to m - 1 do
              let x = round c n1 vf.(os + l) in
              vi.(od + l) <- norm dm ds (int_of_float (Float.of_int 0 +. Float.trunc x))
            done;
            st.vt.(id) <- tag)
      | true, true ->
        let tag = float_tag m in
        shaped ins next [ is, tag ] (fun st ->
            let vf = st.vf and c = st.f32 in
            for l = 0 to m - 1 do
              vf.(od + l) <- round c n2 (round c n1 vf.(os + l))
            done;
            st.vt.(id) <- tag)
      | false, false -> fallback ins next (* the int gather arm above *))
    (* Comparisons into a GPR or an int mask: 0/1 on raw scalar registers,
       on normalized int lanes, on rounded float lanes. *)
    | Minstr.Scmp (op, ty, d, a, b) when Op.is_comparison op ->
      let id = reg_index d and ia = reg_index a and ib = reg_index b in
      if Src_type.is_float ty then
        fun st ->
          st.gpr.(id) <- int_of_float (float_binop st.f32 op false st.fpr.(ia) st.fpr.(ib));
          next
      else
        let f = int_binop op ty in
        fun st -> st.gpr.(id) <- f st.gpr.(ia) st.gpr.(ib); next
    | Minstr.Vcmp (op, ty, d, a, b)
      when Op.is_comparison op && not (Src_type.is_float ty) ->
      (* an int comparison mask is the int lanewise op's result *)
      compile_action pc (Minstr.Vop (op, ty, d, a, b))
    | Minstr.Vcmp (op, ty, d, a, b) when Op.is_comparison op ->
      let id = reg_index d and ia = reg_index a and ib = reg_index b in
      let m = lanes_of ty and od = id * vw and oa = ia * vw and ob = ib * vw in
      let n32 = ty = Src_type.F32 and tmin = float_tag m and tag = int_tag m in
      shaped ins next [ ia, tmin; ib, tmin ] (fun st ->
          let vf = st.vf and vi = st.vi and c = st.f32 in
          for l = 0 to m - 1 do
            vi.(od + l) <-
              int_of_float
                (float_binop c op n32 (round c n32 vf.(oa + l)) (round c n32 vf.(ob + l)))
          done;
          st.vt.(id) <- tag)
    | Minstr.Vsel (ty, d, mask, a, b) ->
      (* lane l is lane l of [a] where the int mask is nonzero, else of [b] *)
      let id = reg_index d and im = reg_index mask in
      let ia = reg_index a and ib = reg_index b and m = lanes_of ty in
      let od = id * vw and om = im * vw and oa = ia * vw and ob = ib * vw in
      if Src_type.is_float ty then
        let n32 = ty = Src_type.F32 and tag = float_tag m in
        shaped ins next [ im, int_tag m; ia, tag; ib, tag ] (fun st ->
            let vf = st.vf and vi = st.vi and c = st.f32 in
            for l = 0 to m - 1 do
              vf.(od + l) <- round c n32 (if vi.(om + l) <> 0 then vf.(oa + l) else vf.(ob + l))
            done;
            st.vt.(id) <- tag)
      else
        let nm, ns = norm_consts ty and tag = int_tag m in
        shaped ins next [ im, tag; ia, tag; ib, tag ] (fun st ->
            let vi = st.vi in
            for l = 0 to m - 1 do
              vi.(od + l) <- norm nm ns (if vi.(om + l) <> 0 then vi.(oa + l) else vi.(ob + l))
            done;
            st.vt.(id) <- tag)
    | Minstr.Cmov (d, c, a, b) ->
      let ic = reg_index c in
      let move_a = compile_action pc (Minstr.Mov (d, a))
      and move_b = compile_action pc (Minstr.Mov (d, b)) in
      fun st -> if st.gpr.(ic) <> 0 then move_a st else move_b st
    (* AltiVec realignment: [Lvsr] makes a one-lane token, [Vperm] reads
       lanes [tok, tok + m) of [a] and [b] concatenated.  A token outside
       [0, m] runs [exec]; one inside reads only lanes both registers must
       hold, and reading [a] at [tok + l] never reads a lane below l, so
       only [d] = [b] goes through scratch. *)
    | Minstr.Lvsr (ty, d, a) ->
      let id = reg_index d and ea = compile_addr a and sz = Src_type.size_of ty in
      fun st ->
        let tok = ea st mod vs / sz in
        st.vi.(id * vw) <- tok;
        st.vt.(id) <- int_tag 1;
        next
    | Minstr.Vperm (ty, d, a, b, t) ->
      let id = reg_index d and ia = reg_index a and ib = reg_index b in
      let it = reg_index t and m = lanes_of ty in
      let od = id * vw and oa = ia * vw and ob = ib * vw and ot = it * vw in
      let dst = if id = ib then scratch else od in
      let float = Src_type.is_float ty in
      let tag = if float then float_tag m else int_tag m in
      let c = if float then 0, 0 else norm_consts ty and n32 = ty = Src_type.F32 in
      let src = Array.make m 0 in (* this run's gather map *)
      fun st ->
        let tok = st.vi.(ot) in
        if st.vt.(it) = int_tag 1 && tok >= 0 && tok <= m
           && fits st.vt.(ia) tag && fits st.vt.(ib) tag
        then begin
          for l = 0 to m - 1 do
            let p = tok + l in
            src.(l) <- (if p < m then oa + p else ob + p - m)
          done;
          if float then begin
            let vf = st.vf in
            gather_float vf st.f32 n32 src dst;
            for l = 0 to m - 1 do
              vf.(od + l) <- vf.(dst + l)
            done
          end
          else begin
            let vi = st.vi in
            gather vi c c src dst;
            for l = 0 to m - 1 do
              vi.(od + l) <- vi.(dst + l)
            done
          end;
          st.vt.(id) <- tag
        end
        else exec st ins;
        next
    (* Predicated accesses (the sve and avx512 loop tails): no alignment
       requirement, the int mask read in place, and only active lanes
       bounds-checked, in lane order as [exec] does.  An inactive lane
       loads as zero or leaves memory untouched.  A mask or store source
       of another shape (undefined, float lanes, too few lanes, or a
       store source of the wrong lane count) runs [exec].  A load writes
       lane l after reading mask lane l, so its mask may be [d]. *)
    | Minstr.VMaskedLoad (ty, d, mask, a) ->
      let id = reg_index d and im = reg_index mask in
      let ea_of = compile_addr a in
      let m = lanes_of ty and esize = Src_type.size_of ty in
      let od = id * vw and om = im * vw and tmask = int_tag m in
      if Src_type.is_float ty then
        let n32 = ty = Src_type.F32 and tag = float_tag m in
        fun st ->
          if fits st.vt.(im) tmask then begin
            let ea = ea_of st and vi = st.vi and vf = st.vf in
            for l = 0 to m - 1 do
              if vi.(om + l) <> 0 then begin
                let la = ea + (l * esize) in
                check_bounds st la esize "masked vector load";
                vf.(od + l) <- read_float n32 st.mem la
              end
              else vf.(od + l) <- 0.0
            done;
            st.vt.(id) <- tag
          end
          else exec st ins;
          next
      else
        let nm, ns = norm_consts ty and tag = int_tag m in
        fun st ->
          if fits st.vt.(im) tmask then begin
            let ea = ea_of st and vi = st.vi in
            for l = 0 to m - 1 do
              if vi.(om + l) <> 0 then begin
                let la = ea + (l * esize) in
                check_bounds st la esize "masked vector load";
                vi.(od + l) <- norm nm ns (read_int esize st.mem la)
              end
              else vi.(od + l) <- 0
            done;
            st.vt.(id) <- tag
          end
          else exec st ins;
          next
    | Minstr.VMaskedStore (ty, a, mask, s) ->
      let im = reg_index mask and is = reg_index s in
      let ea_of = compile_addr a in
      let m = lanes_of ty and esize = Src_type.size_of ty in
      let om = im * vw and os = is * vw and tmask = int_tag m in
      if Src_type.is_float ty then
        let n32 = ty = Src_type.F32 and tag = float_tag m in
        fun st ->
          if fits st.vt.(im) tmask && st.vt.(is) = tag then begin
            let ea = ea_of st and vi = st.vi and vf = st.vf in
            for l = 0 to m - 1 do
              if vi.(om + l) <> 0 then begin
                let la = ea + (l * esize) in
                check_bounds st la esize "masked vector store";
                write_float n32 st.mem la vf.(os + l)
              end
            done
          end
          else exec st ins;
          next
      else
        let tag = int_tag m in
        fun st ->
          if fits st.vt.(im) tmask && st.vt.(is) = tag then begin
            let ea = ea_of st and vi = st.vi in
            for l = 0 to m - 1 do
              if vi.(om + l) <> 0 then begin
                let la = ea + (l * esize) in
                check_bounds st la esize "masked vector store";
                write_int esize st.mem la vi.(os + l)
              end
            done
          end
          else exec st ins;
          next
    (* The lane-index vector the predicated tails build their masks
       from: lane l is [x + l * inc], normalized. *)
    | Minstr.Viota (ty, d, s, inc) when not (Src_type.is_float ty) ->
      let id = reg_index d and is = reg_index s in
      let m = lanes_of ty and nm, ns = norm_consts ty in
      let od = id * vw and tag = int_tag m in
      fun st ->
        let x = st.gpr.(is) and vi = st.vi in
        for l = 0 to m - 1 do
          vi.(od + l) <- norm nm ns (x + (l * inc))
        done;
        st.vt.(id) <- tag;
        next
    (* Everything else runs the reference step: the float forms of Vunop,
       Vpack, Vunpack and Viota, and bitwise ops on float lanes, which
       the suite's code barely runs. *)
    | _ -> fallback ins next
  in
  let p_code = Array.mapi compile_action instrs in
  (* Parameter binders: per-name closures that keep List.assoc_opt (the
     argument list varies per run) but pre-resolve type, class and
     location.  Same faults, same normalization as [run]. *)
  let p_binders =
    Array.of_list
      (List.map
         (fun (name, sty, loc) ->
           match (loc : Mfun.param_loc) with
           | Mfun.In_reg r -> (
             let id = reg_index r in
             match r.Minstr.cls with
             | Minstr.GPR ->
               fun st args ->
                 (match List.assoc_opt name args with
                 | Some v ->
                   st.gpr.(id) <- Value.to_int (Value.normalize sty v)
                 | None -> faultf "missing scalar argument %s" name)
             | Minstr.FPR ->
               fun st args ->
                 (match List.assoc_opt name args with
                 | Some v ->
                   st.fpr.(id) <- Value.to_float (Value.normalize sty v)
                 | None -> faultf "missing scalar argument %s" name)
             | Minstr.VR ->
               fun _ args ->
                 (match List.assoc_opt name args with
                 | Some _ -> faultf "vector parameter %s" name
                 | None -> faultf "missing scalar argument %s" name))
           | Mfun.In_stack (ty, off) ->
             fun st args ->
               (match List.assoc_opt name args with
               | Some v ->
                 let v = Value.normalize sty v in
                 Layout.write_value st.mem ty
                   (st.layout.Layout.stack_base + off)
                   v
               | None -> faultf "missing scalar argument %s" name))
         f.Mfun.param_regs)
  in
  let plan =
    {
      p_target = target;
      p_mfun = f;
      p_cost;
      p_blen;
      p_bcost;
      p_code;
      p_syms;
      p_bases;
      p_binders;
      p_state = None;
    }
  in
  Vapor_obs.Stage.record "prepare" stage_t0;
  plan

let run_plan ?(fuel = 200_000_000) (p : plan) (layout : Layout.t)
    (mem : Bytes.t) ~(scalar_args : (string * Value.t) list) : result =
  let st =
    match p.p_state with
    | Some st ->
      (* Undefined tags hide whatever lanes the last run left. *)
      st.layout <- layout;
      st.mem <- mem;
      Array.fill st.gpr 0 (Array.length st.gpr) 0;
      Array.fill st.fpr 0 (Array.length st.fpr) 0.0;
      Array.fill st.vt 0 (Array.length st.vt) undef_tag;
      st.cycles <- 0;
      st.executed <- 0;
      st
    | None ->
      let st = make_state p.p_target layout mem p.p_mfun in
      p.p_state <- Some st;
      st
  in
  (* Resolve symbol bases for this run; failures are recorded and only
     surface (as Layout.base_of's own exception) if an address actually
     uses the symbol, exactly as in [run]. *)
  for k = 0 to Array.length p.p_syms - 1 do
    p.p_bases.(k) <-
      (match Layout.base_of layout p.p_syms.(k) with
      | b -> b
      | exception Invalid_argument _ -> min_int)
  done;
  let binders = p.p_binders in
  for k = 0 to Array.length binders - 1 do
    binders.(k) st scalar_args
  done;
  let code = p.p_code and blen = p.p_blen and bcost = p.p_bcost in
  let n = Array.length code in
  let pc = ref 0 in
  while !pc < n do
    let b = !pc in
    let len = blen.(b) in
    if st.executed + len - 1 > fuel then begin
      (* The fuel runs out inside this block: step it one instruction at a
         time, as [run] does, so the fault comes at the same instruction. *)
      if st.executed > fuel then faultf "fuel exhausted (infinite loop?)";
      st.executed <- st.executed + 1;
      st.cycles <- st.cycles + p.p_cost.(b);
      pc := code.(b) st
    end
    else begin
      (* A fault mid-block leaves the block charged in full; it raises out
         of [run_plan], so nobody reads those counters. *)
      st.executed <- st.executed + len;
      st.cycles <- st.cycles + bcost.(b);
      let last = b + len - 1 in
      for k = b to last - 1 do
        ignore (code.(k) st : int)
      done;
      pc := code.(last) st
    end
  done;
  { r_cycles = st.cycles; r_instructions = st.executed }
