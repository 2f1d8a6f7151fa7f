(* The virtual machine ISA that both online and offline backends target.

   A RISC-ish three-address form with three register classes (integer,
   scalar FP, vector), x86-style addressing modes (so that addressing-mode
   folding quality is observable in instruction counts), and the vector
   operations needed by the Table-1 idioms.  Register operands are virtual
   until [Regalloc] rewrites them to physical indices. *)

open Vapor_ir
module Target = Vapor_targets.Target

type cls =
  | GPR
  | FPR
  | VR

type reg = {
  cls : cls;
  id : int;
}

(* Effective address: sym_base + base + index*scale + disp (bytes).
   [sym] names an array parameter or the special "$stack" region. *)
type addr = {
  sym : string;
  base : reg option;
  index : reg option;
  scale : int;
  disp : int;
}

type vmem =
  | VM_aligned (* lvx/movdqa-style; behaviour on misaligned addresses is
                  target-dependent (floor or fault) *)
  | VM_misaligned (* movdqu-style *)

type half =
  | Lo
  | Hi

type t =
  | Li of reg * int (* GPR <- immediate *)
  | Lfi of reg * float (* FPR <- immediate *)
  | Mov of reg * reg (* same-class move *)
  | Lea of reg * addr (* GPR <- effective address *)
  | Sop of Op.binop * Src_type.t * reg * reg * reg (* scalar arithmetic *)
  | Sunop of Op.unop * Src_type.t * reg * reg
  | Scmp of Op.binop * Src_type.t * reg * reg * reg (* GPR <- compare *)
  | Cmov of reg * reg * reg * reg (* dst <- cond ? a : b *)
  | Cvt of Src_type.t * Src_type.t * reg * reg (* scalar conversion *)
  | Load of Src_type.t * reg * addr
  | Store of Src_type.t * addr * reg
  | VLoad of vmem * Src_type.t * reg * addr
  | VStore of vmem * Src_type.t * addr * reg
  | Vop of Op.binop * Src_type.t * reg * reg * reg
  | Vunop of Op.unop * Src_type.t * reg * reg
  | Vshift of Op.binop * Src_type.t * reg * reg * reg (* amount in GPR *)
  | Vsplat of Src_type.t * reg * reg (* broadcast scalar *)
  | Viota of Src_type.t * reg * reg * int (* lanes = start + l*inc *)
  | Vinsert of Src_type.t * reg * reg * int * reg (* dst = src with lane n := scalar *)
  | Vreduce of Op.binop * Src_type.t * reg * reg (* scalar <- horizontal *)
  | Lvsr of Src_type.t * reg * addr (* realignment token from address *)
  | Vperm of Src_type.t * reg * reg * reg * reg (* dst <- select(v1,v2,token) *)
  | Vwidenmul of half * Src_type.t * reg * reg * reg
  | Vdot of Src_type.t * reg * reg * reg * reg (* dst <- acc + pairwise a*b *)
  | Vunpack of half * Src_type.t * reg * reg
  | Vpack of Src_type.t * reg * reg * reg
  | Vcvt of Src_type.t * Src_type.t * reg * reg
  | Vextract of Src_type.t * int * int * reg * reg list (* stride, offset *)
  | Vinterleave of half * Src_type.t * reg * reg * reg
  | Vcmp of Op.binop * Src_type.t * reg * reg * reg (* 0/1 mask *)
  | Vsel of Src_type.t * reg * reg * reg * reg (* dst <- mask ? a : b *)
  | VMaskedLoad of Src_type.t * reg * reg * addr
      (* dst <- load under 0/1 lane mask; inactive lanes read as zero and
         touch no memory (SVE ld1 / AVX-512 vmovups zmm{k}{z}) *)
  | VMaskedStore of Src_type.t * addr * reg * reg
      (* store under mask (addr, mask, src); inactive lanes untouched *)
  | VSpill of int * reg (* raw vector save to spill slot *)
  | VReload of reg * int
  | Label of int
  | Jmp of int
  | Br of Op.binop * reg * reg * int (* branch to label when cmp holds *)
  | Lib of t (* executed via a library helper: adds call overhead *)

(* The scalar register class carrying values of type [ty]. *)
let class_of_type ty = if Src_type.is_float ty then FPR else GPR

let gpr id = { cls = GPR; id }
let fpr id = { cls = FPR; id }
let vr id = { cls = VR; id }

let plain_addr sym = { sym; base = None; index = None; scale = 1; disp = 0 }

(* --- register usage, for liveness and allocation ---------------------- *)

let addr_regs use a =
  (match a.base with Some r -> use r | None -> ());
  match a.index with Some r -> use r | None -> ()

(* Calls [use] on each register [i] reads, then [def] on each one it
   writes, in a fixed operand order (the allocator numbers spill scratch
   registers in it).  Allocates nothing. *)
let rec iter_regs ~use ~def (i : t) =
  match i with
  | Li (d, _) | Lfi (d, _) -> def d
  | Mov (d, s)
  | Sunop (_, _, d, s)
  | Cvt (_, _, d, s)
  | Vunop (_, _, d, s)
  | Vsplat (_, d, s)
  | Viota (_, d, s, _)
  | Vreduce (_, _, d, s)
  | Vunpack (_, _, d, s)
  | Vcvt (_, _, d, s) ->
    use s;
    def d
  | Lea (d, a) | Load (_, d, a) | VLoad (_, _, d, a) | Lvsr (_, d, a) ->
    addr_regs use a;
    def d
  | Sop (_, _, d, a, b)
  | Scmp (_, _, d, a, b)
  | Vop (_, _, d, a, b)
  | Vshift (_, _, d, a, b)
  | Vinsert (_, d, a, _, b)
  | Vwidenmul (_, _, d, a, b)
  | Vpack (_, d, a, b)
  | Vinterleave (_, _, d, a, b)
  | Vcmp (_, _, d, a, b) ->
    use a;
    use b;
    def d
  | Cmov (d, a, b, c)
  | Vperm (_, d, a, b, c)
  | Vdot (_, d, a, b, c)
  | Vsel (_, d, a, b, c) ->
    use a;
    use b;
    use c;
    def d
  | Store (_, a, s) | VStore (_, _, a, s) ->
    use s;
    addr_regs use a
  | Vextract (_, _, _, d, parts) ->
    List.iter use parts;
    def d
  | VMaskedLoad (_, d, m, a) ->
    use m;
    addr_regs use a;
    def d
  | VMaskedStore (_, a, m, s) ->
    use m;
    use s;
    addr_regs use a
  | VSpill (_, s) -> use s
  | VReload (d, _) -> def d
  | Label _ | Jmp _ -> ()
  | Br (_, a, b, _) ->
    use a;
    use b
  | Lib inner -> iter_regs ~use ~def inner

(* An address naming no register comes back as is, shared. *)
let map_addr f a =
  match a.base, a.index with
  | None, None -> a
  | _ -> { a with base = Option.map f a.base; index = Option.map f a.index }

(* Rewrite registers with [f]. *)
let rec map_regs f (i : t) : t =
  match i with
  | Li (d, v) -> Li (f d, v)
  | Lfi (d, v) -> Lfi (f d, v)
  | Mov (d, s) -> Mov (f d, f s)
  | Lea (d, a) -> Lea (f d, map_addr f a)
  | Sop (op, ty, d, a, b) -> Sop (op, ty, f d, f a, f b)
  | Sunop (op, ty, d, s) -> Sunop (op, ty, f d, f s)
  | Scmp (op, ty, d, a, b) -> Scmp (op, ty, f d, f a, f b)
  | Cmov (d, c, a, b) -> Cmov (f d, f c, f a, f b)
  | Cvt (t1, t2, d, s) -> Cvt (t1, t2, f d, f s)
  | Load (ty, d, a) -> Load (ty, f d, map_addr f a)
  | Store (ty, a, s) -> Store (ty, map_addr f a, f s)
  | VLoad (k, ty, d, a) -> VLoad (k, ty, f d, map_addr f a)
  | VStore (k, ty, a, s) -> VStore (k, ty, map_addr f a, f s)
  | Vop (op, ty, d, a, b) -> Vop (op, ty, f d, f a, f b)
  | Vunop (op, ty, d, s) -> Vunop (op, ty, f d, f s)
  | Vshift (op, ty, d, s, amt) -> Vshift (op, ty, f d, f s, f amt)
  | Vsplat (ty, d, s) -> Vsplat (ty, f d, f s)
  | Viota (ty, d, s, inc) -> Viota (ty, f d, f s, inc)
  | Vinsert (ty, d, v, n, s) -> Vinsert (ty, f d, f v, n, f s)
  | Vreduce (op, ty, d, s) -> Vreduce (op, ty, f d, f s)
  | Lvsr (ty, d, a) -> Lvsr (ty, f d, map_addr f a)
  | Vperm (ty, d, a, b, t) -> Vperm (ty, f d, f a, f b, f t)
  | Vwidenmul (h, ty, d, a, b) -> Vwidenmul (h, ty, f d, f a, f b)
  | Vdot (ty, d, a, b, acc) -> Vdot (ty, f d, f a, f b, f acc)
  | Vunpack (h, ty, d, s) -> Vunpack (h, ty, f d, f s)
  | Vpack (ty, d, a, b) -> Vpack (ty, f d, f a, f b)
  | Vcvt (t1, t2, d, s) -> Vcvt (t1, t2, f d, f s)
  | Vextract (ty, st, off, d, parts) ->
    Vextract (ty, st, off, f d, List.map f parts)
  | Vinterleave (h, ty, d, a, b) -> Vinterleave (h, ty, f d, f a, f b)
  | Vcmp (op, ty, d, a, b) -> Vcmp (op, ty, f d, f a, f b)
  | Vsel (ty, d, m, a, b) -> Vsel (ty, f d, f m, f a, f b)
  | VMaskedLoad (ty, d, m, a) -> VMaskedLoad (ty, f d, f m, map_addr f a)
  | VMaskedStore (ty, a, m, s) -> VMaskedStore (ty, map_addr f a, f m, f s)
  | VSpill (slot, s) -> VSpill (slot, f s)
  | VReload (d, slot) -> VReload (f d, slot)
  | Label _ | Jmp _ -> i
  | Br (op, a, b, l) -> Br (op, f a, f b, l)
  | Lib inner -> Lib (map_regs f inner)

(* Cycle cost of an instruction under a target's cost table.  Addressing
   with both an index register and a displacement costs nothing extra: the
   folding quality is modeled in how many instructions the compiler emits,
   not here. *)
let rec cost (t : Target.t) (i : t) : int =
  let c = t.Target.costs in
  match i with
  | Li _ | Lfi _ -> c.Target.c_move
  | Mov _ -> c.Target.c_move
  | Lea _ -> c.Target.c_lea
  | Sop (op, ty, _, _, _) ->
    if Src_type.is_float ty then
      (match op with
      | Op.Mul -> c.Target.c_fp_mul
      | Op.Div -> c.Target.c_fp_div
      | _ -> c.Target.c_fp_op)
    else (
      match op with
      | Op.Mul -> c.Target.c_int_mul
      | Op.Div -> c.Target.c_int_div
      | _ -> c.Target.c_int_op)
  | Sunop (op, ty, _, _) ->
    if Src_type.is_float ty then
      (match op with
      | Op.Sqrt -> c.Target.c_fp_sqrt
      | _ -> c.Target.c_fp_op)
    else c.Target.c_int_op
  | Scmp (_, ty, _, _, _) ->
    if Src_type.is_float ty then c.Target.c_fp_op else c.Target.c_int_op
  | Cmov _ -> c.Target.c_move
  | Cvt _ -> c.Target.c_fp_op
  | Load _ -> c.Target.c_load
  | Store _ -> c.Target.c_store
  | VLoad (VM_aligned, _, _, _) -> c.Target.c_vload_aligned
  | VLoad (VM_misaligned, _, _, _) -> c.Target.c_vload_misaligned
  | VStore (VM_aligned, _, _, _) -> c.Target.c_vstore_aligned
  | VStore (VM_misaligned, _, _, _) -> c.Target.c_vstore_misaligned
  | Vop (op, _, _, _, _) -> (
    match op with
    | Op.Mul -> c.Target.c_vmul
    | Op.Div -> c.Target.c_vdiv
    | _ -> c.Target.c_vop)
  | Vunop (Op.Sqrt, _, _, _) -> c.Target.c_vdiv
  | Vunop (_, _, _, _) -> c.Target.c_vop
  | Vshift _ -> c.Target.c_vop
  | Vsplat _ -> c.Target.c_vsplat
  | Viota _ -> c.Target.c_viota
  | Vinsert _ -> c.Target.c_vinsert
  | Vreduce _ -> c.Target.c_vreduce
  | Lvsr _ -> c.Target.c_lvsr
  | Vperm _ -> c.Target.c_vperm
  | Vwidenmul _ -> c.Target.c_vwiden_mult
  | Vdot _ -> c.Target.c_vdot
  | Vunpack _ -> c.Target.c_vunpack
  | Vpack _ -> c.Target.c_vpack
  | Vcvt _ -> c.Target.c_vcvt
  | Vextract _ -> c.Target.c_vextract
  | Vinterleave _ -> c.Target.c_vinterleave
  | Vcmp _ -> c.Target.c_vop
  | Vsel _ -> c.Target.c_vop
  | VMaskedLoad _ -> c.Target.c_vload_masked
  | VMaskedStore _ -> c.Target.c_vstore_masked
  | VSpill _ -> c.Target.c_vstore_aligned
  | VReload _ -> c.Target.c_vload_aligned
  | Label _ -> 0
  | Jmp _ -> c.Target.c_branch
  | Br _ -> c.Target.c_branch
  | Lib inner ->
    (* helper call per element: overhead scaled by lane count *)
    let lanes =
      match inner with
      | Vpack (ty, _, _, _) | Vcvt (ty, _, _, _) | Vwidenmul (_, ty, _, _, _)
      | Vdot (ty, _, _, _, _) ->
        Target.lanes t ty
      | _ -> 1
    in
    (c.Target.c_libcall * lanes) + cost t inner

(* --- printing ---------------------------------------------------------- *)

let reg_to_string r =
  let prefix =
    match r.cls with
    | GPR -> "r"
    | FPR -> "f"
    | VR -> "v"
  in
  Printf.sprintf "%s%d" prefix r.id

let addr_to_string a =
  let parts =
    List.filter
      (fun s -> s <> "")
      [
        (if a.sym = "" then "" else a.sym);
        (match a.base with Some r -> reg_to_string r | None -> "");
        (match a.index with
        | Some r ->
          if a.scale = 1 then reg_to_string r
          else Printf.sprintf "%s*%d" (reg_to_string r) a.scale
        | None -> "");
        (if a.disp = 0 then "" else string_of_int a.disp);
      ]
  in
  "[" ^ String.concat "+" parts ^ "]"

let rec to_string (i : t) : string =
  let r = reg_to_string in
  let ty = Src_type.to_string in
  match i with
  | Li (d, v) -> Printf.sprintf "li %s, %d" (r d) v
  | Lfi (d, v) -> Printf.sprintf "lfi %s, %g" (r d) v
  | Mov (d, s) -> Printf.sprintf "mov %s, %s" (r d) (r s)
  | Lea (d, a) -> Printf.sprintf "lea %s, %s" (r d) (addr_to_string a)
  | Sop (op, t, d, a, b) ->
    Printf.sprintf "%s.%s %s, %s, %s" (Op.binop_to_string op) (ty t) (r d)
      (r a) (r b)
  | Sunop (op, t, d, s) ->
    Printf.sprintf "%s.%s %s, %s" (Op.unop_to_string op) (ty t) (r d) (r s)
  | Scmp (op, t, d, a, b) ->
    Printf.sprintf "cmp%s.%s %s, %s, %s" (Op.binop_to_string op) (ty t) (r d)
      (r a) (r b)
  | Cmov (d, c, a, b) ->
    Printf.sprintf "cmov %s, %s ? %s : %s" (r d) (r c) (r a) (r b)
  | Cvt (t1, t2, d, s) ->
    Printf.sprintf "cvt.%s.%s %s, %s" (ty t1) (ty t2) (r d) (r s)
  | Load (t, d, a) ->
    Printf.sprintf "ld.%s %s, %s" (ty t) (r d) (addr_to_string a)
  | Store (t, a, s) ->
    Printf.sprintf "st.%s %s, %s" (ty t) (addr_to_string a) (r s)
  | VLoad (k, t, d, a) ->
    Printf.sprintf "vld%s.%s %s, %s"
      (match k with VM_aligned -> "a" | VM_misaligned -> "u")
      (ty t) (r d) (addr_to_string a)
  | VStore (k, t, a, s) ->
    Printf.sprintf "vst%s.%s %s, %s"
      (match k with VM_aligned -> "a" | VM_misaligned -> "u")
      (ty t) (addr_to_string a) (r s)
  | Vop (op, t, d, a, b) ->
    Printf.sprintf "v%s.%s %s, %s, %s" (Op.binop_to_string op) (ty t) (r d)
      (r a) (r b)
  | Vunop (op, t, d, s) ->
    Printf.sprintf "v%s.%s %s, %s" (Op.unop_to_string op) (ty t) (r d) (r s)
  | Vshift (op, t, d, s, amt) ->
    Printf.sprintf "vshift%s.%s %s, %s, %s" (Op.binop_to_string op) (ty t)
      (r d) (r s) (r amt)
  | Vsplat (t, d, s) -> Printf.sprintf "vsplat.%s %s, %s" (ty t) (r d) (r s)
  | Viota (t, d, s, inc) ->
    Printf.sprintf "viota.%s %s, %s, %d" (ty t) (r d) (r s) inc
  | Vinsert (t, d, v, n, s) ->
    Printf.sprintf "vinsert.%s %s, %s[%d] <- %s" (ty t) (r d) (r v) n (r s)
  | Vreduce (op, t, d, s) ->
    Printf.sprintf "vreduce%s.%s %s, %s" (Op.binop_to_string op) (ty t) (r d)
      (r s)
  | Lvsr (t, d, a) ->
    Printf.sprintf "lvsr.%s %s, %s" (ty t) (r d) (addr_to_string a)
  | Vperm (t, d, a, b, tok) ->
    Printf.sprintf "vperm.%s %s, %s, %s, %s" (ty t) (r d) (r a) (r b) (r tok)
  | Vwidenmul (h, t, d, a, b) ->
    Printf.sprintf "vwidenmul_%s.%s %s, %s, %s"
      (match h with Lo -> "lo" | Hi -> "hi")
      (ty t) (r d) (r a) (r b)
  | Vdot (t, d, a, b, acc) ->
    Printf.sprintf "vdot.%s %s, %s, %s, %s" (ty t) (r d) (r a) (r b) (r acc)
  | Vunpack (h, t, d, s) ->
    Printf.sprintf "vunpack_%s.%s %s, %s"
      (match h with Lo -> "lo" | Hi -> "hi")
      (ty t) (r d) (r s)
  | Vpack (t, d, a, b) ->
    Printf.sprintf "vpack.%s %s, %s, %s" (ty t) (r d) (r a) (r b)
  | Vcvt (t1, t2, d, s) ->
    Printf.sprintf "vcvt.%s.%s %s, %s" (ty t1) (ty t2) (r d) (r s)
  | Vextract (t, st, off, d, parts) ->
    Printf.sprintf "vextract.%s s%d o%d %s, %s" (ty t) st off (r d)
      (String.concat ", " (List.map r parts))
  | Vinterleave (h, t, d, a, b) ->
    Printf.sprintf "vinterleave_%s.%s %s, %s, %s"
      (match h with Lo -> "lo" | Hi -> "hi")
      (ty t) (r d) (r a) (r b)
  | Vcmp (op, t, d, a, b) ->
    Printf.sprintf "vcmp%s.%s %s, %s, %s" (Op.binop_to_string op) (ty t)
      (r d) (r a) (r b)
  | Vsel (t, d, m, a, b) ->
    Printf.sprintf "vsel.%s %s, %s ? %s : %s" (ty t) (r d) (r m) (r a) (r b)
  | VMaskedLoad (t, d, m, a) ->
    Printf.sprintf "vldm.%s %s, %s, %s" (ty t) (r d) (r m) (addr_to_string a)
  | VMaskedStore (t, a, m, s) ->
    Printf.sprintf "vstm.%s %s, %s, %s" (ty t) (addr_to_string a) (r m) (r s)
  | VSpill (slot, s) -> Printf.sprintf "vspill [%d], %s" slot (r s)
  | VReload (d, slot) -> Printf.sprintf "vreload %s, [%d]" (r d) slot
  | Label l -> Printf.sprintf "L%d:" l
  | Jmp l -> Printf.sprintf "jmp L%d" l
  | Br (op, a, b, l) ->
    Printf.sprintf "br%s %s, %s, L%d" (Op.binop_to_string op) (r a) (r b) l
  | Lib inner -> "lib<" ^ to_string inner ^ ">"
