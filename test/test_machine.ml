(* Machine-layer tests: simulator instruction semantics, layout, the
   register allocator under extreme pressure, cycle accounting, and the
   IACA-style static analyzer. *)

open Vapor_ir
module M = Vapor_machine.Minstr
module Mfun = Vapor_machine.Mfun
module Layout = Vapor_machine.Layout
module Simulator = Vapor_machine.Simulator
module Regalloc = Vapor_machine.Regalloc
module Iaca = Vapor_machine.Iaca
module Target = Vapor_targets.Target

let check = Alcotest.check
let fail = Alcotest.fail
let sse = Vapor_targets.Sse.target
let altivec = Vapor_targets.Altivec.target

let mfun ?(n_gpr = 16) ?(n_fpr = 16) ?(n_vr = 16) ?(params = [])
    ?(fp_unit = Mfun.Fp_scalar_simd) instrs =
  {
    Mfun.name = "test";
    instrs = Array.of_list instrs;
    n_gpr;
    n_fpr;
    n_vr;
    param_regs = params;
    fp_unit;
    stack_bytes = 256;
    n_vspill = 4;
  }

(* Run [instrs] twice, each on its own copy of the memory image: through
   the reference [Simulator.run] and through a prepared plan.  Returns the
   layout, then each engine's final memory and outcome: a result or the
   exception it raised. *)
let engines ?(target = sse) ?(arrays = []) ?(scalars = []) ?params ?fp_unit
    ?n_vr ?fuel instrs =
  let layout = Layout.plan ~policy:Layout.aligned_policy arrays in
  let mem = Layout.materialize layout arrays in
  let plan_mem = Bytes.copy mem in
  let f = mfun ?n_vr ?params ?fp_unit instrs in
  let outcome go = match go () with r -> Ok r | exception e -> Error e in
  let reference =
    outcome (fun () ->
        Simulator.run ?fuel target layout mem f ~scalar_args:scalars)
  in
  let planned =
    outcome (fun () ->
        Simulator.run_plan ?fuel (Simulator.prepare ~target f) layout plan_mem
          ~scalar_args:scalars)
  in
  layout, (mem, reference), (plan_mem, planned)

(* The two engines must agree on cycles, executed instructions and final
   memory, or raise the same exception (fault message included).  Returns
   the reference outcome, with [arrays] read back. *)
let run_both ?target ?(arrays = []) ?scalars ?params ?fp_unit ?fuel instrs =
  let layout, (mem, reference), (plan_mem, planned) =
    engines ?target ~arrays ?scalars ?params ?fp_unit ?fuel instrs
  in
  (match reference, planned with
  | Ok r, Ok p ->
    check Alcotest.int "plan cycles" r.Simulator.r_cycles p.Simulator.r_cycles;
    check Alcotest.int "plan instructions" r.Simulator.r_instructions
      p.Simulator.r_instructions
  | Error e, Error e' ->
    check Alcotest.string "plan exception" (Printexc.to_string e)
      (Printexc.to_string e')
  | Ok _, Error e -> fail ("only the plan raised " ^ Printexc.to_string e)
  | Error e, Ok _ -> fail ("only the reference raised " ^ Printexc.to_string e));
  check Alcotest.bool "plan memory" true (Bytes.equal mem plan_mem);
  Layout.read_back layout mem arrays;
  reference

let run ?target ?arrays ?scalars ?fp_unit ?fuel instrs =
  match run_both ?target ?arrays ?scalars ?fp_unit ?fuel instrs with
  | Ok r -> r
  | Error e -> raise e

let f32s n = Buffer_.init Src_type.F32 n (fun i -> Value.Float (float_of_int i))
let i32s n = Buffer_.init Src_type.I32 n (fun i -> Value.Int (i + 1))

(* --- scalar semantics --------------------------------------------------- *)

let test_scalar_wrap () =
  let out = Buffer_.create Src_type.I8 1 in
  ignore
    (run
       ~arrays:[ "out", out ]
       [
         M.Li (M.gpr 0, 100);
         M.Li (M.gpr 1, 30);
         M.Sop (Op.Add, Src_type.I8, M.gpr 2, M.gpr 0, M.gpr 1);
         M.Store (Src_type.I8, M.plain_addr "out", M.gpr 2);
       ]);
  check Alcotest.int "s8 wraps in machine add" (-126)
    (Value.to_int (Buffer_.get out 0))

let test_addressing_modes () =
  let a = i32s 8 in
  let out = Buffer_.create Src_type.I32 1 in
  (* out[0] = a[2*1 + 1] via index*scale + disp *)
  ignore
    (run
       ~arrays:[ "a", a; "out", out ]
       [
         M.Li (M.gpr 0, 1);
         M.Load
           ( Src_type.I32,
             M.gpr 1,
             { M.sym = "a"; base = None; index = Some (M.gpr 0); scale = 8;
               disp = 4 } );
         M.Store (Src_type.I32, M.plain_addr "out", M.gpr 1);
       ]);
  check Alcotest.int "a[3]" 4 (Value.to_int (Buffer_.get out 0))

let test_branching_loop () =
  (* sum 0..9 with a Br loop *)
  let out = Buffer_.create Src_type.I32 1 in
  ignore
    (run
       ~arrays:[ "out", out ]
       [
         M.Li (M.gpr 0, 0) (* i *);
         M.Li (M.gpr 1, 0) (* sum *);
         M.Li (M.gpr 2, 10);
         M.Li (M.gpr 3, 1);
         M.Label 0;
         M.Br (Op.Ge, M.gpr 0, M.gpr 2, 1);
         M.Sop (Op.Add, Src_type.I32, M.gpr 1, M.gpr 1, M.gpr 0);
         M.Sop (Op.Add, Src_type.I32, M.gpr 0, M.gpr 0, M.gpr 3);
         M.Jmp 0;
         M.Label 1;
         M.Store (Src_type.I32, M.plain_addr "out", M.gpr 1);
       ]);
  check Alcotest.int "sum" 45 (Value.to_int (Buffer_.get out 0))

let test_infinite_loop_fuel () =
  match run ~fuel:1000 [ M.Label 0; M.Jmp 0 ] with
  | _ -> fail "expected fuel exhaustion"
  | exception Simulator.Fault _ -> ()

(* --- vector semantics --------------------------------------------------- *)

let test_vector_splat_store () =
  let out = Buffer_.create Src_type.F32 4 in
  ignore
    (run
       ~arrays:[ "out", out ]
       [
         M.Lfi (M.fpr 0, 2.5);
         M.Vsplat (Src_type.F32, M.vr 0, M.fpr 0);
         M.VStore (M.VM_aligned, Src_type.F32, M.plain_addr "out", M.vr 0);
       ]);
  check Alcotest.bool "all lanes" true
    (Buffer_.equal out (Buffer_.of_floats Src_type.F32 [| 2.5; 2.5; 2.5; 2.5 |]))

let test_vperm_realign () =
  (* Explicit AltiVec-style realignment of a misaligned f32 window. *)
  let a = f32s 12 in
  let out = Buffer_.create Src_type.F32 4 in
  ignore
    (run ~target:altivec
       ~arrays:[ "a", a; "out", out ]
       [
         (* window a[1..4]: lvx floors both loads; lvsr gives the token *)
         M.VLoad (M.VM_aligned, Src_type.F32,
                  M.vr 0, { (M.plain_addr "a") with M.disp = 4 });
         M.VLoad (M.VM_aligned, Src_type.F32,
                  M.vr 1, { (M.plain_addr "a") with M.disp = 20 });
         M.Lvsr (Src_type.F32, M.vr 2, { (M.plain_addr "a") with M.disp = 4 });
         M.Vperm (Src_type.F32, M.vr 3, M.vr 0, M.vr 1, M.vr 2);
         M.VStore (M.VM_aligned, Src_type.F32, M.plain_addr "out", M.vr 3);
       ]);
  check Alcotest.bool "realigned window" true
    (Buffer_.equal out (Buffer_.of_floats Src_type.F32 [| 1.; 2.; 3.; 4. |]))

let test_aligned_fault_on_sse () =
  let a = f32s 8 in
  match
    run ~target:sse ~arrays:[ "a", a ]
      [
        M.VLoad (M.VM_aligned, Src_type.F32, M.vr 0,
                 { (M.plain_addr "a") with M.disp = 4 });
      ]
  with
  | _ -> fail "expected alignment fault"
  | exception Simulator.Fault _ -> ()

let test_misaligned_load_on_sse () =
  let a = f32s 8 in
  let out = Buffer_.create Src_type.F32 4 in
  ignore
    (run ~target:sse
       ~arrays:[ "a", a; "out", out ]
       [
         M.VLoad (M.VM_misaligned, Src_type.F32, M.vr 0,
                  { (M.plain_addr "a") with M.disp = 4 });
         M.VStore (M.VM_aligned, Src_type.F32, M.plain_addr "out", M.vr 0);
       ]);
  check Alcotest.bool "movdqu window" true
    (Buffer_.equal out (Buffer_.of_floats Src_type.F32 [| 1.; 2.; 3.; 4. |]))

let test_extract_interleave () =
  (* extract stride-2 even/odd then interleave must reproduce the input *)
  let a = i32s 8 in
  let out = Buffer_.create Src_type.I32 8 in
  ignore
    (run
       ~arrays:[ "a", a; "out", out ]
       [
         M.VLoad (M.VM_aligned, Src_type.I32, M.vr 0, M.plain_addr "a");
         M.VLoad (M.VM_aligned, Src_type.I32, M.vr 1,
                  { (M.plain_addr "a") with M.disp = 16 });
         M.Vextract (Src_type.I32, 2, 0, M.vr 2, [ M.vr 0; M.vr 1 ]);
         M.Vextract (Src_type.I32, 2, 1, M.vr 3, [ M.vr 0; M.vr 1 ]);
         M.Vinterleave (M.Lo, Src_type.I32, M.vr 4, M.vr 2, M.vr 3);
         M.Vinterleave (M.Hi, Src_type.I32, M.vr 5, M.vr 2, M.vr 3);
         M.VStore (M.VM_aligned, Src_type.I32, M.plain_addr "out", M.vr 4);
         M.VStore (M.VM_aligned, Src_type.I32,
                   { (M.plain_addr "out") with M.disp = 16 }, M.vr 5);
       ]);
  check Alcotest.bool "interleave . extract = id" true (Buffer_.equal a out)

let test_unpack_pack_roundtrip () =
  let a = Buffer_.of_ints Src_type.I16 [| -3; 7; 1000; -1000; 5; 6; 7; 8 |] in
  let out = Buffer_.create Src_type.I16 8 in
  ignore
    (run
       ~arrays:[ "a", a; "out", out ]
       [
         M.VLoad (M.VM_aligned, Src_type.I16, M.vr 0, M.plain_addr "a");
         M.Vunpack (M.Lo, Src_type.I16, M.vr 1, M.vr 0);
         M.Vunpack (M.Hi, Src_type.I16, M.vr 2, M.vr 0);
         M.Vpack (Src_type.I32, M.vr 3, M.vr 1, M.vr 2);
         M.VStore (M.VM_aligned, Src_type.I16, M.plain_addr "out", M.vr 3);
       ]);
  check Alcotest.bool "pack . unpack = id" true (Buffer_.equal a out)

let test_dot_product () =
  let a = Buffer_.of_ints Src_type.I16 [| 1; 2; 3; 4; 5; 6; 7; 8 |] in
  let b = Buffer_.of_ints Src_type.I16 [| 1; 1; 2; 2; 3; 3; 4; 4 |] in
  let out = Buffer_.create Src_type.I32 4 in
  ignore
    (run
       ~arrays:[ "a", a; "b", b; "out", out ]
       [
         M.VLoad (M.VM_aligned, Src_type.I16, M.vr 0, M.plain_addr "a");
         M.VLoad (M.VM_aligned, Src_type.I16, M.vr 1, M.plain_addr "b");
         M.Li (M.gpr 0, 0);
         M.Vsplat (Src_type.I32, M.vr 2, M.gpr 0);
         M.Vdot (Src_type.I16, M.vr 3, M.vr 0, M.vr 1, M.vr 2);
         M.VStore (M.VM_aligned, Src_type.I32, M.plain_addr "out", M.vr 3);
       ]);
  (* pmaddwd semantics: [1*1+2*1, 3*2+4*2, 5*3+6*3, 7*4+8*4] *)
  check Alcotest.bool "pairwise products" true
    (Buffer_.equal out (Buffer_.of_ints Src_type.I32 [| 3; 14; 33; 60 |]))

let test_vreduce_and_insert () =
  let out = Buffer_.create Src_type.I32 1 in
  ignore
    (run
       ~arrays:[ "out", out ]
       [
         M.Li (M.gpr 0, 5);
         M.Viota (Src_type.I32, M.vr 0, M.gpr 0, 1) (* 5 6 7 8 *);
         M.Li (M.gpr 1, 100);
         M.Vinsert (Src_type.I32, M.vr 1, M.vr 0, 2, M.gpr 1) (* 5 6 100 8 *);
         M.Vreduce (Op.Max, Src_type.I32, M.gpr 2, M.vr 1);
         M.Store (Src_type.I32, M.plain_addr "out", M.gpr 2);
       ]);
  check Alcotest.int "max lane" 100 (Value.to_int (Buffer_.get out 0))

(* --- faults: the plan raises exactly what the reference raises ---------- *)

let out_of_memory = { (M.plain_addr "a") with M.disp = 1 lsl 20 }

(* (name, target, fuel, parameters, instructions); [run] checks the plan
   against the reference, the test that the reference does raise. *)
let fault_cases =
  let a = M.plain_addr "a" in
  let n_param = [ "n", Src_type.I32, Mfun.In_reg (M.gpr 0) ] in
  [
    "scalar load out of bounds", sse, None, [],
    [ M.Load (Src_type.I32, M.gpr 0, out_of_memory) ];
    "scalar store out of bounds", sse, None, [],
    [ M.Li (M.gpr 0, 1); M.Store (Src_type.I64, out_of_memory, M.gpr 0) ];
    "vector load out of bounds", sse, None, [],
    [ M.VLoad (M.VM_misaligned, Src_type.F32, M.vr 0, out_of_memory) ];
    "vector store out of bounds", sse, None, [],
    [
      M.Li (M.gpr 0, 7);
      M.Vsplat (Src_type.I16, M.vr 0, M.gpr 0);
      M.VStore (M.VM_misaligned, Src_type.I16, out_of_memory, M.vr 0);
    ];
    "undefined vector register", sse, None, [],
    [ M.Vop (Op.Add, Src_type.F32, M.vr 2, M.vr 0, M.vr 1) ];
    "undefined int lane source", sse, None, [],
    [ M.Vunpack (M.Lo, Src_type.I16, M.vr 2, M.vr 5) ];
    "undefined vector store", sse, None, [],
    [ M.VStore (M.VM_aligned, Src_type.I32, a, M.vr 3) ];
    "vinsert lane out of range", sse, None, [],
    [
      M.Li (M.gpr 0, 1);
      M.Vsplat (Src_type.I32, M.vr 0, M.gpr 0);
      M.Vinsert (Src_type.I32, M.vr 1, M.vr 0, 4, M.gpr 0);
    ];
    "vector store lane-count mismatch", sse, None, [],
    [
      M.VLoad (M.VM_aligned, Src_type.I32, M.vr 0, a);
      M.VStore (M.VM_aligned, Src_type.I16, a, M.vr 0);
    ];
    "lane class mismatch", sse, None, [],
    [
      M.VLoad (M.VM_aligned, Src_type.I32, M.vr 0, a);
      M.Vop (Op.Mul, Src_type.F32, M.vr 1, M.vr 0, M.vr 0);
    ];
    "missing scalar argument", sse, None, n_param, [ M.Li (M.gpr 1, 0) ];
    "integer Div by zero", sse, None, [],
    [
      M.Li (M.gpr 0, 5);
      M.Li (M.gpr 1, 0);
      M.Sop (Op.Div, Src_type.I32, M.gpr 2, M.gpr 0, M.gpr 1);
    ];
    "vector Div by zero", sse, None, [],
    [
      M.Li (M.gpr 0, 0);
      M.Vsplat (Src_type.I16, M.vr 0, M.gpr 0);
      M.Vop (Op.Div, Src_type.I16, M.vr 1, M.vr 0, M.vr 0);
    ];
    "widen of i64", sse, None, [],
    [
      M.VLoad (M.VM_aligned, Src_type.I64, M.vr 0, a);
      M.Vunpack (M.Hi, Src_type.I64, M.vr 1, M.vr 0);
    ];
    "fuel exhaustion", sse, Some 50, [],
    [ M.Li (M.gpr 0, 0); M.Label 0; M.Jmp 0 ];
    "aligned store misaligned on altivec", altivec, None, [],
    [
      M.Lfi (M.fpr 0, 1.0);
      M.Vsplat (Src_type.F32, M.vr 0, M.fpr 0);
      M.VStore (M.VM_aligned, Src_type.F32, { a with M.disp = 4 }, M.vr 0);
    ];
  ]

let test_faults () =
  List.iter
    (fun (name, target, fuel, params, instrs) ->
      match run_both ~target ?fuel ~params ~arrays:[ "a", i32s 16 ] instrs with
      | Ok _ -> fail (name ^ ": expected the reference to raise")
      | Error _ -> ())
    fault_cases

(* --- fuel: exhaustion mid-block faults where the reference does -------- *)

(* A loop of six basic blocks (entry, header, body, a part the body
   skips on early trips, latch, exit) that stores on every trip: at
   every fuel limit the plan must stop at the instruction the reference
   stops at, with the same fault text and the same memory written so
   far. *)
let test_fuel_every_position () =
  let a = M.plain_addr "a" in
  let instrs =
    [
      M.Li (M.gpr 0, 0);
      M.Li (M.gpr 1, 5);
      M.Li (M.gpr 2, 1);
      M.Li (M.gpr 3, 2);
      M.Label 0;
      M.Br (Op.Ge, M.gpr 0, M.gpr 1, 1);
      M.Store (Src_type.I32, { a with M.index = Some (M.gpr 0); scale = 4 }, M.gpr 0);
      M.Br (Op.Lt, M.gpr 0, M.gpr 3, 2);
      M.Vsplat (Src_type.I32, M.vr 0, M.gpr 0);
      M.VStore (M.VM_misaligned, Src_type.I32, { a with M.disp = 32 }, M.vr 0);
      M.Label 2;
      M.Sop (Op.Add, Src_type.I32, M.gpr 0, M.gpr 0, M.gpr 2);
      M.Jmp 0;
      M.Label 1;
      M.Store (Src_type.I32, { a with M.disp = 60 }, M.gpr 0);
    ]
  in
  let total = (run ~arrays:[ "a", i32s 16 ] instrs).Simulator.r_instructions in
  for fuel = 0 to total do
    match run_both ~fuel ~arrays:[ "a", i32s 16 ] instrs with
    | Ok _ when fuel < total - 1 -> fail (Printf.sprintf "fuel %d: no fault" fuel)
    | Error (Simulator.Fault _) when fuel < total - 1 -> ()
    | Error e -> fail (Printf.sprintf "fuel %d: %s" fuel (Printexc.to_string e))
    | Ok _ -> ()
  done

(* --- f32 rounding ------------------------------------------------------- *)

(* The plan rounds to f32 through its float32 cell; that must equal the
   Int32 round trip bit for bit.  [Cvt] f64 -> f32 rounds a register, and
   an f64 store writes the result's bits out. *)
let plan_rounded xs =
  let n = Array.length xs in
  let out = M.plain_addr "out" in
  let instrs =
    List.concat
      (List.init n (fun i ->
           [
             M.Lfi (M.fpr 0, xs.(i));
             M.Cvt (Src_type.F64, Src_type.F32, M.fpr 1, M.fpr 0);
             M.Store (Src_type.F64, { out with M.disp = 8 * i }, M.fpr 1);
           ]))
  in
  let arrays = [ "out", Buffer_.create Src_type.F64 n ] in
  let layout = Layout.plan ~policy:Layout.aligned_policy arrays in
  let mem = Layout.materialize layout arrays in
  ignore
    (Simulator.run_plan (Simulator.prepare ~target:sse (mfun instrs)) layout mem
       ~scalar_args:[]);
  let base = Layout.base_of layout "out" in
  Array.init n (fun i -> Bytes.get_int64_le mem (base + (8 * i)))

let int32_rounded x =
  Int64.bits_of_float (Int32.float_of_bits (Int32.bits_of_float x))

let rounding_agrees xs =
  let got = plan_rounded xs in
  Array.for_all2 (fun x g -> Int64.equal (int32_rounded x) g) xs got

let test_rounding_edges () =
  let bits = Int64.float_of_bits in
  let edges =
    [|
      0.0; -0.0; infinity; neg_infinity; nan; -.nan;
      bits 0x7ff0000000000001L (* signalling NaN, low payload *);
      bits 0x7ff8000000abcdefL; bits 0xfff4000000000000L;
      Float.min_float; 5e-324 (* f64 subnormal *); 1e-45; 1.4e-45;
      7e-46 (* rounds to the smallest f32 subnormal or zero *);
      1.1754942e-38 (* f32 subnormal *); 3.4028234663852886e38 (* f32 max *);
      3.4028235677973366e38 (* overflows to infinity *); 1e39; -1e39;
      Float.max_float; 1.0 /. 3.0; 0.1; 16777217.0; -16777217.0;
      Float.pred 1.0; Float.succ 1.0;
    |]
  in
  Array.iter
    (fun x ->
      let got = (plan_rounded [| x |]).(0) in
      if not (Int64.equal got (int32_rounded x)) then
        fail (Printf.sprintf "rounding %h: got %Lx, want %Lx" x got (int32_rounded x)))
    edges

let prop_rounding =
  QCheck.Test.make ~count:200 ~name:"f32 rounding = Int32 round trip"
    QCheck.(make ~print:(fun a -> String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") a)))
       Gen.(array_size (return 64) (map Int64.float_of_bits ui64)))
    rounding_agrees

(* --- the register file: a differential generator ----------------------- *)

(* Random straight-line and looped sequences of the plan's vector, spill
   and move instructions over four vector registers and four spill slots,
   run through [Simulator.run] and [run_plan] on copies of one memory
   image.  The small register file makes destinations equal to sources,
   registers reused at other lane types, overwritten spill and move
   sources, undefined reads and lane-count mismatches common. *)

let gen_vreg = QCheck.Gen.map M.vr (QCheck.Gen.int_range 0 3)

let gen_ty =
  QCheck.Gen.oneofl
    Src_type.[ I8; U8; I16; U16; I32; U32; I64; F32; F64 ]

(* mostly aligned, in-bounds vector addresses into [a] (256 bytes) *)
let gen_vaddr =
  QCheck.Gen.(
    map
      (fun d -> { (M.plain_addr "a") with M.disp = d })
      (frequency
         [ 8, map (fun k -> 16 * k) (int_range 0 14); 1, int_range 0 250;
           1, return 256 ]))

(* One instruction, or a realignment pair, its lane types drawn from
   [ty]. *)
let gen_vinstrs ty =
  let open QCheck.Gen in
  let r = gen_vreg in
  let scalar_int = oneofl [ M.gpr 1; M.gpr 2 ]
  and scalar_fp = oneofl [ M.fpr 0; M.fpr 1 ] in
  let scalar_for t = if Src_type.is_float t then scalar_fp else scalar_int in
  let binop =
    oneofl Op.[ Add; Sub; Mul; Min; Max; And; Or; Xor; Eq; Lt; Ge; Div ]
  in
  let cmp = oneofl Op.[ Eq; Ne; Lt; Le; Gt; Ge ] in
  let half = oneofl M.[ Lo; Hi ] in
  let kind = frequency [ 3, return M.VM_aligned; 1, return M.VM_misaligned ] in
  let realign =
    (* a token from a misaligned address, then the permute reading it *)
    map3
      (fun t (tok, d) ((a, b), disp) ->
        let addr = { (M.plain_addr "a") with M.disp } in
        [ M.Lvsr (t, tok, addr); M.Vperm (t, d, a, b, tok) ])
      ty (pair r r) (pair (pair r r) (int_range 0 47))
  in
  let single =
    frequency
    [
      4, map3 (fun k t (d, a) -> M.VLoad (k, t, d, a)) kind ty (pair r gen_vaddr);
      3, map3 (fun k t (a, s) -> M.VStore (k, t, a, s)) kind ty (pair gen_vaddr r);
      4, map3 (fun op t (d, a, b) -> M.Vop (op, t, d, a, b)) binop ty (triple r r r);
      1, map3 (fun op t (d, s) -> M.Vunop (op, t, d, s))
           (oneofl Op.[ Neg; Abs; Not; Sqrt ]) ty (pair r r);
      1, map3 (fun op t (d, s) -> M.Vshift (op, t, d, s, M.gpr 1))
           (oneofl Op.[ Shl; Shr ]) ty (pair r r);
      2, (ty >>= fun t -> map2 (fun d s -> M.Vsplat (t, d, s)) r (scalar_for t));
      1, (ty >>= fun t ->
          map3 (fun (d, v) n s -> M.Vinsert (t, d, v, n, s)) (pair r r)
            (int_range 0 4) (scalar_for t));
      1, (pair binop ty >>= fun (op, t) ->
          map2 (fun d s -> M.Vreduce (op, t, d, s)) (scalar_for t) r);
      2, map3 (fun h t (d, s) -> M.Vunpack (h, t, d, s)) half ty (pair r r);
      2, map2 (fun t (d, a, b) -> M.Vpack (t, d, a, b)) ty (triple r r r);
      1, map3 (fun t1 t2 (d, s) -> M.Vcvt (t1, t2, d, s)) ty gen_ty (pair r r);
      2, map3
           (fun (t, stride) offset (d, parts) -> M.Vextract (t, stride, offset, d, parts))
           (pair ty (int_range 1 3)) (int_range 0 3)
           (pair r (list_size (int_range 1 3) r));
      1, map3 (fun h t (d, a, b) -> M.Vinterleave (h, t, d, a, b)) half ty (triple r r r);
      2, map3 (fun h t (d, a, b) -> M.Vwidenmul (h, t, d, a, b)) half ty (triple r r r);
      2, map2 (fun t ((d, a), (b, c)) -> M.Vdot (t, d, a, b, c)) ty
           (pair (pair r r) (pair r r));
      1, map3 (fun op t (d, a, b) -> M.Vcmp (op, t, d, a, b)) cmp ty (triple r r r);
      1, map2 (fun t ((d, m), (a, b)) -> M.Vsel (t, d, m, a, b)) ty
           (pair (pair r r) (pair r r));
      1, map2 (fun t (d, a) -> M.Lvsr (t, d, a)) ty (pair r gen_vaddr);
      1, map2 (fun t ((d, a), (b, tok)) -> M.Vperm (t, d, a, b, tok)) ty
           (pair (pair r r) (pair r r));
      3, map2 (fun d s -> M.Mov (d, s)) r r;
      3, map2 (fun slot s -> M.VSpill (slot, s)) (int_range 0 3) r;
      3, map2 (fun d slot -> M.VReload (d, slot)) r (int_range 0 3);
      1, map2 (fun d v -> M.Li (d, v)) scalar_int (int_range (-300) 300);
      1, map2 (fun d v -> M.Lfi (d, v)) scalar_fp (float_range (-1e3) 1e3);
    ]
  in
  frequency [ 1, realign; 20, map (fun i -> [ i ]) single ]

(* A case: the body, and how often a loop around it runs (none: the body
   runs once, straight-line).  A loop also branches over its second half
   on odd trips, so it has four blocks. *)
type vcase = {
  vc_trips : int option;
  vc_body : M.t list;
}

let vcase_instrs c =
  match c.vc_trips with
  | None -> c.vc_body
  | Some trips ->
    let k = List.length c.vc_body / 2 in
    let first = List.filteri (fun i _ -> i < k) c.vc_body
    and second = List.filteri (fun i _ -> i >= k) c.vc_body in
    [ M.Li (M.gpr 6, 0); M.Li (M.gpr 7, trips); M.Li (M.gpr 5, 1); M.Label 0 ]
    @ first
    @ [
        M.Sop (Op.And, Src_type.I64, M.gpr 4, M.gpr 6, M.gpr 5);
        M.Br (Op.Ne, M.gpr 4, M.gpr 3, 1);
      ]
    @ second
    @ [
        M.Label 1;
        M.Sop (Op.Add, Src_type.I64, M.gpr 6, M.gpr 6, M.gpr 5);
        M.Br (Op.Lt, M.gpr 6, M.gpr 7, 0);
      ]

let vcase_arrays () =
  [ "a", Buffer_.init Src_type.I32 64 (fun i -> Value.Int ((i * 7919) - 200_000 + (i land 3))) ]

(* [None] when the engines agree, else what differed. *)
let vcase_disagreement c =
  let _, (mem, r), (pmem, p) =
    engines ~n_vr:4 ~arrays:(vcase_arrays ()) (vcase_instrs c)
  in
  let outcome = function
    | Ok r ->
      Printf.sprintf "%d cycles, %d instructions" r.Simulator.r_cycles
        r.Simulator.r_instructions
    | Error e -> Printexc.to_string e
  in
  if outcome r <> outcome p then
    Some (Printf.sprintf "reference: %s; plan: %s" (outcome r) (outcome p))
  else if not (Bytes.equal mem pmem) then Some "memory differs"
  else None

let print_vcase c =
  Printf.sprintf "trips %s:\n%s"
    (match c.vc_trips with None -> "none" | Some n -> string_of_int n)
    (String.concat "\n" (List.map M.to_string c.vc_body))

(* Each case draws most lane types from one type and its widening and
   narrowing partners, and starts by loading every vector register and
   setting the scalars, so that chains of packs, unpacks and widening
   products are well-typed often enough to reach a store. *)
let arb_vcase =
  let open QCheck in
  let gen =
    Gen.(
      gen_ty >>= fun t ->
      let near = t :: List.filter_map Fun.id [ Src_type.widen t; Src_type.narrow t ] in
      let ty = frequency [ 8, return t; 3, oneofl near; 1, gen_ty ] in
      let load v =
        map2
          (fun t k -> M.VLoad (M.VM_aligned, t, M.vr v, { (M.plain_addr "a") with M.disp = 16 * k }))
          ty (int_range 0 14)
      in
      let prologue =
        flatten_l
          [
            load 0; load 1; load 2; load 3;
            map (fun v -> M.Li (M.gpr 1, v)) (int_range (-40) 40);
            map (fun v -> M.Li (M.gpr 2, v)) (int_range 1 9);
            map (fun v -> M.Lfi (M.fpr 0, v)) (float_range (-8.) 8.);
          ]
      in
      map3
        (fun trips pro body -> { vc_trips = trips; vc_body = pro @ body })
        (frequency [ 2, return None; 1, map Option.some (int_range 1 4) ])
        prologue
        (map List.concat (list_size (int_range 1 30) (gen_vinstrs ty))))
  in
  let shrink c =
    Iter.(
      map (fun body -> { c with vc_body = body }) (Shrink.list c.vc_body)
      <+> (match c.vc_trips with
          | None -> empty
          | Some _ -> return { c with vc_trips = None }))
  in
  make ~print:print_vcase ~shrink gen

let prop_register_file =
  QCheck.Test.make ~count:20000 ~name:"plan = reference on random vector code"
    arb_vcase (fun c ->
      match vcase_disagreement c with
      | None -> true
      | Some why -> QCheck.Test.fail_report why)

(* Shrunk counterexamples, kept as named regressions. *)
let named_vcases =
  let r = M.vr and a = M.plain_addr "a" in
  [
    (* a pack whose destination is its second source: lane 0 of [b] is
       overwritten before it is read *)
    ( "pack into its second source",
      {
        vc_trips = None;
        vc_body =
          [
            M.VLoad (M.VM_aligned, Src_type.I32, r 0, a);
            M.VLoad (M.VM_aligned, Src_type.I32, r 1, { a with M.disp = 16 });
            M.Vpack (Src_type.I32, r 1, r 0, r 1);
            M.VStore (M.VM_aligned, Src_type.I16, a, r 1);
          ];
      } );
    (* an extract reading its destination's low lanes after writing them *)
    ( "extract from its own destination",
      {
        vc_trips = None;
        vc_body =
          [
            M.VLoad (M.VM_aligned, Src_type.I16, r 2, { a with M.disp = 32 });
            M.VLoad (M.VM_aligned, Src_type.I16, r 0, a);
            M.Vextract (Src_type.I16, 3, 1, r 0, [ r 2; r 0 ]);
            M.VStore (M.VM_aligned, Src_type.I16, a, r 0);
          ];
      } );
    (* a spill, then an overwrite of the spilled register, then a reload *)
    ( "reload after the source is overwritten",
      {
        vc_trips = Some 2;
        vc_body =
          [
            M.VLoad (M.VM_aligned, Src_type.F32, r 0, a);
            M.VSpill (1, r 0);
            M.Mov (r 3, r 0);
            M.VLoad (M.VM_aligned, Src_type.I8, r 0, { a with M.disp = 48 });
            M.VReload (r 1, 1);
            M.Vop (Op.Add, Src_type.F32, r 2, r 1, r 3);
            M.VStore (M.VM_misaligned, Src_type.F32, { a with M.disp = 4 }, r 2);
          ];
      } );
    (* one register at three lane types, then read at too many lanes *)
    ( "lane-count mismatch after a widening",
      {
        vc_trips = None;
        vc_body =
          [
            M.VLoad (M.VM_aligned, Src_type.I8, r 0, a);
            M.Vunpack (M.Hi, Src_type.I8, r 0, r 0);
            M.Vunpack (M.Lo, Src_type.I16, r 0, r 0);
            M.Vop (Op.Add, Src_type.I16, r 1, r 0, r 0);
          ];
      } );
    (* a permute whose destination is its second source: with token 1,
       lane 1 reads lane 0 of [b] after lane 0 of the result replaced it *)
    ( "permute into its second source",
      {
        vc_trips = None;
        vc_body =
          [
            M.VLoad (M.VM_aligned, Src_type.I64, r 0, { a with M.disp = 96 });
            M.VLoad (M.VM_aligned, Src_type.I32, r 2, { a with M.disp = 80 });
            M.Lvsr (Src_type.I64, r 1, { a with M.disp = 25 });
            M.Vperm (Src_type.I64, r 2, r 0, r 2, r 1);
            M.VStore (M.VM_misaligned, Src_type.I64, a, r 2);
          ];
      } );
    (* found by the generator: the lanes of an extract run past its one
       part, so the plan must leave the fault to [exec] (it raised
       "index out of bounds" while preparing instead) *)
    ( "extract past its parts",
      {
        vc_trips = None;
        vc_body = [ M.Vextract (Src_type.I32, 2, 2, r 1, [ r 2 ]) ];
      } );
    ( "reload of an undefined slot, then a read",
      {
        vc_trips = None;
        vc_body = [ M.VReload (r 2, 3); M.Mov (r 1, r 2) ];
      } );
  ]

let test_named_vcases () =
  List.iter
    (fun (name, c) ->
      match vcase_disagreement c with
      | None -> ()
      | Some why -> fail (name ^ ": " ^ why))
    named_vcases

(* --- allocation per run does not grow with executed instructions ------- *)

(* Every suite kernel, mono and gcc4cli, on the targets whose code the
   plan runs without [exec]: minor words of one [run_plan] (after a first
   run built the plan's state) are equal at scale 1 and scale 2, though
   scale 2 executes about twice the instructions.  Not sve or avx512:
   their predicated tails (VMaskedLoad, VMaskedStore) run [exec], which
   allocates per execution. *)
let test_allocation_flat () =
  let module Suite = Vapor_kernels.Suite in
  let module Flows = Vapor_harness.Flows in
  let module Exec = Vapor_harness.Exec in
  let module Compile = Vapor_jit.Compile in
  let module Profile = Vapor_jit.Profile in
  let words (plan : Simulator.plan) (entry : Suite.entry) scale =
    let arrays, scalars = Exec.split_args (entry.Suite.args ~scale) in
    let layout =
      Layout.plan ~stack_bytes:65536 ~policy:Layout.aligned_policy arrays
    in
    let mem = Layout.materialize layout arrays in
    let warm = Bytes.copy mem in
    ignore (Simulator.run_plan plan layout warm ~scalar_args:scalars);
    let w0 = Gc.minor_words () in
    let r = Simulator.run_plan plan layout mem ~scalar_args:scalars in
    Gc.minor_words () -. w0, r.Simulator.r_instructions
  in
  List.iter
    (fun (target : Target.t) ->
      List.iter
        (fun (profile : Profile.t) ->
          List.iter
            (fun name ->
              let entry = Suite.find name in
              let vk =
                (Flows.vectorized_bytecode entry).Vapor_vectorizer.Driver.vkernel
              in
              let plan = (Compile.compile ~target ~profile vk).Compile.plan in
              let w1, n1 = words plan entry 1 and w2, n2 = words plan entry 2 in
              if w1 <> w2 || n2 <= n1 then
                fail
                  (Printf.sprintf
                     "%s %s %s: %.0f minor words over %d instructions at scale \
                      1, %.0f over %d at scale 2"
                     target.Target.name profile.Profile.name name w1 n1 w2 n2))
            Suite.names)
        [ Profile.mono; Profile.gcc4cli ])
    [
      Vapor_targets.Scalar_target.target; sse; Vapor_targets.Avx.target;
      Vapor_targets.Neon.target; altivec;
    ]

(* --- cycle accounting --------------------------------------------------- *)

let test_cycles_charged () =
  let r1 =
    run [ M.Li (M.gpr 0, 1); M.Li (M.gpr 1, 2);
          M.Sop (Op.Mul, Src_type.I32, M.gpr 2, M.gpr 0, M.gpr 1) ]
  in
  check Alcotest.int "mul is 3 cycles + 2 moves" 5 r1.Simulator.r_cycles;
  let r2 = run [ M.Li (M.gpr 0, 1) ] in
  check Alcotest.int "li is 1 cycle" 1 r2.Simulator.r_cycles

let test_x87_penalty () =
  let instrs =
    [ M.Lfi (M.fpr 0, 1.0); M.Sop (Op.Add, Src_type.F32, M.fpr 1, M.fpr 0, M.fpr 0) ]
  in
  let fast = run instrs in
  let slow = run ~fp_unit:Mfun.Fp_x87 instrs in
  check Alcotest.bool "x87 scalar FP costs more" true
    (slow.Simulator.r_cycles > fast.Simulator.r_cycles)

(* --- register allocation under pressure --------------------------------- *)

(* reg_fraction 0.01: the five-register floor in every class, which leaves
   two allocatable GPRs and FPRs and one vector register beside the
   scratch registers. *)
let starved =
  { Vapor_jit.Profile.gcc4cli with
    Vapor_jit.Profile.name = "starved"; reg_fraction = 0.01 }

(* Differential: a suite kernel compiled with a starving register budget
   must compute the same results as with a generous one. *)
let test_regalloc_pressure () =
  let module Suite = Vapor_kernels.Suite in
  let module Flows = Vapor_harness.Flows in
  List.iter
    (fun name ->
      let entry = Suite.find name in
      let copy args =
        List.map
          (fun (n, a) ->
            match a with
            | Eval.Scalar v -> n, Eval.Scalar v
            | Eval.Array b -> n, Eval.Array (Buffer_.copy b))
          args
      in
      let ref_args = entry.Suite.args ~scale:1 in
      ignore (Eval.run (Suite.kernel entry) ~args:ref_args);
      let got = copy (entry.Suite.args ~scale:1) in
      let entry' =
        { entry with Suite.args = (fun ~scale -> ignore scale; got) }
      in
      let r = Flows.split_vector ~target:sse ~profile:starved entry' ~scale:1 in
      ignore r;
      List.iter2
        (fun (n, b1) (_, b2) ->
          if not (Buffer_.close ~eps:1e-3 b1 b2) then
            fail (name ^ ": array " ^ n ^ " differs under register pressure"))
        (Suite.arrays_of_args ref_args)
        (Suite.arrays_of_args got))
    [ "convolve_s32"; "dct_s32fp"; "interp_s16"; "gemver_fp"; "sad_s8" ]

let test_regalloc_spill_cost () =
  (* Starving the allocator must produce spill traffic: more cycles. *)
  let module Suite = Vapor_kernels.Suite in
  let module Flows = Vapor_harness.Flows in
  let entry = Suite.find "convolve_s32" in
  let a = Flows.split_vector ~target:sse ~profile:starved entry ~scale:1 in
  let b =
    Flows.split_vector ~target:sse ~profile:Vapor_jit.Profile.gcc4cli entry
      ~scale:1
  in
  check Alcotest.bool "spills cost cycles" true (a.Flows.cycles > b.Flows.cycles)

(* --- register allocation: decisions pinned --------------------------------

   Every field [Regalloc.run] sets (instructions, register counts,
   parameter locations, stack bytes, vector spill slots) or the text of
   the exception it raises, digested per (profile, target) over the
   whole suite after lower -> emit.  The goldens were computed with the
   hash-table allocator this one replaced; a digest that moves means the
   allocator made a different decision somewhere, which a change must
   own and explain.  The fleet's sve resolves to 256 bits, so SVE is
   also pinned at 128 and 512. *)

let golden_profiles =
  let module Profile = Vapor_jit.Profile in
  [ Profile.mono; Profile.gcc4cli; Profile.native; Profile.avx_split; starved ]

let golden_targets =
  let sve = Vapor_targets.Sve.target in
  List.map (fun t -> Target.resolve t) Vapor_targets.Scalar_target.all
  @ [ Target.resolve ~vl:16 sve; Target.resolve ~vl:64 sve ]

(* The budget [Compile.compile] hands the allocator. *)
let budget_for ~(target : Target.t) ~(profile : Vapor_jit.Profile.t) =
  let cap n =
    let fraction = profile.Vapor_jit.Profile.reg_fraction in
    max 5 (int_of_float (float_of_int n *. fraction))
  in
  {
    Regalloc.b_gpr = cap target.Target.gprs;
    b_fpr = cap target.Target.fprs;
    b_vr = cap target.Target.vrs;
  }

(* The function [Compile.compile] hands the allocator: lower, then emit. *)
let emitted ~target ~profile vk =
  let an =
    Vapor_jit.Lower.analyze ~target ~profile
      ~known_aligned:(fun _ -> true)
      ~known_disjoint:(fun _ _ -> true)
      vk
  in
  fst (Vapor_jit.Emit.run ~target ~profile ~an vk)

let allocation_text (f : Mfun.t) =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Mfun.to_string f);
  List.iter
    (fun (name, sty, loc) ->
      Printf.bprintf b "param %s %s %s\n" name (Src_type.to_string sty)
        (match loc with
        | Mfun.In_reg r -> M.reg_to_string r
        | Mfun.In_stack (ty, off) ->
          Printf.sprintf "stack %s %d" (Src_type.to_string ty) off))
    f.Mfun.param_regs;
  Printf.bprintf b "vspill %d\n" f.Mfun.n_vspill;
  Buffer.contents b

let allocation_digest ~target ~profile =
  let module Suite = Vapor_kernels.Suite in
  let b = Buffer.create (1 lsl 16) in
  List.iter
    (fun (entry : Suite.entry) ->
      let vk =
        (Vapor_harness.Flows.vectorized_bytecode entry)
          .Vapor_vectorizer.Driver.vkernel
      in
      Printf.bprintf b "kernel %s\n" entry.Suite.name;
      Buffer.add_string b
        (match
           Regalloc.run target
             (budget_for ~target ~profile)
             (emitted ~target ~profile vk)
         with
        | f -> allocation_text f
        | exception e -> "raised " ^ Printexc.to_string e ^ "\n"))
    Suite.all;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* (profile, target, digest) *)
let golden_allocations =
  [
    "mono", "sse", "21db87d72505459d9ce444677953a8a9";
    "mono", "altivec", "d0226389355068cfd46848cb35d8b8b7";
    "mono", "neon", "0d16e356ddabf88ee997014a0952adaa";
    "mono", "avx", "2d1e732bed0a501af3b4e6e97098d57f";
    "mono", "sve256", "8c6ac13c7e0a469d59e6d702ccc1c1da";
    "mono", "avx512", "386d0cbd3cf205c646cf86c19cd7dd43";
    "mono", "scalar", "b0ea14682583124b016e76fe32a93422";
    "mono", "sve128", "702df7587a6843863fa5840075aa7377";
    "mono", "sve512", "93f08b89c909a21a0de4a9490609fa23";
    "gcc4cli", "sse", "37c7210df13c5b6a31f1c98dedc1b7f5";
    "gcc4cli", "altivec", "dfbda6f6640d4393ba0dd44725d7b332";
    "gcc4cli", "neon", "ae8e0e5354541da48caeae528f4a1664";
    "gcc4cli", "avx", "501bc5e0a7a947ec2cbd83efbf444a4f";
    "gcc4cli", "sve256", "5e998f38e3f15c587f770313fbf7c33b";
    "gcc4cli", "avx512", "dbbd62557a7ef6a21f2dde5ae11d3afb";
    "gcc4cli", "scalar", "5a1560b7c3706468b2fa456fe88ffc80";
    "gcc4cli", "sve128", "149fd711e6cd2512a12cd4603cd50d3c";
    "gcc4cli", "sve512", "b58ca8ed207e99eaf079d5b92aed14d4";
    "native", "sse", "218e06a5fa0e5f945c9165ceaa93e6ae";
    "native", "altivec", "17253028d6ad6346cce2905f76834d80";
    "native", "neon", "2988ce53c2ea929f219f775400ed8739";
    "native", "avx", "501bc5e0a7a947ec2cbd83efbf444a4f";
    "native", "sve256", "8ab1dd4f913b75b37effccb50131e353";
    "native", "avx512", "8fd333cbac557ddc903d68a6ba658eb6";
    "native", "scalar", "5a1560b7c3706468b2fa456fe88ffc80";
    "native", "sve128", "c6601dab8039a8da87bab5d55a7d6b85";
    "native", "sve512", "07b5bcfd6aa6251fe7d59566563071ed";
    "avx-split", "sse", "e3e811d7c457cfdf4b821a0d8ea064b3";
    "avx-split", "altivec", "ab79d4325441027b8241a798094ad92a";
    "avx-split", "neon", "898b5c17b9df74c45219a5a58aa57c01";
    "avx-split", "avx", "8cfa0cca5a5df988bbcd7288f39c53fe";
    "avx-split", "sve256", "637ae386e774c627b711ba6a4521a2a6";
    "avx-split", "avx512", "f07a9166a101b058813c8644b49ec45c";
    "avx-split", "scalar", "5a1560b7c3706468b2fa456fe88ffc80";
    "avx-split", "sve128", "bf50973b1c4f2254894636bbeec684f0";
    "avx-split", "sve512", "7318543cbbafede9db196ea30a93bb52";
    "starved", "sse", "a41f71cdf5030a223d6837b524e9cc38";
    "starved", "altivec", "a7d2ff35c3a32f15a8ab77abe3fdccda";
    "starved", "neon", "6acad62c12d5fe5f68974233222cd975";
    "starved", "avx", "41504305af41a4c29fd314317c04779a";
    "starved", "sve256", "e85c88e7152d1e4a01afb63965fa4c8e";
    "starved", "avx512", "f64c6d95bd95f2791900c3e7e43640b1";
    "starved", "scalar", "577895b17169d1e3f61eb6bb391a3482";
    "starved", "sve128", "acf61e6d7bf42938a506b36bc20e279f";
    "starved", "sve512", "f64c6d95bd95f2791900c3e7e43640b1";
  ]

let test_regalloc_golden () =
  let moved =
    List.concat_map
      (fun (profile : Vapor_jit.Profile.t) ->
        List.filter_map
          (fun (target : Target.t) ->
            let p = profile.Vapor_jit.Profile.name
            and t = target.Target.name in
            let got = allocation_digest ~target ~profile in
            match
              List.find_opt
                (fun (p', t', _) -> p = p' && t = t')
                golden_allocations
            with
            | Some (_, _, want) when String.equal want got -> None
            | Some _ | None -> Some (Printf.sprintf "    %S, %S, %S;" p t got))
          golden_targets)
      golden_profiles
  in
  if moved <> [] then
    fail
      ("allocator decisions moved; digests now read:\n"
      ^ String.concat "\n" moved)

(* With registers to spare, a function already numbered densely in first
   occurrence order comes back unchanged.  Forty four-operand [Cmov]s hold
   more operands than the allocator first reserves room for, so its
   operand buffer grows mid-function. *)
let test_regalloc_identity () =
  let r = M.gpr in
  let instrs =
    [ M.Li (r 0, 1); M.Li (r 1, 2); M.Li (r 2, 3); M.Li (r 3, 4) ]
    @ List.init 40 (fun _ -> M.Cmov (r 0, r 1, r 2, r 3))
  in
  let f = mfun instrs in
  let out =
    Regalloc.run sse { Regalloc.b_gpr = 64; b_fpr = 8; b_vr = 8 } f
  in
  check Alcotest.bool "instructions unchanged" true
    (out.Mfun.instrs = f.Mfun.instrs);
  check Alcotest.int "no spill area" 0 out.Mfun.stack_bytes

(* Four spilled registers in one instruction exceed the three GPR scratch
   registers: the allocator raises, and [Compile.classify] turns that into
   scalarize-on-failure.  With one allocatable GPR, r9 (ending soonest)
   evicts r0 and r1..r3 spill on arrival. *)
let test_regalloc_out_of_scratch () =
  let r = M.gpr in
  let out = M.plain_addr "out" in
  let f =
    mfun
      [
        M.Li (r 0, 1);
        M.Li (r 1, 2);
        M.Li (r 2, 3);
        M.Li (r 9, 4);
        M.Cmov (r 3, r 0, r 1, r 2);
        M.Store (Src_type.I32, out, r 9);
        M.Store (Src_type.I32, out, r 0);
        M.Store (Src_type.I32, out, r 1);
        M.Store (Src_type.I32, out, r 2);
        M.Store (Src_type.I32, out, r 3);
      ]
  in
  match Regalloc.run sse { Regalloc.b_gpr = 4; b_fpr = 8; b_vr = 8 } f with
  | _ -> fail "expected scratch exhaustion"
  | exception Invalid_argument msg ->
    check Alcotest.string "message" "regalloc: out of scratch registers" msg

(* Allocation per input instruction does not grow with the function: the
   N-copies shape at N = 128 allocates within 10% of N = 8, per
   instruction, in the minor heap (the allocator's own arrays are reused,
   so what it allocates is its output). *)
let test_regalloc_growth () =
  let module Profile = Vapor_jit.Profile in
  let module Jit_report = Vapor_harness.Jit_report in
  let words_per_instr n =
    let vk = Jit_report.shape_bytecode Jit_report.Copies n in
    let target = sse and profile = Profile.mono in
    let f = emitted ~target ~profile vk in
    let budget = budget_for ~target ~profile in
    ignore (Regalloc.run target budget f);
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Regalloc.run target budget f));
    (Gc.minor_words () -. w0) /. float_of_int (Array.length f.Mfun.instrs)
  in
  let small = words_per_instr 8 and large = words_per_instr 128 in
  if Float.abs ((large /. small) -. 1.0) > 0.10 then
    fail
      (Printf.sprintf
         "minor words per instruction: %.1f at N=8, %.1f at N=128" small
         large)

(* --- layout ------------------------------------------------------------- *)

let test_layout_placement () =
  let a = f32s 4 and b = f32s 4 in
  let layout =
    Layout.plan
      ~policy:(fun name -> if name = "b" then Layout.Offset 3 else Layout.Aligned)
      [ "a", a; "b", b ]
  in
  check Alcotest.int "a aligned" 0 (Layout.base_of layout "a" mod 32);
  check Alcotest.int "b offset" 3 (Layout.base_of layout "b" mod 32);
  let mem = Layout.materialize layout [ "a", a; "b", b ] in
  check
    (Alcotest.float 0.0)
    "b readable at its offset" 1.0
    (Value.to_float
       (Layout.read_value mem Src_type.F32 (Layout.base_of layout "b" + 4)))

let test_layout_roundtrip () =
  let bufs =
    [
      "x", i32s 7;
      "y", f32s 5;
      "z", Buffer_.of_ints Src_type.I8 [| 1; -2; 3 |];
    ]
  in
  let layout = Layout.plan ~policy:Layout.aligned_policy bufs in
  let mem = Layout.materialize layout bufs in
  let copies =
    List.map (fun (n, b) -> n, Buffer_.create b.Buffer_.elem (Buffer_.length b)) bufs
  in
  Layout.read_back layout mem copies;
  List.iter2
    (fun (n, b1) (_, b2) ->
      check Alcotest.bool (n ^ " roundtrips") true (Buffer_.equal b1 b2))
    bufs copies

(* --- IACA --------------------------------------------------------------- *)

let test_iaca_innermost () =
  let f =
    mfun
      [
        M.Li (M.gpr 0, 0);
        M.Label 0;
        M.Br (Op.Ge, M.gpr 0, M.gpr 1, 1);
        (* inner loop with vector work *)
        M.Label 2;
        M.Br (Op.Ge, M.gpr 2, M.gpr 3, 3);
        M.VLoad (M.VM_aligned, Src_type.F32, M.vr 0, M.plain_addr "a");
        M.Vop (Op.Add, Src_type.F32, M.vr 1, M.vr 0, M.vr 0);
        M.VStore (M.VM_aligned, Src_type.F32, M.plain_addr "a", M.vr 1);
        M.Sop (Op.Add, Src_type.I32, M.gpr 2, M.gpr 2, M.gpr 4);
        M.Jmp 2;
        M.Label 3;
        M.Sop (Op.Add, Src_type.I32, M.gpr 0, M.gpr 0, M.gpr 4);
        M.Jmp 0;
        M.Label 1;
      ]
  in
  let regions = Iaca.innermost_regions sse f in
  check Alcotest.int "one innermost region" 1 (List.length regions);
  match Iaca.vector_loop_cycles sse f with
  | Some c -> check Alcotest.bool "positive cycle estimate" true (c >= 1.0)
  | None -> fail "expected a vector loop"

let () =
  Alcotest.run "machine"
    [
      ( "scalar",
        [
          Alcotest.test_case "wrap" `Quick test_scalar_wrap;
          Alcotest.test_case "addressing" `Quick test_addressing_modes;
          Alcotest.test_case "loop" `Quick test_branching_loop;
          Alcotest.test_case "fuel" `Quick test_infinite_loop_fuel;
        ] );
      ( "vector",
        [
          Alcotest.test_case "splat+store" `Quick test_vector_splat_store;
          Alcotest.test_case "vperm realign" `Quick test_vperm_realign;
          Alcotest.test_case "aligned faults on sse" `Quick
            test_aligned_fault_on_sse;
          Alcotest.test_case "misaligned load" `Quick
            test_misaligned_load_on_sse;
          Alcotest.test_case "extract/interleave" `Quick
            test_extract_interleave;
          Alcotest.test_case "unpack/pack" `Quick test_unpack_pack_roundtrip;
          Alcotest.test_case "dot product" `Quick test_dot_product;
          Alcotest.test_case "reduce+insert" `Quick test_vreduce_and_insert;
        ] );
      "faults", [ Alcotest.test_case "plan = reference" `Quick test_faults ];
      ( "plan",
        [
          Alcotest.test_case "fuel at every position" `Quick
            test_fuel_every_position;
          Alcotest.test_case "f32 rounding edges" `Quick test_rounding_edges;
          QCheck_alcotest.to_alcotest prop_rounding;
          QCheck_alcotest.to_alcotest prop_register_file;
          Alcotest.test_case "register-file regressions" `Quick
            test_named_vcases;
          Alcotest.test_case "allocation per run is flat" `Quick
            test_allocation_flat;
        ] );
      ( "cycles",
        [
          Alcotest.test_case "charged" `Quick test_cycles_charged;
          Alcotest.test_case "x87 penalty" `Quick test_x87_penalty;
        ] );
      ( "regalloc",
        [
          Alcotest.test_case "pressure differential" `Quick
            test_regalloc_pressure;
          Alcotest.test_case "spill cost" `Quick test_regalloc_spill_cost;
          Alcotest.test_case "decisions match the goldens" `Quick
            test_regalloc_golden;
          Alcotest.test_case "identity with registers to spare" `Quick
            test_regalloc_identity;
          Alcotest.test_case "out of scratch registers" `Quick
            test_regalloc_out_of_scratch;
          Alcotest.test_case "allocation per instruction is flat" `Quick
            test_regalloc_growth;
        ] );
      ( "layout",
        [
          Alcotest.test_case "placement" `Quick test_layout_placement;
          Alcotest.test_case "roundtrip" `Quick test_layout_roundtrip;
        ] );
      "iaca", [ Alcotest.test_case "innermost" `Quick test_iaca_innermost ];
    ]
