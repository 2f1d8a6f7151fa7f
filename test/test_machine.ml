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
   the reference [Simulator.run] and through a prepared plan.  The two must
   agree on cycles, executed instructions and final memory, or raise the
   same exception (fault message included).  Returns the reference
   outcome, with [arrays] read back. *)
let run_both ?(target = sse) ?(arrays = []) ?(scalars = []) ?params ?fp_unit
    ?fuel instrs =
  let layout = Layout.plan ~policy:Layout.aligned_policy arrays in
  let mem = Layout.materialize layout arrays in
  let plan_mem = Bytes.copy mem in
  let f = mfun ?params ?fp_unit instrs in
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

(* Differential: a suite kernel compiled with a starving register budget
   must compute the same results as with a generous one. *)
let test_regalloc_pressure () =
  let module Suite = Vapor_kernels.Suite in
  let module Flows = Vapor_harness.Flows in
  let module Profile = Vapor_jit.Profile in
  List.iter
    (fun name ->
      let entry = Suite.find name in
      let starved =
        { Profile.gcc4cli with Profile.name = "starved"; reg_fraction = 0.01 }
      in
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
  let module Profile = Vapor_jit.Profile in
  let entry = Suite.find "convolve_s32" in
  let starved =
    { Profile.gcc4cli with Profile.name = "starved"; reg_fraction = 0.01 }
  in
  let a = Flows.split_vector ~target:sse ~profile:starved entry ~scale:1 in
  let b =
    Flows.split_vector ~target:sse ~profile:Vapor_jit.Profile.gcc4cli entry
      ~scale:1
  in
  check Alcotest.bool "spills cost cycles" true (a.Flows.cycles > b.Flows.cycles)

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
        ] );
      ( "layout",
        [
          Alcotest.test_case "placement" `Quick test_layout_placement;
          Alcotest.test_case "roundtrip" `Quick test_layout_roundtrip;
        ] );
      "iaca", [ Alcotest.test_case "innermost" `Quick test_iaca_innermost ];
    ]
