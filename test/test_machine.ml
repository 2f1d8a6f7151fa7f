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
