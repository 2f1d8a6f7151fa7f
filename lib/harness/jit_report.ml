(* The JIT cost profiler: compile each suite kernel for each target with
   per-stage wall-clock timers installed, and report what the online
   compiler decided (VF, alignment strategy, guard resolution) next to
   what it cost (per-stage ns, code bytes, amortized compile share).

   Wall-clock numbers are measured (best of [repeats]); everything else —
   modeled compile time, execution cycles — comes from the same
   deterministic models the replay runtime uses, so the table's
   cost-model columns are reproducible bit-for-bit. *)

open Vapor_ir
module B = Vapor_vecir.Bytecode
module Encode = Vapor_vecir.Encode
module Hint = Vapor_vecir.Hint
module Target = Vapor_targets.Target
module Profile = Vapor_jit.Profile
module Compile = Vapor_jit.Compile
module Lower = Vapor_jit.Lower
module Suite = Vapor_kernels.Suite
module Driver = Vapor_vectorizer.Driver
module Stage = Vapor_obs.Stage

type row = {
  jr_kernel : string;
  jr_target : string;
  jr_vf : int;  (** lanes of the narrowest vectorized type; 1 = scalar *)
  jr_align : string;  (** alignment strategy the lowering relies on *)
  jr_guards_static : int;  (** guards resolved at JIT time *)
  jr_guards_dynamic : int;  (** guards left as runtime tests *)
  jr_lower_ns : float;
  jr_emit_ns : float;
  jr_regalloc_ns : float;
  jr_prepare_ns : float;
  jr_code_bytes : int;  (** cache-charged footprint of the body *)
  jr_compile_us : float;  (** modeled JIT time *)
  jr_exec_cycles : int;  (** one simulated invocation *)
  jr_compile_share : float;
      (** modeled compile share of total cost at [invocations] runs *)
}

(* --- bytecode scans ----------------------------------------------------- *)

(* Fold every vector-element type and memory-access hint in the kernel.
   [on_ty] sees the element type of each vector operation; [on_access]
   sees [`Aligned], [`Hinted h], or [`Realign]. *)
let scan_vkernel ~on_ty ~on_access (vk : B.vkernel) =
  let rec sexpr (e : B.sexpr) =
    match e with
    | B.S_int _ | B.S_float _ | B.S_var _ -> ()
    | B.S_load (_, i) -> sexpr i
    | B.S_binop (_, a, b) | B.S_loop_bound (a, b) ->
      sexpr a;
      sexpr b
    | B.S_unop (_, a) | B.S_convert (_, a) -> sexpr a
    | B.S_select (c, a, b) ->
      sexpr c;
      sexpr a;
      sexpr b
    | B.S_get_vf _ | B.S_align_limit _ -> ()
    | B.S_reduc (_, ty, v) ->
      on_ty ty;
      vexpr v
  and vexpr (e : B.vexpr) =
    match e with
    | B.V_var _ -> ()
    | B.V_binop (_, ty, a, b)
    | B.V_interleave (_, ty, a, b)
    | B.V_cmp (_, ty, a, b)
    | B.V_pack (ty, a, b)
    | B.V_widen_mult (_, ty, a, b) ->
      on_ty ty;
      vexpr a;
      vexpr b
    | B.V_unop (_, ty, a) | B.V_unpack (_, ty, a) ->
      on_ty ty;
      vexpr a
    | B.V_shift (_, ty, a, s) ->
      on_ty ty;
      vexpr a;
      sexpr s
    | B.V_init_uniform (ty, s) | B.V_init_reduc (_, ty, s) ->
      on_ty ty;
      sexpr s
    | B.V_init_affine (ty, a, b) ->
      on_ty ty;
      sexpr a;
      sexpr b
    | B.V_aload (ty, _, i) ->
      on_ty ty;
      on_access `Aligned;
      sexpr i
    | B.V_align_load (ty, _, i) ->
      on_ty ty;
      on_access `Realign;
      sexpr i
    | B.V_load (ty, _, i, h) ->
      on_ty ty;
      on_access (`Hinted h);
      sexpr i
    | B.V_get_rt (ty, _, i, _) ->
      on_ty ty;
      on_access `Realign;
      sexpr i
    | B.V_realign r ->
      on_ty r.B.r_ty;
      on_access `Realign;
      vexpr r.B.r_v1;
      vexpr r.B.r_v2;
      vexpr r.B.r_rt;
      sexpr r.B.r_idx
    | B.V_dot_product (ty, a, b, c) ->
      on_ty ty;
      vexpr a;
      vexpr b;
      vexpr c
    | B.V_cvt (from_ty, to_ty, a) ->
      on_ty from_ty;
      on_ty to_ty;
      vexpr a
    | B.V_extract e ->
      on_ty e.B.e_ty;
      List.iter vexpr e.B.e_parts
    | B.V_select (ty, c, a, b) ->
      on_ty ty;
      vexpr c;
      vexpr a;
      vexpr b
  and vstmt (s : B.vstmt) =
    match s with
    | B.VS_assign (_, e) -> sexpr e
    | B.VS_store (_, i, v) ->
      sexpr i;
      sexpr v
    | B.VS_vassign (_, v) -> vexpr v
    | B.VS_vstore st ->
      on_ty st.B.st_ty;
      on_access (`Hinted st.B.st_hint);
      sexpr st.B.st_idx;
      vexpr st.B.st_value
    | B.VS_for l ->
      sexpr l.B.lo;
      sexpr l.B.hi;
      sexpr l.B.step;
      List.iter vstmt l.B.body
    | B.VS_if (c, a, b) ->
      sexpr c;
      List.iter vstmt a;
      List.iter vstmt b
    | B.VS_version v ->
      List.iter vstmt v.B.vec;
      List.iter vstmt v.B.fallback
  in
  List.iter vstmt vk.B.body

(* The vectorization factor the JIT materializes for [S_get_vf]: lanes of
   the narrowest element type that appears in vector code.  1 when the
   body compiled fully scalar (or holds no vector ops at all). *)
let chosen_vf ~(target : Target.t) ~(compiled : Compile.t) (vk : B.vkernel) =
  let fully_scalar =
    compiled.Compile.decisions <> []
    && List.for_all
         (function Lower.Scalarize _ -> true | Lower.Vectorize -> false)
         compiled.Compile.decisions
  in
  if fully_scalar || not (Target.has_simd target) then 1
  else begin
    let min_size = ref max_int in
    scan_vkernel
      ~on_ty:(fun ty -> min_size := min !min_size (Src_type.size_of ty))
      ~on_access:(fun _ -> ())
      vk;
    if !min_size = max_int then 1
    else max 1 (target.Target.vs / !min_size)
  end

(* Which alignment mechanism the lowering leans on for this (kernel,
   target) pair: every access provably aligned, misaligned loads issued
   directly, explicit realignment (lvsr/vperm-style), or nothing vector
   at all. *)
let alignment_strategy ~(target : Target.t) (vk : B.vkernel) =
  let any = ref false and unaligned = ref false and realign = ref false in
  scan_vkernel
    ~on_ty:(fun _ -> ())
    ~on_access:(fun a ->
      any := true;
      match a with
      | `Aligned -> ()
      | `Realign -> realign := true
      | `Hinted h ->
        if not (Hint.aligned_for ~vs:(max 1 target.Target.vs) h) then
          unaligned := true)
    vk;
  if not !any then "none"
  else if not !unaligned then if !realign then "realign" else "aligned"
  else if target.Target.misaligned_load then "misaligned"
  else if target.Target.explicit_realign then "realign"
  else "peeled"

(* --- profiling ---------------------------------------------------------- *)

type stage_ns = {
  sn_lower : float;
  sn_emit : float;
  sn_regalloc : float;
  sn_prepare : float;
}

let stage_total s = s.sn_lower +. s.sn_emit +. s.sn_regalloc +. s.sn_prepare

(* Compile under an aggregating stage sink; best (minimum-total) of
   [repeats] runs, so one scheduler hiccup does not pollute the table. *)
let timed_compile ~repeats ~target ~profile vk =
  let best = ref None in
  let result = ref None in
  for _ = 1 to max 1 repeats do
    let agg = Stage.agg_create () in
    let r =
      Stage.with_sink
        (Some (Stage.agg_sink agg))
        (fun () -> Compile.compile_checked ~target ~profile vk)
    in
    if !result = None then result := Some r;
    let ns =
      {
        sn_lower = Stage.agg_ns agg "lower";
        sn_emit = Stage.agg_ns agg "emit";
        sn_regalloc = Stage.agg_ns agg "regalloc";
        sn_prepare = Stage.agg_ns agg "prepare";
      }
    in
    match !best with
    | Some prev when stage_total prev <= stage_total ns -> ()
    | _ -> best := Some ns
  done;
  ( Option.get !result,
    Option.value !best
      ~default:{ sn_lower = 0.0; sn_emit = 0.0; sn_regalloc = 0.0;
                 sn_prepare = 0.0 } )

(* Modeled compile share of total cost once the body has served
   [invocations] requests, pricing a modeled cycle at 1 ns. *)
let compile_share ~invocations ~compile_us ~exec_cycles =
  let exec_us = float_of_int exec_cycles /. 1000.0 in
  let total = compile_us +. (float_of_int invocations *. exec_us) in
  if total <= 0.0 then 0.0 else compile_us /. total

let profile_kernel ?(repeats = 3) ?(invocations = 1000) ?(scale = 2)
    ~(target : Target.t) ~(profile : Profile.t) (entry : Suite.entry) : row =
  let vk = (Flows.vectorized_bytecode entry).Driver.vkernel in
  let result, ns = timed_compile ~repeats ~target ~profile vk in
  match result with
  | Error e ->
    {
      jr_kernel = entry.Suite.name;
      jr_target = target.Target.name;
      jr_vf = 0;
      jr_align = Printf.sprintf "error:%s" (Compile.stage_name e.Compile.le_stage);
      jr_guards_static = 0;
      jr_guards_dynamic = 0;
      jr_lower_ns = ns.sn_lower;
      jr_emit_ns = ns.sn_emit;
      jr_regalloc_ns = ns.sn_regalloc;
      jr_prepare_ns = ns.sn_prepare;
      jr_code_bytes = 0;
      jr_compile_us = 0.0;
      jr_exec_cycles = 0;
      jr_compile_share = 0.0;
    }
  | Ok compiled ->
    let analysis =
      Lower.analyze ~target ~profile
        ~known_aligned:(fun _ -> false)
        ~known_disjoint:(fun _ _ -> false)
        vk
    in
    let statics, dynamics =
      List.fold_left
        (fun (s, d) (_, g) ->
          match g with
          | Lower.G_static _ -> s + 1, d
          | Lower.G_dynamic -> s, d + 1)
        (0, 0) analysis.Lower.guards
    in
    let code_bytes =
      Encode.size vk
      + (4 * Array.length compiled.Compile.mfun.Vapor_machine.Mfun.instrs)
    in
    let args = entry.Suite.args ~scale in
    let r = Exec.run target compiled ~args in
    {
      jr_kernel = entry.Suite.name;
      jr_target = target.Target.name;
      jr_vf = chosen_vf ~target ~compiled vk;
      jr_align = alignment_strategy ~target vk;
      jr_guards_static = statics;
      jr_guards_dynamic = dynamics;
      jr_lower_ns = ns.sn_lower;
      jr_emit_ns = ns.sn_emit;
      jr_regalloc_ns = ns.sn_regalloc;
      jr_prepare_ns = ns.sn_prepare;
      jr_code_bytes = code_bytes;
      jr_compile_us = compiled.Compile.compile_time_us;
      jr_exec_cycles = r.Exec.cycles;
      jr_compile_share =
        compile_share ~invocations
          ~compile_us:compiled.Compile.compile_time_us
          ~exec_cycles:r.Exec.cycles;
    }

let run ?repeats ?invocations ?scale ?kernels ~(targets : Target.t list)
    ~(profile : Profile.t) () : row list =
  let entries =
    match kernels with
    | Some names -> List.map Suite.find names
    | None -> Suite.all
  in
  List.concat_map
    (fun target ->
      List.map
        (fun entry -> profile_kernel ?repeats ?invocations ?scale ~target ~profile entry)
        entries)
    targets

(* --- measured scaling ----------------------------------------------------

   How each JIT stage's wall time grows with the size of what it compiles,
   on two synthetic shapes built from the saxpy loop: N copies of the loop
   (N loop regions, one after another) and one loop of N statements (one
   region, N times the body).  The exponent is the least-squares slope of
   log time over log N, with its R^2; 1.0 is linear. *)

type shape =
  | Copies
  | Statements

let shape_name = function
  | Copies -> "copies"
  | Statements -> "statements"

let shape_source shape n =
  let stmt = "    y[i] = a * x[i] + y[i];\n" in
  let loop body = "  for (i = 0; i < n; i++) {\n" ^ body ^ "  }\n" in
  let body =
    match shape with
    | Copies -> String.concat "" (List.init n (fun _ -> loop stmt))
    | Statements -> loop (String.concat "" (List.init n (fun _ -> stmt)))
  in
  Printf.sprintf "kernel %s_%d(f32 x[], f32 y[], f32 a, s32 n) {\n%s}\n"
    (shape_name shape) n body

let shape_bytecode shape n =
  (Driver.vectorize
     (Vapor_frontend.Typecheck.compile_one (shape_source shape n)))
    .Driver.vkernel

let scaling_sizes = [ 2; 4; 8; 16; 32; 64; 128 ]
let stages = [ "lower"; "emit"; "regalloc"; "prepare" ]

type scaling_row = {
  sc_shape : string;
  sc_target : string;
  sc_stage : string;
  sc_ns : (int * float) list;  (** (N, best-of-7 ns) *)
  sc_exponent : float;
  sc_r2 : float;
}

(* Least-squares fit of log y = e log x + c: (e, R^2). *)
let loglog_fit points =
  let pts = List.map (fun (x, y) -> log (float_of_int x), log y) points in
  let k = float_of_int (List.length pts) in
  let mean f = List.fold_left (fun a p -> a +. f p) 0.0 pts /. k in
  let mx = mean fst and my = mean snd in
  let sum f = List.fold_left (fun a p -> a +. f p) 0.0 pts in
  let sxy = sum (fun (x, y) -> (x -. mx) *. (y -. my)) in
  let sxx = sum (fun (x, _) -> (x -. mx) ** 2.0) in
  let syy = sum (fun (_, y) -> (y -. my) ** 2.0) in
  if sxx = 0.0 || syy = 0.0 then 0.0, 0.0
  else sxy /. sxx, sxy *. sxy /. (sxx *. syy)

(* Each stage's best-of-7 wall ns for one compile, as an association
   list over [stages]. *)
let best_stage_ns ~target ~profile vk =
  let agg = Stage.agg_create () in
  let best = Array.make (List.length stages) infinity in
  for _ = 1 to 7 do
    Stage.agg_reset agg;
    ignore
      (Stage.with_sink
         (Some (Stage.agg_sink agg))
         (fun () -> Compile.compile_checked ~target ~profile vk));
    List.iteri
      (fun i st -> best.(i) <- Float.min best.(i) (Stage.agg_ns agg st))
      stages
  done;
  List.combine stages (Array.to_list best)

let scaling ~(targets : Target.t list) ~(profile : Profile.t) :
    scaling_row list =
  List.concat_map
    (fun shape ->
      let kernels =
        List.map (fun n -> n, shape_bytecode shape n) scaling_sizes
      in
      List.concat_map
        (fun (target : Target.t) ->
          let timed =
            List.map
              (fun (n, vk) -> n, best_stage_ns ~target ~profile vk)
              kernels
          in
          List.map
            (fun st ->
              let ns = List.map (fun (n, at) -> n, List.assoc st at) timed in
              let e, r2 = loglog_fit ns in
              {
                sc_shape = shape_name shape;
                sc_target = target.Target.name;
                sc_stage = st;
                sc_ns = ns;
                sc_exponent = e;
                sc_r2 = r2;
              })
            stages)
        targets)
    [ Copies; Statements ]

(* --- rendering ---------------------------------------------------------- *)

let table_to_string ?(invocations = 1000) (rows : row list) =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "  %-16s %-8s %3s %-11s %7s %9s %8s %9s %9s %6s %9s %9s %9s\n"
    "kernel" "target" "vf" "align" "guards" "lower ns" "emit ns" "ralloc ns"
    "prep ns" "bytes" "model us" "exec cyc"
    (Printf.sprintf "sh@%d" invocations);
  List.iter
    (fun r ->
      Printf.bprintf buf
        "  %-16s %-8s %3d %-11s %7s %9.0f %8.0f %9.0f %9.0f %6d %9.2f %9d %8.2f%%\n"
        r.jr_kernel r.jr_target r.jr_vf r.jr_align
        (Printf.sprintf "%ds/%dd" r.jr_guards_static r.jr_guards_dynamic)
        r.jr_lower_ns r.jr_emit_ns r.jr_regalloc_ns r.jr_prepare_ns
        r.jr_code_bytes r.jr_compile_us r.jr_exec_cycles
        (100.0 *. r.jr_compile_share))
    rows;
  Buffer.contents buf

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json (rows : row list) =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i r ->
      Printf.bprintf buf
        "  {\"kernel\": \"%s\", \"target\": \"%s\", \"vf\": %d, \
         \"align\": \"%s\", \"guards_static\": %d, \"guards_dynamic\": %d, \
         \"lower_ns\": %.0f, \"emit_ns\": %.0f, \"regalloc_ns\": %.0f, \
         \"prepare_ns\": %.0f, \"code_bytes\": %d, \"compile_us\": %.3f, \
         \"exec_cycles\": %d, \"compile_share\": %.6f}%s\n"
        (json_escape r.jr_kernel) (json_escape r.jr_target) r.jr_vf
        (json_escape r.jr_align) r.jr_guards_static r.jr_guards_dynamic
        r.jr_lower_ns r.jr_emit_ns r.jr_regalloc_ns r.jr_prepare_ns
        r.jr_code_bytes r.jr_compile_us r.jr_exec_cycles r.jr_compile_share
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Buffer.add_string buf "]\n";
  Buffer.contents buf

let scaling_to_string (rows : scaling_row list) =
  let buf = Buffer.create 4096 in
  let ns_at n r = Option.value ~default:0.0 (List.assoc_opt n r.sc_ns) in
  let lo, hi =
    match rows with
    | r :: _ -> fst (List.hd r.sc_ns), fst (List.hd (List.rev r.sc_ns))
    | [] -> 0, 0
  in
  Printf.bprintf buf "  %-10s %-8s %-8s %8s %6s %12s %12s\n" "shape"
    "target" "stage" "exponent" "R^2"
    (Printf.sprintf "ns @N=%d" lo)
    (Printf.sprintf "ns @N=%d" hi);
  List.iter
    (fun r ->
      Printf.bprintf buf "  %-10s %-8s %-8s %8.2f %6.3f %12.0f %12.0f\n"
        r.sc_shape r.sc_target r.sc_stage r.sc_exponent r.sc_r2 (ns_at lo r)
        (ns_at hi r))
    rows;
  Buffer.contents buf

let scaling_to_json (rows : scaling_row list) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i r ->
      Printf.bprintf buf
        "    {\"shape\": \"%s\", \"target\": \"%s\", \"stage\": \"%s\", \
         \"exponent\": %.3f, \"r2\": %.4f, \"points\": [%s]}%s\n"
        r.sc_shape (json_escape r.sc_target) r.sc_stage r.sc_exponent r.sc_r2
        (String.concat ", "
           (List.map
              (fun (n, ns) -> Printf.sprintf "{\"n\": %d, \"ns\": %.0f}" n ns)
              r.sc_ns))
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Buffer.add_string buf "  ]";
  Buffer.contents buf
