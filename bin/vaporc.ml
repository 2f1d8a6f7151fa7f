(* vaporc: command-line driver for the split-vectorization toolchain.

     vaporc list                          enumerate benchmark kernels
     vaporc dump-ir -k saxpy_fp           parsed + type-checked IR
     vaporc vectorize -k saxpy_fp         offline stage: bytecode + report
     vaporc lower -k saxpy_fp -t sse      online stage: machine code
     vaporc run -k saxpy_fp -t altivec    compile + simulate, print cycles
     vaporc stat -k saxpy_fp              bytecode size statistics
     vaporc conform -t avx512             JIT vs interpreter, bit-compared
     vaporc serve-replay -t sse           tiered runtime + code cache replay
     vaporc chaos-replay -t sse --seed 1  ...under injected faults
     vaporc serve-bench -t sse            multi-stream serving drain
     vaporc serve -t sse --script s.srv   serving layer, scripted streams
     vaporc fleet-replay                  heterogeneous fleet + upgrades
     vaporc cache ls --store DIR          persistent code-store admin
     vaporc journal verify DIR            admission-journal check
     vaporc jit-report                    JIT cost profiler, per kernel/target
     vaporc experiments                   regenerate the paper's figures

   Kernels come from the built-in suite (-k) or from a file containing
   kernel-language source (-f).  The five serving subcommands are presets
   over one front-end: each flag is declared once, and every preset runs
   through Service.replay or Serve.run (see "serving" below and the
   "Command line" section of docs/SERVING.md). *)

open Cmdliner
module Suite = Vapor_kernels.Suite
module Driver = Vapor_vectorizer.Driver
module Options = Vapor_vectorizer.Options
module Profile = Vapor_jit.Profile
module Compile = Vapor_jit.Compile
module Targets = Vapor_targets.Scalar_target
module E = Vapor_harness.Experiments
module R = Vapor_harness.Report
module Trace = Vapor_runtime.Trace
module Service = Vapor_runtime.Service
module Stats = Vapor_runtime.Stats
module Store = Vapor_store.Store
module Serve = Vapor_serve.Serve
module Workload = Vapor_serve.Workload
module Ingress = Vapor_serve.Ingress
module Tiered = Vapor_runtime.Tiered
module Faults = Vapor_runtime.Faults

(* --- name resolution ----------------------------------------------------
   Unknown kernel/target names are user errors, not internal ones: print
   the valid names and exit 2 (cmdliner reserves 124 for conversion
   errors, so names are resolved here rather than in an Arg.conv). *)

let die_unknown ~what ~given ~valid : 'a =
  Printf.eprintf "vaporc: unknown %s '%s'\nvalid %ss are: %s\n" what given
    what (String.concat ", " valid);
  exit 2

let target_names =
  List.map (fun t -> t.Vapor_targets.Target.name) Targets.all

let resolve_target ?vl name =
  let t =
    try Targets.find name
    with Invalid_argument _ ->
      die_unknown ~what:"target" ~given:name ~valid:target_names
  in
  (* Pin late-bound targets (SVE) to a concrete vector length here so
     every downstream name-keyed cache and report sees the resolved
     spelling; a --vl that contradicts a fixed-width target is a user
     error. *)
  try Vapor_targets.Target.resolve ?vl:(Option.map (fun b -> b / 8) vl) t
  with Invalid_argument msg ->
    Printf.eprintf "vaporc: %s\n" msg;
    exit 2

let resolve_kernel name =
  try Suite.find name
  with Invalid_argument _ ->
    die_unknown ~what:"kernel" ~given:name
      ~valid:(List.map (fun e -> e.Suite.name) Suite.all)

(* A flag value outside its domain is a user error, like an unknown name:
   exit 2 with one line naming the flag (the batch flags add a usage line —
   zero or negative windows/caps have no meaning in the formation model). *)
let bad_value ?(usage = "") ~flag ~expect got =
  Printf.eprintf "vaporc: --%s must be %s (got %s)\n%s" flag expect got usage;
  exit 2

let at_least n ~flag v =
  if v >= n then v
  else bad_value ~flag ~expect:(Printf.sprintf ">= %d" n) (string_of_int v)

let probability ~flag p =
  if p >= 0.0 && p <= 1.0 then p
  else bad_value ~flag ~expect:"in [0, 1]" (Printf.sprintf "%g" p)

let resolve_positive ~flag v =
  if v > 0 then v
  else
    bad_value ~flag ~expect:"a positive integer" (string_of_int v)
      ~usage:
        (Printf.sprintf
           "usage: --%s N with N >= 1 (--max-batch 1 disables batching)\n"
           flag)

(* A bad --store path is a user error like an unknown name: exit 2 with
   the reason.  Replay commands create a missing directory ([create]);
   `vaporc cache` never does — verifying or listing a store that isn't
   there must not conjure an empty one. *)
let open_store_or_die ?max_entries ?max_bytes ~create path =
  match Store.open_store ?max_entries ?max_bytes ~create path with
  | Ok s -> s
  | Error msg ->
    Printf.eprintf "vaporc: %s\n" msg;
    exit 2

(* --- common arguments --------------------------------------------------- *)

let kernel_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "k"; "kernel" ] ~docv:"NAME" ~doc:"Benchmark-suite kernel name.")

let file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "f"; "file" ] ~docv:"FILE" ~doc:"Kernel-language source file.")

let target_arg =
  Arg.(
    value
    & opt string "sse"
    & info [ "t"; "target" ] ~docv:"TARGET"
        ~doc:
          (Printf.sprintf
             "Target: %s. Late-bound targets also accept a pinned spelling \
              (sve128, sve256, sve512)."
             (String.concat ", " target_names)))

let vl_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "vl" ] ~docv:"BITS"
        ~doc:
          "Pin a late-bound target's vector length in bits (SVE: 128, 256, \
           or 512); rejected if it contradicts a fixed-width target.")

let profile_arg =
  let the_profile_conv =
    Arg.conv
      ( (fun s ->
          match s with
          | "mono" -> Ok Profile.mono
          | "gcc4cli" -> Ok Profile.gcc4cli
          | "native" -> Ok Profile.native
          | "avx-split" -> Ok Profile.avx_split
          | other -> Error (`Msg ("unknown profile " ^ other))),
        fun fmt p -> Format.pp_print_string fmt p.Profile.name )
  in
  Arg.(
    value
    & opt the_profile_conv Profile.gcc4cli
    & info [ "p"; "profile" ] ~docv:"PROFILE"
        ~doc:"Codegen profile: mono, gcc4cli, native, or avx-split.")

let no_hints_arg =
  Arg.(
    value & flag
    & info [ "no-hints" ]
        ~doc:"Disable alignment hints/versioning/peeling (the ablation).")

let alias_checks_arg =
  Arg.(
    value & flag
    & info [ "alias-checks" ]
        ~doc:
          "Version vectorized loops on runtime array disjointness instead \
           of assuming restrict semantics.")

let scale_arg =
  Arg.(
    value & opt int 2
    & info [ "s"; "scale" ] ~docv:"N" ~doc:"Workload scale factor.")

let load_kernel kernel file : Vapor_ir.Kernel.t * Suite.entry option =
  match kernel, file with
  | Some name, None ->
    let entry = resolve_kernel name in
    Suite.kernel entry, Some entry
  | None, Some path ->
    let ic = open_in path in
    let n = in_channel_length ic in
    let src = really_input_string ic n in
    close_in ic;
    Vapor_frontend.Typecheck.compile_one src, None
  | Some _, Some _ -> failwith "give either --kernel or --file, not both"
  | None, None -> failwith "a kernel is required: --kernel NAME or --file FILE"

let opts_of no_hints alias_checks =
  let base = if no_hints then Options.no_hints else Options.default in
  { base with Options.alias_checks }

(* --- commands ----------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-18s %s%s\n" e.Suite.name
          (String.concat ", " e.Suite.features)
          (if e.Suite.polybench then "  [polybench]" else ""))
      Suite.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark-suite kernels.")
    Term.(const run $ const ())

let dump_ir_cmd =
  let run kernel file =
    let k, _ = load_kernel kernel file in
    print_string (Vapor_ir.Ir_print.kernel_to_string k)
  in
  Cmd.v
    (Cmd.info "dump-ir" ~doc:"Print the type-checked scalar IR of a kernel.")
    Term.(const run $ kernel_arg $ file_arg)

let vectorize_cmd =
  let run kernel file no_hints alias_checks =
    let k, _ = load_kernel kernel file in
    let result = Driver.vectorize ~opts:(opts_of no_hints alias_checks) k in
    Printf.printf "--- vectorization report ---\n%s\n\n"
      (Driver.report_to_string result);
    Printf.printf "--- vectorized bytecode ---\n%s"
      (Vapor_vecir.Vec_print.to_string result.Driver.vkernel)
  in
  Cmd.v
    (Cmd.info "vectorize"
       ~doc:"Run the offline stage and print the split-layer bytecode.")
    Term.(const run $ kernel_arg $ file_arg $ no_hints_arg $ alias_checks_arg)

let lower_cmd =
  let run kernel file no_hints target profile vl =
    let target = resolve_target ?vl target in
    let k, _ = load_kernel kernel file in
    let result = Driver.vectorize ~opts:(opts_of no_hints false) k in
    let compiled = Compile.compile ~target ~profile result.Driver.vkernel in
    print_string (Vapor_machine.Mfun.to_string compiled.Compile.mfun);
    List.iteri
      (fun i d ->
        Printf.printf "; region %d: %s\n" i
          (match d with
          | Vapor_jit.Lower.Vectorize -> "vectorized"
          | Vapor_jit.Lower.Scalarize reason -> "scalarized (" ^ reason ^ ")"))
      compiled.Compile.decisions;
    Printf.printf "; modeled JIT compile time: %.1f us (%d bytecode nodes)\n"
      compiled.Compile.compile_time_us compiled.Compile.bytecode_nodes
  in
  Cmd.v
    (Cmd.info "lower"
       ~doc:"Run the online stage and print target machine code.")
    Term.(
      const run $ kernel_arg $ file_arg $ no_hints_arg $ target_arg
      $ profile_arg $ vl_arg)

let run_cmd =
  let run kernel no_hints target profile scale vl =
    let target = resolve_target ?vl target in
    let entry = resolve_kernel (Option.value ~default:"saxpy_fp" kernel) in
    let module Flows = Vapor_harness.Flows in
    let r =
      Flows.split_vector
        ~opts:(opts_of no_hints false)
        ~target ~profile entry ~scale
    in
    let s = Flows.split_scalar ~target ~profile entry ~scale in
    Printf.printf
      "%s on %s (%s): %d cycles vectorized (%s), %d cycles scalar, speedup %.2fx\n"
      entry.Suite.name target.Vapor_targets.Target.name profile.Profile.name
      r.Flows.cycles
      (if r.Flows.vectorized then "vector code" else "scalarized")
      s.Flows.cycles
      (float_of_int s.Flows.cycles /. float_of_int r.Flows.cycles)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile a suite kernel and simulate it.")
    Term.(
      const run $ kernel_arg $ no_hints_arg $ target_arg $ profile_arg
      $ scale_arg $ vl_arg)

let conform_cmd =
  let digest_arg =
    Arg.(
      value & flag
      & info [ "digest" ]
          ~doc:
            "Also print one content digest per kernel over the JIT output \
             buffers, with no target column — so listings from different \
             vector lengths of one late-bound target can be diffed for \
             cross-VL bit-identity.")
  in
  let run kernel no_hints target profile scale vl digest =
    let target = resolve_target ?vl target in
    let module Buffer_ = Vapor_ir.Buffer_ in
    let module Eval = Vapor_ir.Eval in
    let module Veval = Vapor_vecir.Veval in
    let entries =
      match kernel with Some n -> [ resolve_kernel n ] | None -> Suite.all
    in
    let opts = opts_of no_hints false in
    let n_fail = ref 0 in
    List.iter
      (fun (entry : Suite.entry) ->
        let result = Driver.vectorize ~opts (Suite.kernel entry) in
        let vk = result.Driver.vkernel in
        let args = entry.Suite.args ~scale in
        let ref_args =
          List.map
            (fun (n, a) ->
              match a with
              | Eval.Scalar v -> n, Eval.Scalar v
              | Eval.Array b -> n, Eval.Array (Buffer_.copy b))
            args
        in
        let verdict =
          match
            let compiled = Compile.compile ~target ~profile vk in
            ignore (Vapor_harness.Exec.run target compiled ~args)
          with
          | () ->
            let mode =
              if Vapor_targets.Target.has_simd target then
                Veval.Vector target.Vapor_targets.Target.vs
              else Veval.Scalarized
            in
            ignore (Veval.run vk ~mode ~args:ref_args);
            let ok =
              List.for_all2
                (fun (_, a) (_, b) ->
                  match a, b with
                  | Eval.Array x, Eval.Array y -> Buffer_.equal x y
                  | _, _ -> true)
                args ref_args
            in
            if ok then "OK" else "MISMATCH"
          | exception e -> Printf.sprintf "ERROR (%s)" (Printexc.to_string e)
        in
        if verdict <> "OK" then incr n_fail;
        if digest then
          let d =
            if Vapor_vecir.Bytecode.has_fp_reduction vk then
              (* stable marker: bits legitimately follow the VL here *)
              "fp-reduction (vl-variant)       "
            else
              Digest.to_hex
                (Digest.string
                   (String.concat "|"
                      (List.map
                         (fun (n, a) ->
                           match a with
                           | Eval.Array b ->
                             n ^ ":" ^ Format.asprintf "%a" Buffer_.pp b
                           | Eval.Scalar _ -> n)
                         args)))
          in
          Printf.printf "%-18s %s %s\n" entry.Suite.name d verdict
        else
          Printf.printf "%-18s %-8s %-8s %s\n" entry.Suite.name
            target.Vapor_targets.Target.name profile.Profile.name verdict)
      entries;
    if !n_fail > 0 then begin
      Printf.printf "conformance: %d kernel(s) diverged on %s/%s\n" !n_fail
        target.Vapor_targets.Target.name profile.Profile.name;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "conform"
       ~doc:
         "Differential conformance: run kernels through the JIT and \
          bit-compare every output array against the reference interpreter \
          (all suite kernels unless --kernel is given); exit 1 on any \
          divergence.")
    Term.(
      const run $ kernel_arg $ no_hints_arg $ target_arg $ profile_arg
      $ scale_arg $ vl_arg $ digest_arg)

let stat_cmd =
  let run kernel file =
    let k, _ = load_kernel kernel file in
    let result = Driver.vectorize k in
    let vec = Vapor_vecir.Encode.size result.Driver.vkernel in
    let scalar = Vapor_vecir.Encode.size result.Driver.scalar_bytecode in
    Printf.printf
      "scalar bytecode: %d bytes\nvectorized bytecode: %d bytes\nratio: %.2fx\n"
      scalar vec
      (float_of_int vec /. float_of_int scalar)
  in
  Cmd.v
    (Cmd.info "stat" ~doc:"Bytecode size statistics for a kernel.")
    Term.(const run $ kernel_arg $ file_arg)

let encode_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the encoded bytecode here (default: NAME.vbc).")
  in
  let run kernel file no_hints out =
    let k, _ = load_kernel kernel file in
    let result = Driver.vectorize ~opts:(opts_of no_hints false) k in
    let bytes = Vapor_vecir.Encode.encode result.Driver.vkernel in
    let path = Option.value ~default:(k.Vapor_ir.Kernel.name ^ ".vbc") out in
    let oc = open_out_bin path in
    output_string oc bytes;
    close_out oc;
    Printf.printf "wrote %d bytes of vectorized bytecode to %s\n"
      (String.length bytes) path
  in
  Cmd.v
    (Cmd.info "encode"
       ~doc:"Vectorize and write the binary split-layer bytecode to a file.")
    Term.(const run $ kernel_arg $ file_arg $ no_hints_arg $ out_arg)

let disasm_cmd =
  let path_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Encoded bytecode file (.vbc).")
  in
  let run path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let bytes = really_input_string ic n in
    close_in ic;
    let vk = Vapor_vecir.Encode.decode bytes in
    print_string (Vapor_vecir.Vec_print.to_string vk)
  in
  Cmd.v
    (Cmd.info "disasm"
       ~doc:"Decode a binary bytecode file and print it as text.")
    Term.(const run $ path_arg)

(* --- serving: one front-end ----------------------------------------------
   The five serving subcommands are presets over one engine.  A preset is
   a workload source (the standard trace, a serve script, or a fleet
   population), its header lines and its verdict; every preset builds its
   runtime configuration with [service_config] / [serve_config] and runs
   through the one [Service.replay] path or the one [Serve.run] path.
   serve-replay and the plain replay mode of chaos-replay keep
   [Service.replay]: it is the only path that runs shards on OS domains.

   Every serving flag is declared once, below, together with the presets
   that accept it, in one of five group terms (runtime, source, serving,
   faults, outputs), each read by the builder that consumes it.  A preset
   that does not accept a flag runs at the flag's default, which is also
   the engine's own default — so each subcommand's surface is exactly its
   flag list, and the shared builders never branch on which subcommand
   called them. *)

type preset =
  | Replay  (** serve-replay *)
  | Chaos  (** chaos-replay *)
  | Bench  (** serve-bench *)
  | Fleet  (** fleet-replay *)
  | Script  (** serve *)

let all_presets = [ Replay; Chaos; Bench; Fleet; Script ]
let trace_presets = [ Replay; Chaos; Bench; Fleet ]
let serving_presets = [ Bench; Script ]

let accepted_by presets term absent p =
  if List.mem p presets then term else Term.const absent

let option_flag ~for_ ?(check = fun ~flag:_ v -> v) name ~docv ~doc conv
    default =
  let arg = Arg.value (Arg.opt conv default (Arg.info [ name ] ~docv ~doc)) in
  accepted_by for_ (Term.app (Term.const (check ~flag:name)) arg) default

let switch_flag ~for_ name ~doc =
  accepted_by for_ Arg.(value & flag & info [ name ] ~doc) false

let rate_flag ~for_ name ~doc default =
  option_flag ~for_ ~check:probability name ~docv:"P" ~doc Arg.float default

(* The serving runtime: targets, profile, tiering, code cache, store. *)
type runtime = {
  target : string;
  profile : Profile.t;
  hotness : int;
  store : string option;
  engine : string;
  cache_entries : int;
  cache_bytes : int;
  rejuvenate_to : string option;
  rejuvenate_at : int;
}

let runtime_term p =
  let open Term.Syntax in
  let+ target = accepted_by [ Replay; Chaos; Bench; Script ] target_arg "sse" p
  and+ profile = accepted_by all_presets profile_arg Profile.gcc4cli p
  and+ hotness =
    option_flag ~for_:all_presets ~check:(at_least 0) "hotness" ~docv:"N"
      ~doc:
        "Interpreter invocations before a kernel body is promoted to the JIT \
         tier."
      Arg.int 3 p
  and+ store =
    option_flag ~for_:[ Replay; Chaos; Bench; Script ] "store" ~docv:"DIR"
      ~doc:
        "Persistent code store: in-memory cache misses probe $(docv) before \
         compiling, and every compile publishes write-through, so a second run \
         over the same workload performs zero JIT compiles.  Created if \
         missing; combine with --store-corrupt-rate to exercise the \
         disk-corruption path."
      Arg.(some string) None p
  and+ engine =
    option_flag ~for_:[ Replay ] "engine" ~docv:"ENGINE"
      ~doc:
        "Simulator for JIT-tier bodies: 'fast' (pre-resolved plans) or \
         'reference' (instruction-by-instruction simulator).  Reports are \
         identical; only wall-clock differs."
      Arg.string "fast" p
  and+ cache_entries =
    option_flag ~for_:[ Replay ] "cache-entries" ~docv:"N"
      ~doc:"Code-cache entry budget (LRU beyond this)." Arg.int 64 p
  and+ cache_bytes =
    option_flag ~for_:[ Replay ] "cache-bytes" ~docv:"BYTES"
      ~doc:"Code-cache modeled byte budget (LRU beyond this)." Arg.int
      (256 * 1024) p
  and+ rejuvenate_to =
    option_flag ~for_:[ Replay ] "rejuvenate-to" ~docv:"TARGET"
      ~doc:
        "Mid-replay, re-lower all cached code from the primary target to \
         $(docv) and redirect traffic (Revec-style rejuvenation)."
      Arg.(some string) None p
  and+ rejuvenate_at =
    option_flag ~for_:[ Replay ] "rejuvenate-at" ~docv:"EVENT"
      ~doc:"Trace event index at which rejuvenation fires." Arg.int 200 p
  in
  {
    target; profile; hotness; store; engine; cache_entries; cache_bytes;
    rejuvenate_to; rejuvenate_at;
  }

(* The workload source: the standard trace and its stream split, a serve
   script, or a fleet population. *)
type source = {
  length : int;
  seed : int;
  kernels : string list option;
  streams : int;
  queue_cap : int;
  policy : string;
  deadline : int option;
  stream_deadline : int option;
  interval : int;
  priority_levels : int;
  script : string option;
  machines : int;
  fleet : int;
  fleet_seed : int;
  upgrade_at : int option;
  drop_at : int option;
}

let source_term p =
  let open Term.Syntax in
  let+ length =
    option_flag ~for_:trace_presets ~check:(at_least 0) "length" ~docv:"N"
      ~doc:"Number of trace events to replay or serve." Arg.int 400 p
  and+ seed =
    option_flag ~for_:trace_presets "seed" ~docv:"N"
      ~doc:
        "Seed for the trace and for any fault injector: the same seed replays \
         the same events and reproduces the same faults at the same trace \
         points."
      Arg.int 42 p
  and+ kernels =
    option_flag ~for_:[ Replay; Bench; Fleet ] "kernels" ~docv:"NAMES"
      ~doc:
        "Comma-separated suite kernels for the trace (default: the standard \
         mix)."
      Arg.(some (list string)) None p
  and+ streams =
    (* one declaration, two defaults: 0 keeps chaos-replay a plain replay *)
    option_flag ~for_:[ Chaos; Bench; Fleet ]
      ~check:(at_least (if p = Chaos then 0 else 1))
      "streams" ~docv:"N"
      ~doc:
        "Concurrent ingress streams the trace is split across.  On \
         chaos-replay the default 0 is the plain replay; $(docv) > 0 drives \
         the chaos workload through the serving engine, enables the \
         serving-shaped faults and extends the verdict with lost-event \
         accounting."
      Arg.int
      (if p = Chaos then 0 else 4)
      p
  and+ queue_cap =
    option_flag ~for_:[ Bench ] ~check:(at_least 1) "queue-cap" ~docv:"N"
      ~doc:"Per-stream ingress queue bound." Arg.int 16 p
  and+ policy =
    option_flag ~for_:[ Bench ] "policy" ~docv:"POLICY"
      ~doc:
        "Backpressure policy when a queue fills: 'block' (producer stalls) or \
         'shed' (drop and account)."
      Arg.string "block" p
  and+ deadline =
    option_flag ~for_:[ Bench ] "deadline" ~docv:"CYCLES"
      ~doc:
        "Per-event deadline: an event queued longer than $(docv) virtual \
         cycles times out with its buffers untouched."
      Arg.(some int) None p
  and+ stream_deadline =
    option_flag ~for_:[ Bench ] "stream-deadline" ~docv:"CYCLES"
      ~doc:"Absolute virtual-cycle cutoff applied to every stream."
      Arg.(some int) None p
  and+ interval =
    option_flag ~for_:[ Bench ] ~check:(at_least 0) "interval" ~docv:"CYCLES"
      ~doc:
        "Virtual cycles between successive arrivals (0 floods everything at \
         t=0 — the overload setting)."
      Arg.int 0 p
  and+ priority_levels =
    option_flag ~for_:[ Bench ] ~check:(at_least 1) "priority-levels"
      ~docv:"N"
      ~doc:
        "Spread streams across $(docv) priority levels; sheds hit the lowest \
         priority first."
      Arg.int 1 p
  and+ script =
    option_flag ~for_:[ Script ] "script" ~docv:"FILE"
      ~doc:"Serve script to execute (default: read from stdin)."
      Arg.(some file) None p
  and+ machines =
    option_flag ~for_:[ Fleet ] ~check:(at_least 1) "machines" ~docv:"N"
      ~doc:"Fleet population size (seeded mix of the 7 archetypes)." Arg.int
      12 p
  and+ fleet =
    option_flag ~for_:[ Script ] "fleet" ~docv:"N"
      ~doc:
        "Serve over a seeded heterogeneous fleet of $(docv) machines instead \
         of one --target: scripted events spread round-robin across the \
         population and runtime counters are labeled per resolved target (0 = \
         off)."
      Arg.int 0 p
  and+ fleet_seed =
    option_flag ~for_:[ Fleet; Script ] "fleet-seed" ~docv:"N"
      ~doc:"Seed for the fleet population draw (independent of --seed)."
      Arg.int 7 p
  and+ upgrade_at =
    option_flag ~for_:[ Fleet ] "upgrade-at" ~docv:"EVENT"
      ~doc:
        "Trace index at which SSE machines upgrade to AVX-512 and NEON \
         machines to SVE (default: a third of the trace; -1 disables \
         upgrades)."
      Arg.(some int) None p
  and+ drop_at =
    option_flag ~for_:[ Fleet ] "drop-at" ~docv:"EVENT"
      ~doc:
        "Trace index at which AVX machines drop to scalar serving (default: no \
         drop)."
      Arg.(some int) None p
  in
  {
    length; seed; kernels; streams; queue_cap; policy; deadline;
    stream_deadline; interval; priority_levels; script; machines; fleet;
    fleet_seed; upgrade_at; drop_at;
  }

(* The session pool and the serving engine. *)
type serving = {
  domains : int;
  lanes : int;
  budget : int;
  backlog : int;
  breaker_threshold : int;
  breaker_cooldown : int;
  max_batch : int;
  batch_window : int;
  checkpoint_every : int;
  journal : string option;
  restart_limit : int;
  lane_stall_limit : int;
}

let serving_term p =
  let open Term.Syntax in
  let+ domains =
    option_flag ~for_:[ Replay; Bench; Fleet; Script ] ~check:(at_least 1)
      "domains" ~docv:"N"
      ~doc:
        "Shard the run across $(docv) session-pool shards (the trace is \
         partitioned by kernel digest; the report is identical for any \
         $(docv)).  serve-replay runs the shards on OCaml domains."
      Arg.int 1 p
  and+ lanes =
    option_flag ~for_:serving_presets ~check:(at_least 1) "lanes" ~docv:"N"
      ~doc:"Concurrency lanes (virtual service slots)." Arg.int 2 p
  and+ budget =
    option_flag ~for_:serving_presets ~check:(at_least 1) "budget" ~docv:"N"
      ~doc:"Global in-flight admission budget." Arg.int 8 p
  and+ backlog =
    option_flag ~for_:serving_presets "backlog" ~docv:"N"
      ~doc:
        "Global queued-event watermark; above it the lowest-priority \
         shed-policy queues are trimmed (0 = never trim)."
      Arg.int 0 p
  and+ breaker_threshold =
    option_flag ~for_:serving_presets "breaker-threshold" ~docv:"N"
      ~doc:
        "Consecutive failures (mismatch, fault, or timeout) that open a \
         kernel's circuit breaker."
      Arg.int 3 p
  and+ breaker_cooldown =
    option_flag ~for_:serving_presets "breaker-cooldown" ~docv:"CYCLES"
      ~doc:"Virtual cycles an open breaker dwells before its probe." Arg.int
      1_000_000 p
  and+ max_batch =
    option_flag ~for_:serving_presets ~check:resolve_positive "max-batch"
      ~docv:"N"
      ~doc:
        "Batch-formation cap: a per-kernel batch dispatches the moment it \
         holds $(docv) events.  1 (the default) is the exact unbatched \
         dispatch path."
      Arg.int 1 p
  and+ batch_window =
    option_flag ~for_:serving_presets ~check:resolve_positive "batch-window"
      ~docv:"CYCLES"
      ~doc:
        "Batch-formation window: an open batch closes after $(docv) virtual \
         cycles, or earlier if a member deadline is at risk."
      Arg.int 1024 p
  and+ checkpoint_every =
    option_flag ~for_:serving_presets "checkpoint-every" ~docv:"CYCLES"
      ~doc:
        "Shard-checkpoint period in virtual cycles (0 = only the initial \
         checkpoint).  Any nonzero value turns the supervisor on."
      Arg.int 0 p
  and+ journal =
    option_flag ~for_:serving_presets "journal" ~docv:"DIR"
      ~doc:
        "Mirror the write-ahead admission journal and checkpoint artifacts to \
         $(docv) (created if missing); verify offline with 'vaporc journal \
         verify'."
      Arg.(some string) None p
  and+ restart_limit =
    option_flag ~for_:serving_presets ~check:(at_least 1) "restart-limit"
      ~docv:"N"
      ~doc:
        "Restarts tolerated inside one backoff streak before a crashing shard \
         degrades to interp-only serving (a further crash sheds it typed)."
      Arg.int 3 p
  and+ lane_stall_limit =
    option_flag ~for_:serving_presets ~check:(at_least 1) "lane-stall-limit"
      ~docv:"CYCLES"
      ~doc:
        "Virtual cycles a wedged lane may hold its members before the watchdog \
         times them out."
      Arg.int 8192 p
  in
  {
    domains; lanes; budget; backlog; breaker_threshold; breaker_cooldown;
    max_batch; batch_window; checkpoint_every; journal; restart_limit;
    lane_stall_limit;
  }

(* Fault injection and the guard around it. *)
type faults = {
  no_faults : bool;
  chaos : bool;
  corrupt_rate : float;
  compile_fault_rate : float;
  store_corrupt_rate : float;
  stall_rate : float;
  disconnect_rate : float;
  deadline_exhaust_rate : float;
  crash_rate : float;
  wedge_rate : float;
  crash_seed : int;
  drop_simd_at : int option;
  oracle_every : int;
  retry_budget : int;
}

let faults_term p =
  let open Term.Syntax in
  let+ no_faults =
    switch_flag ~for_:[ Chaos ] "no-faults"
      ~doc:
        "Disable fault injection and the oracle entirely; the output is then \
         byte-identical to serve-replay." p
  and+ chaos =
    switch_flag ~for_:[ Bench ] "chaos"
      ~doc:
        "Inject the serving chaos mix (corrupt bodies, transient compile \
         faults, consumer stalls, disconnects, deadline exhaustion) with the \
         differential oracle on." p
  and+ corrupt_rate =
    rate_flag ~for_:[ Chaos ] "corrupt-rate"
      ~doc:"Probability a cache-delivered body is corrupted." 0.05 p
  and+ compile_fault_rate =
    rate_flag ~for_:[ Chaos ] "compile-fault-rate"
      ~doc:"Probability a compile attempt takes an injected transient fault."
      0.25 p
  and+ store_corrupt_rate =
    rate_flag ~for_:[ Chaos ] "store-corrupt-rate"
      ~doc:
        "Probability a persistent-store read comes back with mangled bytes; \
         the store's checksum verification must detect it, quarantine the \
         entry, and recompile."
      0.0 p
  and+ stall_rate =
    rate_flag ~for_:[ Chaos ] "stall-rate"
      ~doc:
        "Probability the consumer of a served response stalls, holding its \
         lane (serving mode only)."
      0.05 p
  and+ disconnect_rate =
    rate_flag ~for_:[ Chaos ] "disconnect-rate"
      ~doc:
        "Probability (per stream) of a mid-stream disconnect (serving mode \
         only)."
      0.2 p
  and+ deadline_exhaust_rate =
    rate_flag ~for_:[ Chaos ] "deadline-exhaust-rate"
      ~doc:
        "Probability (per dispatched event) that its deadline budget is burned \
         before execution (serving mode only)."
      0.02 p
  and+ crash_rate =
    rate_flag ~for_:serving_presets "crash-rate"
      ~doc:
        "Per-dispatched-batch probability that the owning shard crashes, \
         drawn from a dedicated stream seeded by --seed (--crash-seed on \
         serve).  Any nonzero value turns the supervisor on; crashed shards \
         are restored from their last checkpoint and the journal suffix \
         replayed, so the drained report stays byte-identical to the \
         crash-free run."
      0.0 p
  and+ wedge_rate =
    rate_flag ~for_:[ Bench ] "wedge-rate"
      ~doc:
        "Per-dispatched-batch probability that the lane wedges without \
         executing; the watchdog closes its members as typed timeouts after \
         the lane-stall limit."
      0.0 p
  and+ crash_seed =
    option_flag ~for_:[ Script ] "crash-seed" ~docv:"N"
      ~doc:"Seed for the crash/wedge schedule." Arg.int 42 p
  and+ drop_simd_at =
    option_flag ~for_:[ Chaos ] "drop-simd-at" ~docv:"EVENT"
      ~doc:
        "Trace event index at which the serving target loses SIMD capability \
         (rejuvenates down to scalar)."
      Arg.(some int) None p
  and+ oracle_every =
    option_flag ~for_:[ Chaos ] "oracle-every" ~docv:"N"
      ~doc:
        "Differential-oracle sampling period in JIT runs (1 checks every run, \
         guaranteeing zero escaped wrong outputs)."
      Arg.int 1 p
  and+ retry_budget =
    option_flag ~for_:[ Chaos ] "retry-budget" ~docv:"N"
      ~doc:"Compile retry attempts against injected transient faults." Arg.int
      3 p
  in
  {
    no_faults; chaos; corrupt_rate; compile_fault_rate; store_corrupt_rate;
    stall_rate; disconnect_rate; deadline_exhaust_rate; crash_rate;
    wedge_rate; crash_seed; drop_simd_at; oracle_every; retry_budget;
  }

(* What a run writes besides its report. *)
type outputs = {
  metrics : string option;
  trace : string option;
  trace_deterministic : bool;
  json : bool;
}

let outputs_term p =
  let open Term.Syntax in
  let+ metrics =
    option_flag ~for_:[ Replay; Bench; Fleet; Script ] "metrics" ~docv:"FILE"
      ~doc:
        "Export the metrics registry (counters, histograms, observability \
         gauges, and the serve.* gauges and per-target counters where the run \
         has them) to $(docv): Prometheus text format, or JSON when $(docv) \
         ends in .json."
      Arg.(some string) None p
  and+ trace =
    option_flag ~for_:[ Replay; Bench ] "trace" ~docv:"FILE"
      ~doc:
        "Write a structured span trace of the run to $(docv) as JSONL: one \
         replay_event root span per executed event (plus a batch_dispatch \
         marker per dispatched batch when serving), with \
         cache_lookup/compile/exec/oracle child spans and pipeline-stage leaf \
         spans beneath it.  The report is byte-identical with and without \
         tracing."
      Arg.(some string) None p
  and+ trace_deterministic =
    switch_flag ~for_:[ Replay; Bench ] "trace-deterministic"
      ~doc:
        "Omit wall-clock fields from the span trace, leaving only the \
         deterministic ordinal clock — the trace is then byte-identical for \
         any --domains value." p
  and+ json =
    switch_flag ~for_:[ Replay; Fleet ] "json"
      ~doc:"Print the report as JSON instead of the text tables." p
  in
  { metrics; trace; trace_deterministic; json }

(* --- the shared builders ------------------------------------------------- *)

let resolve_kernels =
  Option.map (List.map (fun n -> (resolve_kernel n).Suite.name))

let resolve_policy name =
  match Ingress.policy_of_string name with
  | Some p -> p
  | None -> die_unknown ~what:"policy" ~given:name ~valid:[ "block"; "shed" ]

let standard_trace src ~n_targets =
  Trace.standard ~seed:src.seed ?kernels:(resolve_kernels src.kernels)
    ~length:src.length ~n_targets ()

let trace_workload src trace =
  Workload.of_trace ~streams:src.streams ~policy:(resolve_policy src.policy)
    ~queue_cap:src.queue_cap ?deadline:src.deadline
    ?stream_deadline:src.stream_deadline ~interval:src.interval
    ~priority_levels:src.priority_levels trace

(* The fault injector a run's flags ask for, and the guard around it.
   [chaos] injects the full mix with the differential oracle on (the
   serving-shaped rates only when [serving]).  Otherwise a nonzero
   --crash-rate or --wedge-rate builds a crash-only injector: every
   primary-stream rate stays zero, so the run draws nothing but the
   dedicated crash/wedge stream, and with no oracle its recovered report
   is byte-identical to an injector-free baseline. *)
let injector flt ~chaos ~serving ~seed =
  let crash_only =
    {
      Faults.default_spec with
      Faults.f_seed = seed;
      f_shard_crash_rate = flt.crash_rate;
      f_lane_wedge_rate = flt.wedge_rate;
    }
  in
  let serving_rate r = if serving then r else 0.0 in
  let spec =
    if chaos then
      Some
        {
          crash_only with
          Faults.f_corrupt_rate = flt.corrupt_rate;
          f_compile_fault_rate = flt.compile_fault_rate;
          f_drop_simd_at = flt.drop_simd_at;
          f_store_corrupt_rate = flt.store_corrupt_rate;
          f_stall_rate = serving_rate flt.stall_rate;
          f_disconnect_rate = serving_rate flt.disconnect_rate;
          f_deadline_exhaust_rate = serving_rate flt.deadline_exhaust_rate;
        }
    else if flt.crash_rate > 0.0 || flt.wedge_rate > 0.0 then Some crash_only
    else None
  in
  let faults = Option.map Faults.make spec in
  let guard =
    match faults with
    | None -> Tiered.no_guard
    | Some f ->
      {
        Tiered.g_oracle =
          (if chaos then
             Some
               {
                 Tiered.op_first_run = true;
                 op_sample_every = max 1 flt.oracle_every;
               }
           else None);
        g_faults = Some f;
        g_retry_budget = flt.retry_budget;
      }
  in
  faults, guard

(* The one builder of [Service.config]; opens the --store. *)
let service_config ?(retargets = []) ?(label_targets = false) ?drop_simd_at
    rt ~targets ~guard =
  let store = Option.map (open_store_or_die ~create:true) rt.store in
  let engine =
    match Tiered.engine_of_string rt.engine with
    | Some e -> e
    | None ->
      die_unknown ~what:"engine" ~given:rt.engine ~valid:[ "fast"; "reference" ]
  in
  (* only serve-replay rejuvenates, from its one target; at the head of
     the retarget list it fires first among triggers due at one event *)
  let rejuvenate =
    Option.map
      (fun name -> rt.rejuvenate_at, List.hd targets, resolve_target name)
      rt.rejuvenate_to
  in
  {
    (Service.default_config ~targets) with
    Service.cfg_profile = rt.profile;
    cfg_hotness = rt.hotness;
    cfg_max_entries = rt.cache_entries;
    cfg_max_bytes = rt.cache_bytes;
    cfg_retargets = Option.to_list rejuvenate @ retargets;
    cfg_guard = guard;
    cfg_drop_simd =
      Option.map (fun at -> at, Targets.find "scalar") drop_simd_at;
    cfg_label_targets = label_targets;
    cfg_engine = engine;
    cfg_store = store;
  }

(* The one builder of [Serve.cfg]. *)
let serve_config srv service ~faults =
  {
    (Serve.default_cfg service) with
    Serve.sv_domains = srv.domains;
    sv_lanes = srv.lanes;
    sv_budget = srv.budget;
    sv_backlog = (if srv.backlog <= 0 then None else Some srv.backlog);
    sv_faults = faults;
    sv_breaker_threshold = srv.breaker_threshold;
    sv_breaker_cooldown = srv.breaker_cooldown;
    sv_max_batch = srv.max_batch;
    sv_batch_window = srv.batch_window;
    sv_checkpoint_every = srv.checkpoint_every;
    sv_journal_dir = srv.journal;
    sv_restart_limit = srv.restart_limit;
    sv_lane_stall_limit = srv.lane_stall_limit;
  }

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

(* Run one engine path with a fresh registry and the tracer --trace asks
   for, then write the --trace and --metrics files. *)
let with_exports out run =
  let stats = Stats.create () in
  let tracer =
    match out.trace with
    | None -> Vapor_obs.Tracer.disabled
    | Some _ -> Vapor_obs.Tracer.create ~wall:(not out.trace_deterministic) ()
  in
  let result = run ~stats ~tracer in
  Option.iter
    (fun path -> write_file path (Vapor_obs.Tracer.to_jsonl tracer))
    out.trace;
  Option.iter
    (fun path ->
      write_file path
        (if Filename.check_suffix path ".json" then Stats.to_json stats
         else Stats.to_prometheus stats))
    out.metrics;
  stats, result

(* The two engine paths every preset runs through. *)
let replay srv out cfg trace =
  with_exports out (fun ~stats ~tracer ->
      Service.replay ~stats ~tracer ~domains:srv.domains cfg trace)

let serve srv out cfg ~faults wl =
  with_exports out (fun ~stats ~tracer ->
      Serve.run ~stats ~tracer (serve_config srv cfg ~faults) wl)

let print_header name (target : Vapor_targets.Target.t) rt extra =
  Printf.printf "%s on %s (%s profile, hotness %d%s)\n" name
    target.Vapor_targets.Target.name rt.profile.Profile.name rt.hotness extra

let print_runtime_metrics stats =
  Printf.printf "runtime metrics:\n%s" (Stats.to_table stats)

let escaped_mismatches (rp : Service.report) =
  rp.Service.rp_oracle_mismatches - rp.Service.rp_quarantines

(* The serving verdict: exit 1 on an escaped mismatch (when [chaos]) or on
   any arrival lost outside the typed outcomes. *)
let serve_verdict ?(name = "serve") ?(lost_note = "") ?(ok_note = "")
    (rep : Serve.report) ~chaos =
  let escaped = escaped_mismatches rep.Serve.sr_service in
  if (chaos && escaped > 0) || rep.Serve.sr_lost <> 0 then begin
    Printf.printf
      "%s verdict: FAIL — %d mismatch(es) without quarantine, %d lost \
       event(s)%s\n"
      name (max 0 escaped) rep.Serve.sr_lost lost_note;
    exit 1
  end
  else
    Printf.printf
      "%s verdict: OK — every arrival accounted (%d answered, %d shed, %d \
       timed out, %d disconnected, 0 lost%s)\n"
      name rep.Serve.sr_answered
      (rep.Serve.sr_shed_ingress + rep.Serve.sr_shed_overload
     + rep.Serve.sr_crash_shed)
      (rep.Serve.sr_deadline_misses + rep.Serve.sr_stream_deadline_misses
     + rep.Serve.sr_injected_exhaustions + rep.Serve.sr_lane_stalls)
      rep.Serve.sr_disconnected ok_note

(* The serve script language, one directive per line ('#' comments):

     stream <id> [priority=N] [policy=block|shed] [cap=N]
                 [deadline=N] [stream-deadline=N]
     event <stream-id> <kernel> [at=CYCLES] [scale=N]
     drain

   Stream ids must be dense (0..n-1).  Events keep their input order as
   the global sequence; arrivals are sorted by (at, sequence).  'drain'
   (optional) ends the script; serving always finishes with the full
   graceful drain. *)

let parse_serve_script lines =
  let streams = Hashtbl.create 8 in
  let events = ref [] in
  let n_events = ref 0 in
  let fail lineno msg =
    Printf.eprintf "vaporc serve: line %d: %s\n" lineno msg;
    exit 2
  in
  let kv_int lineno s =
    match int_of_string_opt s with
    | Some v -> v
    | None -> fail lineno (Printf.sprintf "expected an integer, got '%s'" s)
  in
  let split_kv lineno tok =
    match String.index_opt tok '=' with
    | None -> fail lineno (Printf.sprintf "expected key=value, got '%s'" tok)
    | Some i ->
      ( String.sub tok 0 i,
        String.sub tok (i + 1) (String.length tok - i - 1) )
  in
  let done_ = ref false in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line =
        match String.index_opt line '#' with
        | Some j -> String.sub line 0 j
        | None -> line
      in
      let toks =
        String.split_on_char ' ' (String.trim line)
        |> List.filter (fun t -> t <> "")
      in
      if (not !done_) && toks <> [] then
        match toks with
        | [ "drain" ] -> done_ := true
        | "stream" :: id :: opts ->
          let id = kv_int lineno id in
          let priority = ref 0 in
          let policy = ref Ingress.Block in
          let cap = ref 16 in
          let deadline = ref None in
          let stream_deadline = ref None in
          List.iter
            (fun tok ->
              let k, v = split_kv lineno tok in
              match k with
              | "priority" -> priority := kv_int lineno v
              | "policy" -> policy := resolve_policy v
              | "cap" -> cap := kv_int lineno v
              | "deadline" -> deadline := Some (kv_int lineno v)
              | "stream-deadline" ->
                stream_deadline := Some (kv_int lineno v)
              | _ -> fail lineno (Printf.sprintf "unknown stream option '%s'" k))
            opts;
          Hashtbl.replace streams id
            (Workload.stream ~id ~priority:!priority ~policy:!policy
               ~queue_cap:!cap ?deadline:!deadline
               ?stream_deadline:!stream_deadline ())
        | "event" :: sid :: kernel :: opts ->
          let sid = kv_int lineno sid in
          let at = ref 0 in
          let scale = ref 2 in
          List.iter
            (fun tok ->
              let k, v = split_kv lineno tok in
              match k with
              | "at" -> at := kv_int lineno v
              | "scale" -> scale := kv_int lineno v
              | _ -> fail lineno (Printf.sprintf "unknown event option '%s'" k))
            opts;
          let kernel = (resolve_kernel kernel).Suite.name in
          events := (!at, !n_events, sid, kernel, !scale) :: !events;
          incr n_events
        | cmd :: _ ->
          fail lineno (Printf.sprintf "unknown directive '%s'" cmd)
        | [] -> ())
    lines;
  let events = List.rev !events in
  (* Dense stream table: every referenced id must exist (or be declared);
     undeclared referenced ids get the defaults. *)
  List.iter
    (fun (_, _, sid, _, _) ->
      if not (Hashtbl.mem streams sid) then
        Hashtbl.replace streams sid (Workload.stream ~id:sid ()))
    events;
  let n_streams = Hashtbl.length streams in
  let wl_streams =
    Array.init n_streams (fun i ->
        match Hashtbl.find_opt streams i with
        | Some s -> s
        | None ->
          Printf.eprintf
            "vaporc serve: stream ids must be dense 0..%d (missing %d)\n"
            (n_streams - 1) i;
          exit 2)
  in
  let sorted =
    List.stable_sort
      (fun (at1, seq1, _, _, _) (at2, seq2, _, _, _) ->
        match compare at1 at2 with 0 -> compare seq1 seq2 | c -> c)
      events
  in
  let stream_seqs = Array.make (max 1 n_streams) 0 in
  let arrivals =
    List.map
      (fun (at, seq, sid, kernel, scale) ->
        let k = stream_seqs.(sid) in
        stream_seqs.(sid) <- k + 1;
        {
          Workload.ar_at = at;
          ar_seq = seq;
          ar_stream = sid;
          ar_stream_seq = k;
          ar_event =
            {
              Trace.ev_index = seq;
              ev_kernel = kernel;
              ev_target = 0;
              ev_scale = scale;
            };
        })
      sorted
  in
  let kernels =
    List.sort_uniq compare
      (List.map (fun (_, _, _, k, _) -> k) events)
  in
  {
    Workload.wl_desc =
      Printf.sprintf "serve-script(%d events, %d streams)" !n_events
        n_streams;
    wl_kernels = kernels;
    wl_streams;
    wl_arrivals = Array.of_list arrivals;
  }

(* --- heterogeneous fleet -------------------------------------------------
   A seeded mixed population of machine descriptors over the seven target
   archetypes; SVE machines draw a per-machine vector length from
   {128, 256, 512} bits and are pinned to it (late-bound VF resolved at
   the machine).  splitmix64, self-contained like {!Trace}'s. *)

let fleet_population ~seed ~machines : Vapor_targets.Target.t list =
  let module T = Vapor_targets.Target in
  let state = ref (Int64.of_int (0x5eed0000 + seed)) in
  let mix () =
    state := Int64.add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)
  in
  let rand n =
    Int64.to_int (Int64.rem (Int64.logand (mix ()) Int64.max_int) (Int64.of_int n))
  in
  List.init machines (fun _ ->
      match rand 7 with
      | 0 -> Targets.target (* scalar *)
      | 1 -> Vapor_targets.Sse.target
      | 2 -> Vapor_targets.Avx.target
      | 3 -> Vapor_targets.Neon.target
      | 4 -> Vapor_targets.Altivec.target
      | 5 -> T.resolve ~vl:(16 lsl rand 3) Vapor_targets.Sve.target
      | _ -> Vapor_targets.Avx512.target)

let fleet_describe (targets : Vapor_targets.Target.t list) =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun (t : Vapor_targets.Target.t) ->
      let n = Option.value ~default:0 (Hashtbl.find_opt counts t.Vapor_targets.Target.name) in
      Hashtbl.replace counts t.Vapor_targets.Target.name (n + 1))
    targets;
  Hashtbl.fold (fun name n acc -> (name, n) :: acc) counts []
  |> List.sort compare
  |> List.map (fun (name, n) -> Printf.sprintf "%s:%d" name n)
  |> String.concat " "

(* The fleet's mid-trace capability changes: SSE machines upgrade to
   AVX-512 and NEON machines to SVE (the Revec rejuvenation scenario, in
   the upgrade direction), plus an optional AVX -> scalar drop. *)
let fleet_retargets ~upgrade_at ~drop_at =
  let module T = Vapor_targets.Target in
  let ups =
    match upgrade_at with
    | None -> []
    | Some at ->
      [
        at, Vapor_targets.Sse.target, Vapor_targets.Avx512.target;
        at, Vapor_targets.Neon.target, T.resolve Vapor_targets.Sve.target;
      ]
  in
  let drops =
    match drop_at with
    | None -> []
    | Some at -> [ at, Vapor_targets.Avx.target, Targets.target ]
  in
  ups @ drops

let print_target_counters (stats : Stats.t) =
  let rows =
    List.filter
      (fun name -> String.length name > 7 && String.sub name 0 7 = "target.")
      (Stats.counter_names stats)
  in
  if rows <> [] then begin
    Printf.printf "per-target runs:\n";
    List.iter
      (fun name -> Printf.printf "  %-36s %d\n" name (Stats.counter stats name))
      rows
  end

(* --- the presets ---------------------------------------------------------- *)

let serve_replay rt src srv _flt out =
  let target = resolve_target rt.target in
  let cfg = service_config rt ~targets:[ target ] ~guard:Tiered.no_guard in
  let stats, report = replay srv out cfg (standard_trace src ~n_targets:1) in
  if out.json then print_string (Service.report_to_json report)
  else begin
    print_header "serve-replay" target rt "";
    Service.print_report report;
    print_runtime_metrics stats
  end

let chaos_replay rt src srv flt out =
  let target = resolve_target rt.target in
  let chaos = not flt.no_faults and serving = src.streams > 0 in
  let faults, guard = injector flt ~chaos ~serving ~seed:src.seed in
  let cfg =
    service_config rt ~targets:[ target ] ~guard
      ?drop_simd_at:(if chaos then flt.drop_simd_at else None)
  in
  let trace = standard_trace src ~n_targets:1 in
  if serving then begin
    let stats, rep = serve srv out cfg ~faults (trace_workload src trace) in
    print_header "chaos-serve" target rt
      (Printf.sprintf ", seed %d, %d streams" src.seed src.streams);
    if chaos then
      Printf.printf
        "  faults: corrupt %.2f, compile-fault %.2f, stall %.2f, disconnect \
         %.2f, deadline-exhaust %.2f\n"
        flt.corrupt_rate flt.compile_fault_rate flt.stall_rate
        flt.disconnect_rate flt.deadline_exhaust_rate;
    Serve.print_report rep;
    print_runtime_metrics stats;
    serve_verdict rep ~chaos ~name:"chaos"
      ~lost_note:" outside shedding/timeout/disconnect accounting"
      ~ok_note:", 0 wrong outputs"
  end
  else begin
    let stats, report = replay srv out cfg trace in
    if not chaos then
      (* No faults, no oracle: this IS a serve-replay, printed
         byte-identically so the healthy path is provably unchanged. *)
      print_header "serve-replay" target rt ""
    else begin
      print_header "chaos-replay" target rt
        (Printf.sprintf ", seed %d" src.seed);
      Printf.printf
        "  faults: corrupt %.2f, compile-fault %.2f, drop-simd %s, oracle \
         every %d run(s), retry budget %d\n"
        flt.corrupt_rate flt.compile_fault_rate
        (match flt.drop_simd_at with
        | Some at -> Printf.sprintf "@%d" at
        | None -> "off")
        (max 1 flt.oracle_every) flt.retry_budget;
      if flt.store_corrupt_rate > 0.0 then
        Printf.printf "  store faults: corrupt %.2f on probe reads\n"
          flt.store_corrupt_rate
    end;
    Service.print_report report;
    print_runtime_metrics stats;
    if chaos then begin
      let escaped = escaped_mismatches report in
      if escaped > 0 then begin
        Printf.printf
          "chaos verdict: FAIL — %d mismatch(es) without quarantine\n" escaped;
        exit 1
      end
      else
        Printf.printf
          "chaos verdict: OK — every injected fault was absorbed (%d \
           corrupted, %d injected compile faults, %d quarantines, %d \
           retries, 0 wrong outputs)\n"
          report.Service.rp_corrupted_bodies
          report.Service.rp_injected_compile report.Service.rp_quarantines
          report.Service.rp_retries
    end
  end

let serve_bench rt src srv flt out =
  let target = resolve_target rt.target in
  let faults, guard =
    injector flt ~chaos:flt.chaos ~serving:true ~seed:src.seed
  in
  let cfg = service_config rt ~targets:[ target ] ~guard in
  let wl = trace_workload src (standard_trace src ~n_targets:1) in
  let stats, rep = serve srv out cfg ~faults wl in
  print_header "serve-bench" target rt (Printf.sprintf ", seed %d" src.seed);
  Serve.print_report rep;
  print_runtime_metrics stats;
  serve_verdict rep ~chaos:flt.chaos

let fleet_replay rt src srv _flt out =
  let population =
    fleet_population ~seed:src.fleet_seed ~machines:src.machines
  in
  let upgrade_at =
    match src.upgrade_at with
    | Some at when at < 0 -> None
    | Some at -> Some at
    | None -> Some (src.length / 3)
  in
  let cfg =
    service_config rt ~targets:population ~guard:Tiered.no_guard
      ~retargets:(fleet_retargets ~upgrade_at ~drop_at:src.drop_at)
      ~label_targets:true
  in
  let trace = standard_trace src ~n_targets:src.machines in
  let stats, rep = serve srv out cfg ~faults:None (trace_workload src trace) in
  if out.json then print_string (Service.report_to_json rep.Serve.sr_service)
  else begin
    Printf.printf
      "fleet-replay: %d machines [%s], %d events (seed %d, %s profile)\n"
      src.machines (fleet_describe population) src.length src.seed
      rt.profile.Profile.name;
    Option.iter
      (Printf.printf "  upgrades at event %d: sse -> avx512, neon -> sve\n")
      upgrade_at;
    Option.iter
      (Printf.printf "  drop at event %d: avx -> scalar\n")
      src.drop_at;
    Serve.print_report rep;
    print_target_counters stats
  end;
  serve_verdict rep ~chaos:false

let serve_script rt src srv flt out =
  let target = resolve_target rt.target in
  let fleet = src.fleet > 0 in
  let population =
    if fleet then fleet_population ~seed:src.fleet_seed ~machines:src.fleet
    else [ target ]
  in
  let faults, guard =
    injector flt ~chaos:false ~serving:true ~seed:flt.crash_seed
  in
  let cfg =
    service_config rt ~targets:population ~guard ~label_targets:fleet
  in
  let text =
    match src.script with
    | Some path -> In_channel.with_open_text path In_channel.input_all
    | None -> In_channel.input_all stdin
  in
  let wl = parse_serve_script (String.split_on_char '\n' text) in
  if Array.length wl.Workload.wl_arrivals = 0 then begin
    Printf.eprintf "vaporc serve: the script contains no events\n";
    exit 2
  end;
  let wl =
    (* Scripted events all carry ev_target = 0; a fleet spreads them
       round-robin (by global arrival sequence) over the population so
       every machine archetype serves traffic. *)
    if not fleet then wl
    else
      {
        wl with
        Workload.wl_arrivals =
          Array.map
            (fun a ->
              {
                a with
                Workload.ar_event =
                  {
                    a.Workload.ar_event with
                    Trace.ev_target = a.Workload.ar_seq mod src.fleet;
                  };
              })
            wl.Workload.wl_arrivals;
      }
  in
  if fleet then
    Printf.printf "fleet    : %d machines (%s), seed %d\n" src.fleet
      (fleet_describe population) src.fleet_seed;
  let stats, rep = serve srv out cfg ~faults wl in
  Serve.print_report rep;
  if fleet then print_target_counters stats;
  serve_verdict rep ~chaos:false

let serving_cmds =
  List.map
    (fun (p, name, doc, run) ->
      Cmd.v (Cmd.info name ~doc)
        Term.(
          const run $ runtime_term p $ source_term p $ serving_term p
          $ faults_term p $ outputs_term p))
    [
      ( Replay,
        "serve-replay",
        "Replay a seeded synthetic workload through the tiered runtime \
         (interpreter -> JIT promotion, content-addressed code cache) and \
         print throughput, amortized compile cost, and cache statistics.",
        serve_replay );
      ( Chaos,
        "chaos-replay",
        "Replay the standard trace while deterministically injecting faults \
         (corrupted cached bodies, transient compile failures, mid-trace SIMD \
         loss) with the differential oracle checking every JIT run: the \
         runtime must absorb every fault with zero wrong outputs.",
        chaos_replay );
      ( Bench,
        "serve-bench",
        "Drive a deterministic multi-stream load through the serving layer \
         (bounded ingress queues, admission budget, deadlines, per-kernel \
         circuit breakers, graceful drain) entirely in-process over virtual \
         time — no sockets, byte-identical output per seed and flags.",
        serve_bench );
      ( Script,
        "serve",
        "Serve a scripted stream workload ('stream'/'event'/'drain' lines \
         from stdin or --script) through the resilient serving layer and \
         print the drain report.  The same virtual-time engine as \
         serve-bench: deterministic, no sockets.",
        serve_script );
      ( Fleet,
        "fleet-replay",
        "Drive one vectorized bytecode stream through a seeded heterogeneous \
         fleet of scalar/SSE/AVX/NEON/AltiVec/SVE/AVX-512 machines, with \
         mid-trace capability upgrades (SSE to AVX-512, NEON to SVE) \
         rejuvenating cached code, per-target labeled metrics, and the \
         serving layer's conservation checks.",
        fleet_replay );
    ]

(* --- vaporc cache: persistent-store maintenance -------------------------
   None of these create a store: pointing them at a missing or unusable
   directory is a user error (exit 2), per the unknown-name convention —
   `cache verify` silently conjuring an empty store would report a
   corrupted one as clean. *)

let cache_cmd =
  let store_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "The persistent code store to operate on.  Never created: a \
             missing or unusable $(docv) exits 2.")
  in
  let hex_short k =
    let h = String.concat ""
        (List.map (Printf.sprintf "%02x")
           (List.init (String.length k.Store.sk_digest) (fun i ->
                Char.code k.Store.sk_digest.[i])))
    in
    String.sub h 0 (min 10 (String.length h))
  in
  let summary s =
    Printf.printf "%d valid entries (%d bytes), %d quarantined\n"
      (Store.entry_count s) (Store.byte_count s) (Store.quarantined_count s)
  in
  let ls_cmd =
    let run path =
      let s = open_store_or_die ~create:false path in
      let rows = Store.rows s in
      if rows <> [] then begin
        Printf.printf "%-12s %-8s %-9s %-18s %8s %6s  %s\n" "digest" "target"
          "profile" "kernel" "bytes" "tick" "status";
        List.iter
          (fun (r : Store.index_row) ->
            Printf.printf "%-12s %-8s %-9s %-18s %8d %6d  %s\n"
              (hex_short r.Store.ix_key)
              r.Store.ix_key.Store.sk_target r.Store.ix_key.Store.sk_profile
              (Option.value ~default:"-" (Store.row_kernel_name s r))
              r.Store.ix_bytes r.Store.ix_tick
              (match r.Store.ix_status with
              | Store.Valid -> "valid"
              | Store.Quarantined -> "QUARANTINED"))
          rows
      end;
      summary s
    in
    Cmd.v
      (Cmd.info "ls" ~doc:"List every store entry (valid and quarantined).")
      Term.(const run $ store_arg)
  in
  let verify_cmd =
    let run path =
      let s = open_store_or_die ~create:false path in
      let failures = Store.verify s in
      List.iter
        (fun (k, reason) ->
          Printf.printf "FAIL %s: %s\n" (Store.key_to_string k) reason)
        failures;
      summary s;
      if failures = [] then print_endline "verify: OK"
      else begin
        Printf.printf "verify: %d corrupt entr%s quarantined\n"
          (List.length failures)
          (if List.length failures = 1 then "y" else "ies");
        exit 1
      end
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Re-check every valid entry against its checksum and key; \
            quarantine failures and exit 1 if any were found.")
      Term.(const run $ store_arg)
  in
  let gc_cmd =
    let max_entries_arg =
      Arg.(
        value
        & opt (some int) None
        & info [ "max-entries" ] ~docv:"N"
            ~doc:"Entry budget to enforce (default: the store's own).")
    in
    let max_bytes_arg =
      Arg.(
        value
        & opt (some int) None
        & info [ "max-bytes" ] ~docv:"BYTES"
            ~doc:"Payload-byte budget to enforce (default: the store's own).")
    in
    let run path max_entries max_bytes =
      let s = open_store_or_die ~create:false path in
      let evicted = Store.gc ?max_entries ?max_bytes s in
      Printf.printf "gc: evicted %d entr%s\n" evicted
        (if evicted = 1 then "y" else "ies");
      summary s
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:
           "Evict least-recently-used entries beyond the budgets and sweep \
            leftover staging directories.")
      Term.(const run $ store_arg $ max_entries_arg $ max_bytes_arg)
  in
  let clear_cmd =
    let run path =
      let s = open_store_or_die ~create:false path in
      Store.clear s;
      print_endline "cleared";
      summary s
    in
    Cmd.v
      (Cmd.info "clear"
         ~doc:"Delete every entry (and quarantined file) in the store.")
      Term.(const run $ store_arg)
  in
  Cmd.group
    (Cmd.info "cache"
       ~doc:
         "Inspect and maintain a persistent code store (see serve-replay \
          --store).")
    [ ls_cmd; verify_cmd; gc_cmd; clear_cmd ]

(* --- vaporc journal: admission-journal maintenance ----------------------
   Operates on a --journal directory written by serve/serve-bench:
   VAPORJNL segments and VAPORCKP checkpoint artifacts.  Never creates
   one — verifying a conjured empty directory would call corruption
   clean. *)

let journal_cmd =
  let dir_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR"
          ~doc:
            "The journal directory (see serve-bench --journal).  Never \
             created: a missing $(docv) exits 2.")
  in
  let verify_cmd =
    let run dir =
      match Vapor_serve.Journal.verify_dir dir with
      | Error msg ->
        Printf.printf "journal verify: FAIL — %s\n" msg;
        exit 1
      | Ok s ->
        Printf.printf
          "journal verify: OK — %d segment(s), %d frame(s) (%d admits / \
           %d completes), %d checkpoint artifact(s)\n"
          s.Vapor_serve.Journal.ds_segments s.Vapor_serve.Journal.ds_frames
          s.Vapor_serve.Journal.ds_admits s.Vapor_serve.Journal.ds_completes
          s.Vapor_serve.Journal.ds_checkpoints
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Decode every journal segment and checkpoint artifact under \
            DIR, checking framing and checksums; exit 1 on the first \
            corruption.")
      Term.(const run $ dir_arg)
  in
  Cmd.group
    (Cmd.info "journal"
       ~doc:
         "Inspect a serving-layer admission journal (see serve-bench \
          --journal).")
    [ verify_cmd ]

let jit_report_cmd =
  let targets_arg =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "t"; "targets" ] ~docv:"NAMES"
          ~doc:"Comma-separated targets to profile (default: all).")
  in
  let kernels_arg =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "k"; "kernels" ] ~docv:"NAMES"
          ~doc:"Comma-separated suite kernels (default: the whole suite).")
  in
  let invocations_arg =
    Arg.(
      value & opt int 1000
      & info [ "invocations" ] ~docv:"N"
          ~doc:
            "Invocation count for the amortized compile-share column \
             (modeled compile time vs N modeled executions).")
  in
  let repeats_arg =
    Arg.(
      value & opt int 3
      & info [ "repeats" ] ~docv:"N"
          ~doc:"Wall-clock timing repeats per kernel; the best is reported.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the rows as JSON instead of a table.")
  in
  let run targets profile kernels invocations repeats scale json =
    let targets =
      match targets with
      | Some names -> List.map resolve_target names
      | None -> Targets.all
    in
    let kernels = resolve_kernels kernels in
    let rows =
      Vapor_harness.Jit_report.run ~repeats ~invocations ~scale ?kernels
        ~targets ~profile ()
    in
    if json then print_string (Vapor_harness.Jit_report.to_json rows)
    else begin
      Printf.printf
        "jit-report (%s profile, compile share at %d invocations)\n"
        profile.Profile.name invocations;
      print_string
        (Vapor_harness.Jit_report.table_to_string ~invocations rows)
    end
  in
  Cmd.v
    (Cmd.info "jit-report"
       ~doc:
         "Profile the online compiler: per (kernel, target), the chosen \
          vectorization factor, alignment strategy, guard resolution, \
          per-stage compile times (lower/emit/regalloc/prepare), code \
          footprint, and the amortized compile share after N invocations.")
    Term.(
      const run $ targets_arg $ profile_arg $ kernels_arg $ invocations_arg
      $ repeats_arg $ scale_arg $ json_arg)

let experiments_cmd =
  let run scale =
    let rows, mean = E.fig5 ~target:Vapor_targets.Sse.target ~scale in
    R.print_rows
      ~title:"Figure 5a: Mono normalized vectorization impact, SSE (128-bit)"
      ~value_label:"higher is better" ~mean_label:"Arith. Mean" ~mean rows;
    let rows, mean = E.fig5 ~target:Vapor_targets.Altivec.target ~scale in
    R.print_rows
      ~title:
        "Figure 5b: Mono normalized vectorization impact, AltiVec (128-bit)"
      ~value_label:"higher is better" ~mean_label:"Arith. Mean" ~mean rows;
    List.iter
      (fun (tag, target) ->
        let rows, mean = E.fig6 ~target ~scale in
        R.print_rows
          ~title:
            (Printf.sprintf "Figure 6%s: gcc4cli normalized execution time, %s"
               tag target.Vapor_targets.Target.name)
          ~value_label:"lower is better" ~mean_label:"Har. Mean" ~mean rows)
      [
        "a", Vapor_targets.Sse.target;
        "b", Vapor_targets.Altivec.target;
        "c", Vapor_targets.Neon.target;
      ];
    R.print_table3 (E.table3 ());
    List.iter
      (fun target ->
        let rows, mean = E.ablation ~target ~scale in
        R.print_rows
          ~title:
            (Printf.sprintf
               "Ablation V-A.b: alignment optimizations disabled, %s"
               target.Vapor_targets.Target.name)
          ~value_label:"degradation factor" ~mean_label:"Average" ~mean rows)
      [ Vapor_targets.Sse.target; Vapor_targets.Altivec.target ];
    R.print_compile_stats (E.compile_stats ())
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Regenerate every figure and table of the paper's evaluation.")
    Term.(const run $ scale_arg)

let () =
  let info =
    Cmd.info "vaporc" ~version:"1.0.0"
      ~doc:"Vapor SIMD: auto-vectorize once, run everywhere."
  in
  let group =
    Cmd.group info
      ([
         list_cmd; dump_ir_cmd; vectorize_cmd; lower_cmd; run_cmd;
         conform_cmd; stat_cmd; encode_cmd; disasm_cmd;
       ]
      @ serving_cmds
      @ [ cache_cmd; journal_cmd; jit_report_cmd; experiments_cmd ])
  in
  let die msg =
    prerr_endline ("vaporc: " ^ msg);
    exit 1
  in
  match Cmd.eval ~catch:false group with
  | code -> exit code
  | exception Vapor_frontend.Lexer.Lex_error msg -> die msg
  | exception Vapor_frontend.Parser.Parse_error msg -> die msg
  | exception Vapor_frontend.Typecheck.Error msg -> die ("type error: " ^ msg)
  | exception Failure msg -> die msg
  | exception Invalid_argument msg -> die msg
  | exception Sys_error msg -> die msg
  | exception Vapor_vecir.Encode.Decode_error msg ->
    die ("bytecode decode error: " ^ msg)
