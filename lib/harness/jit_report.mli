(** The JIT cost profiler: compile suite kernels per target with
    {!Vapor_obs.Stage} timers installed and tabulate the online
    compiler's decisions (VF, alignment strategy, guard resolution)
    against its costs (per-stage wall ns, code bytes, modeled compile
    time, amortized compile share).

    Wall-clock columns are measured (best of [repeats]); the VF, guard,
    footprint, modeled-time, and cycle columns are deterministic — they
    come from the same models the replay runtime charges. *)

module Target := Vapor_targets.Target
module Profile := Vapor_jit.Profile
module Suite := Vapor_kernels.Suite

type row = {
  jr_kernel : string;
  jr_target : string;
  jr_vf : int;  (** lanes of the narrowest vectorized type; 1 = scalar *)
  jr_align : string;  (** aligned | misaligned | realign | peeled | none *)
  jr_guards_static : int;  (** guards resolved at JIT time *)
  jr_guards_dynamic : int;  (** guards left as runtime tests *)
  jr_lower_ns : float;
  jr_emit_ns : float;
  jr_regalloc_ns : float;
  jr_prepare_ns : float;
  jr_code_bytes : int;  (** cache-charged footprint of the body *)
  jr_compile_us : float;  (** modeled JIT time *)
  jr_exec_cycles : int;  (** one simulated invocation at [scale] *)
  jr_compile_share : float;
      (** compile share of total modeled cost after [invocations] runs,
          pricing a modeled cycle at 1 ns *)
}

val profile_kernel :
  ?repeats:int ->
  ?invocations:int ->
  ?scale:int ->
  target:Target.t ->
  profile:Profile.t ->
  Suite.entry ->
  row

(** All [kernels] (default: the whole suite) on all [targets], in
    (target, kernel) order. *)
val run :
  ?repeats:int ->
  ?invocations:int ->
  ?scale:int ->
  ?kernels:string list ->
  targets:Target.t list ->
  profile:Profile.t ->
  unit ->
  row list

val table_to_string : ?invocations:int -> row list -> string
val to_json : row list -> string

(** {2 Measured scaling}

    Per-stage wall time against kernel size on two synthetic shapes built
    from the saxpy loop, with a least-squares log-log exponent per
    (shape, target, stage): 1.0 is linear. *)

type shape =
  | Copies  (** N copies of one loop *)
  | Statements  (** one loop of N statements *)

(** The vectorized bytecode of a shape at size N. *)
val shape_bytecode : shape -> int -> Vapor_vecir.Bytecode.vkernel

type scaling_row = {
  sc_shape : string;
  sc_target : string;
  sc_stage : string;  (** lower | emit | regalloc | prepare *)
  sc_ns : (int * float) list;  (** (N, best-of-7 wall ns) *)
  sc_exponent : float;  (** fitted slope of log ns over log N *)
  sc_r2 : float;
}

(** Both shapes at N = 2, 4, ..., 128 on every target, best of 7, in
    (shape, target, stage) order. *)
val scaling :
  targets:Target.t list -> profile:Profile.t -> scaling_row list

val scaling_to_string : scaling_row list -> string
val scaling_to_json : scaling_row list -> string
