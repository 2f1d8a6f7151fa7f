(* Deterministic fault injection for the guarded runtime.  Every fault is
   drawn from one seeded splitmix64 stream, so a chaos replay with the
   same seed injects the same faults at the same points in the trace —
   quarantines and retries land identically run after run. *)

module Op = Vapor_ir.Op
module Eval = Vapor_ir.Eval
module Buffer_ = Vapor_ir.Buffer_
module Value = Vapor_ir.Value
module Minstr = Vapor_machine.Minstr
module Mfun = Vapor_machine.Mfun
module Simulator = Vapor_machine.Simulator
module Compile = Vapor_jit.Compile

type spec = {
  f_seed : int;
  f_corrupt_rate : float;  (* P(deliver a corrupted body from the cache) *)
  f_compile_fault_rate : float;  (* P(injected lowering failure per attempt) *)
  f_max_transient : int;  (* injected compile faults clear after N retries *)
  f_drop_simd_at : int option;  (* trace index where SIMD capability drops *)
  f_store_corrupt_rate : float;
      (* P(a persistent-store read comes back with mangled bytes) *)
  (* serving-shaped faults, exercised by the serve engine *)
  f_stall_rate : float;  (* P(the consumer of a response stalls) *)
  f_stall_ticks : int;  (* virtual-cycle length of one consumer stall *)
  f_disconnect_rate : float;  (* P(a stream disconnects mid-run), per stream *)
  f_deadline_exhaust_rate : float;
      (* P(a dispatched event's remaining deadline budget is burned) *)
  (* crash-shaped faults, drawn from a dedicated stream so enabling them
     never perturbs the schedule of any fault above *)
  f_shard_crash_rate : float;
      (* P(the shard dies at a dispatch boundary, before the batch runs) *)
  f_lane_wedge_rate : float;
      (* P(the lane wedges at dispatch: the batch never executes and the
         watchdog must close its members out as typed timeouts) *)
  f_store_io_rate : float;
      (* P(one persistent-store probe/publish IO attempt fails
         transiently; the caller retries with bounded backoff) *)
}

let default_spec =
  {
    f_seed = 1;
    f_corrupt_rate = 0.0;
    f_compile_fault_rate = 0.0;
    f_max_transient = 2;
    f_drop_simd_at = None;
    f_store_corrupt_rate = 0.0;
    f_stall_rate = 0.0;
    f_stall_ticks = 50_000;
    f_disconnect_rate = 0.0;
    f_deadline_exhaust_rate = 0.0;
    f_shard_crash_rate = 0.0;
    f_lane_wedge_rate = 0.0;
    f_store_io_rate = 0.0;
  }

let chaos_spec ~seed =
  {
    default_spec with
    f_seed = seed;
    f_corrupt_rate = 0.05;
    f_compile_fault_rate = 0.25;
    f_max_transient = 2;
  }

(* The serve-bench chaos default: the compile/corruption chaos above plus
   the serving-shaped faults — slow consumers, mid-stream disconnects,
   and deadline-budget exhaustion. *)
let serve_chaos_spec ~seed =
  {
    (chaos_spec ~seed) with
    f_stall_rate = 0.05;
    f_disconnect_rate = 0.2;
    f_deadline_exhaust_rate = 0.02;
  }

type t = {
  spec : spec;
  state : int64 ref;
  (* The crash-shaped faults draw from their own splitmix64 stream:
     [--crash-rate] must be addable to any existing chaos mix without
     moving a single draw of the primary stream, or the crash-free
     baseline the recovery contract diffs against would shift. *)
  crash_state : int64 ref;
  mutable injected_compile : int;
  mutable corrupted : int;
  (* draw counters, for the observability gauges: how many times each
     fault point consulted the stream (fired or not) *)
  mutable corrupt_draws : int;
  mutable compile_draws : int;
  mutable store_draws : int;
  mutable store_corrupted : int;
  mutable stall_draws : int;
  mutable stalls : int;
  mutable disconnect_draws : int;
  mutable disconnects : int;
  mutable deadline_draws : int;
  mutable deadline_exhausts : int;
  mutable crash_draws : int;
  mutable crashes : int;
  mutable wedge_draws : int;
  mutable wedges : int;
  mutable store_io_draws : int;
  mutable store_io_faults : int;
}

(* Distinct offset for the crash stream's initial state (golden-ratio
   constant rotated): seed 0 must still give the two streams different
   trajectories. *)
let crash_stream_of_seed seed =
  Int64.logxor (Int64.of_int seed) 0x6A09E667F3BCC909L

let make spec =
  { spec; state = ref (Int64.of_int spec.f_seed);
    crash_state = ref (crash_stream_of_seed spec.f_seed);
    injected_compile = 0;
    corrupted = 0; corrupt_draws = 0; compile_draws = 0; store_draws = 0;
    store_corrupted = 0; stall_draws = 0; stalls = 0; disconnect_draws = 0;
    disconnects = 0; deadline_draws = 0; deadline_exhausts = 0;
    crash_draws = 0; crashes = 0; wedge_draws = 0; wedges = 0;
    store_io_draws = 0; store_io_faults = 0 }

let spec t = t.spec
let injected_compile_count t = t.injected_compile
let corrupted_count t = t.corrupted
let corrupt_draws t = t.corrupt_draws
let compile_fault_draws t = t.compile_draws
let store_corrupt_draws t = t.store_draws
let store_corrupted_count t = t.store_corrupted
let stall_draws t = t.stall_draws
let stall_count t = t.stalls
let disconnect_draws t = t.disconnect_draws
let disconnect_count t = t.disconnects
let deadline_exhaust_draws t = t.deadline_draws
let deadline_exhaust_count t = t.deadline_exhausts
let crash_draws t = t.crash_draws
let crash_count t = t.crashes
let wedge_draws t = t.wedge_draws
let wedge_count t = t.wedges
let store_io_draws t = t.store_io_draws
let store_io_fault_count t = t.store_io_faults

(* splitmix64, same constants as Trace's generator. *)
let mix (state : int64 ref) : int64 =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let rand_float t =
  Int64.to_float (Int64.shift_right_logical (mix t.state) 11)
  /. 9007199254740992.0

(* Should this compile attempt fail with an injected (transient) fault?
   The first draw decides whether the compile is fault-prone at all;
   retries beyond [f_max_transient] always succeed, so a bounded retry
   loop is guaranteed to converge. *)
let injected_compile_fault t ~attempt : string option =
  if t.spec.f_compile_fault_rate <= 0.0 then None
  else if attempt > t.spec.f_max_transient then None
  else if begin
    t.compile_draws <- t.compile_draws + 1;
    rand_float t < t.spec.f_compile_fault_rate
  end then begin
    t.injected_compile <- t.injected_compile + 1;
    Some
      (Printf.sprintf "injected transient compile fault (attempt %d)" attempt)
  end
  else None

let should_corrupt t =
  t.spec.f_corrupt_rate > 0.0
  && begin
    t.corrupt_draws <- t.corrupt_draws + 1;
    rand_float t < t.spec.f_corrupt_rate
  end

let should_corrupt_store t =
  t.spec.f_store_corrupt_rate > 0.0
  && begin
    t.store_draws <- t.store_draws + 1;
    rand_float t < t.spec.f_store_corrupt_rate
  end

(* Serving-shaped fault points.  Each draws from the same splitmix64
   stream as every other fault point, so one seed fixes the whole chaos
   schedule: stalls, disconnects, and budget burns land at the same
   serve-loop steps run after run. *)

(* [Some ticks] when the consumer of the response just produced stalls
   for [ticks] virtual cycles (the slow-consumer fault: the worker slot
   stays busy while the response drains). *)
let consumer_stall t : int option =
  if t.spec.f_stall_rate <= 0.0 then None
  else if begin
    t.stall_draws <- t.stall_draws + 1;
    rand_float t < t.spec.f_stall_rate
  end then begin
    t.stalls <- t.stalls + 1;
    Some (max 1 t.spec.f_stall_ticks)
  end
  else None

(* One draw per stream (at admission of its first event): does this
   stream disconnect mid-run?  [Some frac] gives the position in the
   stream's own event sequence (fraction in (0,1)) past which every
   event is lost to the disconnect — all of them must still be
   accounted, never silently dropped. *)
let stream_disconnect t : float option =
  if t.spec.f_disconnect_rate <= 0.0 then None
  else if begin
    t.disconnect_draws <- t.disconnect_draws + 1;
    rand_float t < t.spec.f_disconnect_rate
  end then begin
    t.disconnects <- t.disconnects + 1;
    (* strictly inside (0,1): at least one event survives, at least the
       last is lost *)
    Some (0.1 +. (0.8 *. rand_float t))
  end
  else None

(* One draw per dispatched event: is its remaining deadline budget
   burned (the deadline-budget-exhaustion fault)?  The serve loop turns
   this into a typed timeout with buffers untouched. *)
let deadline_exhausted t : bool =
  t.spec.f_deadline_exhaust_rate > 0.0
  && begin
    t.deadline_draws <- t.deadline_draws + 1;
    if rand_float t < t.spec.f_deadline_exhaust_rate then begin
      t.deadline_exhausts <- t.deadline_exhausts + 1;
      true
    end
    else false
  end

(* Crash-shaped fault points.  These draw from [crash_state], never from
   the primary stream: a run with [f_shard_crash_rate = 0.3] draws the
   exact same corruption/stall/disconnect schedule as the same seed with
   [f_shard_crash_rate = 0.0] — the property the byte-identical-recovery
   contract diffs against. *)

let rand_crash_float t =
  Int64.to_float (Int64.shift_right_logical (mix t.crash_state) 11)
  /. 9007199254740992.0

(* One draw per dispatched batch: does the owning shard die right now,
   before any member executes?  The supervisor restores it from the last
   checkpoint and replays the journal suffix. *)
let shard_crash t : bool =
  t.spec.f_shard_crash_rate > 0.0
  && begin
    t.crash_draws <- t.crash_draws + 1;
    if rand_crash_float t < t.spec.f_shard_crash_rate then begin
      t.crashes <- t.crashes + 1;
      true
    end
    else false
  end

(* One draw per dispatched batch: does the lane wedge (hang without
   executing)?  The watchdog closes the members out as typed timeouts at
   the lane-stall limit. *)
let lane_wedge t : bool =
  t.spec.f_lane_wedge_rate > 0.0
  && begin
    t.wedge_draws <- t.wedge_draws + 1;
    if rand_crash_float t < t.spec.f_lane_wedge_rate then begin
      t.wedges <- t.wedges + 1;
      true
    end
    else false
  end

(* One draw per store probe/publish IO attempt, from the primary stream
   (it is a per-shard fault, replayed exactly from a restored injector
   snapshot like every other shard-side draw). *)
let store_io_failure t : bool =
  t.spec.f_store_io_rate > 0.0
  && begin
    t.store_io_draws <- t.store_io_draws + 1;
    if rand_float t < t.spec.f_store_io_rate then begin
      t.store_io_faults <- t.store_io_faults + 1;
      true
    end
    else false
  end

(* --- injector state snapshot -------------------------------------------
   A checkpoint must capture both stream positions and every counter:
   replaying the journal suffix after a restore re-draws the exact fault
   values the crashed shard drew, leaving the stream positioned where the
   crash found it. *)

type snap = {
  sn_state : int64;
  sn_crash_state : int64;
  sn_injected_compile : int;
  sn_corrupted : int;
  sn_corrupt_draws : int;
  sn_compile_draws : int;
  sn_store_draws : int;
  sn_store_corrupted : int;
  sn_stall_draws : int;
  sn_stalls : int;
  sn_disconnect_draws : int;
  sn_disconnects : int;
  sn_deadline_draws : int;
  sn_deadline_exhausts : int;
  sn_crash_draws : int;
  sn_crashes : int;
  sn_wedge_draws : int;
  sn_wedges : int;
  sn_store_io_draws : int;
  sn_store_io_faults : int;
}

let snapshot t =
  {
    sn_state = !(t.state);
    sn_crash_state = !(t.crash_state);
    sn_injected_compile = t.injected_compile;
    sn_corrupted = t.corrupted;
    sn_corrupt_draws = t.corrupt_draws;
    sn_compile_draws = t.compile_draws;
    sn_store_draws = t.store_draws;
    sn_store_corrupted = t.store_corrupted;
    sn_stall_draws = t.stall_draws;
    sn_stalls = t.stalls;
    sn_disconnect_draws = t.disconnect_draws;
    sn_disconnects = t.disconnects;
    sn_deadline_draws = t.deadline_draws;
    sn_deadline_exhausts = t.deadline_exhausts;
    sn_crash_draws = t.crash_draws;
    sn_crashes = t.crashes;
    sn_wedge_draws = t.wedge_draws;
    sn_wedges = t.wedges;
    sn_store_io_draws = t.store_io_draws;
    sn_store_io_faults = t.store_io_faults;
  }

let restore t sn =
  t.state := sn.sn_state;
  t.crash_state := sn.sn_crash_state;
  t.injected_compile <- sn.sn_injected_compile;
  t.corrupted <- sn.sn_corrupted;
  t.corrupt_draws <- sn.sn_corrupt_draws;
  t.compile_draws <- sn.sn_compile_draws;
  t.store_draws <- sn.sn_store_draws;
  t.store_corrupted <- sn.sn_store_corrupted;
  t.stall_draws <- sn.sn_stall_draws;
  t.stalls <- sn.sn_stalls;
  t.disconnect_draws <- sn.sn_disconnect_draws;
  t.disconnects <- sn.sn_disconnects;
  t.deadline_draws <- sn.sn_deadline_draws;
  t.deadline_exhausts <- sn.sn_deadline_exhausts;
  t.crash_draws <- sn.sn_crash_draws;
  t.crashes <- sn.sn_crashes;
  t.wedge_draws <- sn.sn_wedge_draws;
  t.wedges <- sn.sn_wedges;
  t.store_io_draws <- sn.sn_store_io_draws;
  t.store_io_faults <- sn.sn_store_io_faults

(* Mangle the bytes a store probe read from disk, the way a flipped bit
   or torn write would: XOR one byte at a stream-chosen offset.  The
   store's checksum verification is expected to reject the result. *)
let mangle_store_bytes t bytes =
  t.store_corrupted <- t.store_corrupted + 1;
  if String.length bytes = 0 then bytes
  else begin
    let off =
      Int64.to_int
        (Int64.rem
           (Int64.shift_right_logical (mix t.state) 1)
           (Int64.of_int (String.length bytes)))
    in
    let b = Bytes.of_string bytes in
    Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x5A));
    Bytes.to_string b
  end

(* Corrupt an interpreter run's delivered result: negate the first
   element of the first non-empty array argument (bit-invert an integer;
   a NaN becomes 0, a zero 1).  The interpreter-tier analogue of
   [corrupt] below — a wrong answer the differential oracle must catch. *)
let perturb_args (args : (string * Eval.arg) list) =
  let rec go = function
    | [] -> ()
    | (_, Eval.Array buf) :: rest ->
      if Buffer_.length buf > 0 then
        let v' =
          match Buffer_.get buf 0 with
          | Value.Int i -> Value.Int (lnot i)
          | Value.Float f ->
            if Float.is_nan f then Value.Float 0.0
            else if f = 0.0 then Value.Float 1.0
            else Value.Float (-.f)
        in
        Buffer_.set buf 0 v'
      else go rest
    | _ :: rest -> go rest
  in
  go args

(* Corrupt one machine body the way a bad cache line would: perturb the
   first corruptible instruction (flip an arithmetic op, or nudge an
   immediate).  Returns [None] when the body holds nothing corruptible.
   The result still simulates — the point is a wrong answer the
   differential oracle must catch, not a crash. *)
let corrupt_mfun (f : Mfun.t) : Mfun.t option =
  let flip (op : Op.binop) : Op.binop option =
    match op with
    | Op.Add -> Some Op.Sub
    | Op.Sub -> Some Op.Add
    | Op.Mul -> Some Op.Add
    | Op.Min -> Some Op.Max
    | Op.Max -> Some Op.Min
    | _ -> None
  in
  (* Prefer datapath instructions whose perturbation is visible in the
     output and cannot derail control flow: vector arithmetic first, then
     scalar FP arithmetic, then an FP immediate, then scalar integer
     multiplies (never loop-counter adds, which could spin forever). *)
  let candidate pass (ins : Minstr.t) : Minstr.t option =
    match pass, ins with
    | 0, Minstr.Vop (op, ty, d, a, b) ->
      Option.map (fun op' -> Minstr.Vop (op', ty, d, a, b)) (flip op)
    | 1, Minstr.Sop (op, ty, d, a, b) when Vapor_ir.Src_type.is_float ty ->
      Option.map (fun op' -> Minstr.Sop (op', ty, d, a, b)) (flip op)
    | 2, Minstr.Lfi (d, v) -> Some (Minstr.Lfi (d, v +. 1.0))
    | 3, Minstr.Sop (Op.Mul, ty, d, a, b) ->
      Some (Minstr.Sop (Op.Add, ty, d, a, b))
    | _ -> None
  in
  let try_pass pass =
    let hit = ref None in
    Array.iteri
      (fun i ins ->
        if !hit = None then
          match candidate pass ins with
          | Some ins' -> hit := Some (i, ins')
          | None -> ())
      f.Mfun.instrs;
    !hit
  in
  let rec first_hit pass =
    if pass > 3 then None
    else
      match try_pass pass with
      | Some hit -> Some hit
      | None -> first_hit (pass + 1)
  in
  match first_hit 0 with
  | None -> None
  | Some (i, ins') ->
    let instrs = Array.copy f.Mfun.instrs in
    instrs.(i) <- ins';
    Some { f with Mfun.instrs }

let corrupt t (c : Compile.t) : Compile.t option =
  match corrupt_mfun c.Compile.mfun with
  | Some mfun ->
    t.corrupted <- t.corrupted + 1;
    (* Re-prepare the execution plan: the fast engine runs the plan, not
       the instruction array, so a corruption that left the stale plan in
       place would be invisible to it. *)
    let target = Simulator.plan_target c.Compile.plan in
    Some { c with Compile.mfun; plan = Simulator.prepare ~target mfun }
  | None -> None

(* Deterministic exponential backoff charged (in modeled microseconds)
   before retry [attempt]; no wall clock involved. *)
let backoff_us ~attempt = 5.0 *. (2.0 ** float_of_int (max 0 (attempt - 1)))
