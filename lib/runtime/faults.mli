(** Deterministic (seeded) fault injection for the guarded runtime: body
    corruption, transient lowering failures, store-read corruption and
    serving-shaped faults.  All draws come from one splitmix64 stream, so
    the same seed reproduces the same faults at the same trace points —
    the property the chaos-replay CI seeds rely on.  The mid-trace loss
    of SIMD capability is not drawn: it is scheduled by
    [Service.cfg_drop_simd]. *)

module Mfun := Vapor_machine.Mfun
module Compile := Vapor_jit.Compile

type spec = {
  f_seed : int;
  f_corrupt_rate : float;
      (** probability a cache-delivered body is corrupted *)
  f_compile_fault_rate : float;
      (** probability a compile attempt takes an injected transient fault *)
  f_max_transient : int;
      (** attempts beyond this always succeed, bounding the retry loop *)
  f_store_corrupt_rate : float;
      (** probability a persistent-store probe reads mangled bytes; the
          store's checksum layer must detect and quarantine *)
  f_stall_rate : float;
      (** probability the consumer of a serve response stalls, holding its
          worker slot for [f_stall_ticks] virtual cycles *)
  f_stall_ticks : int;
      (** virtual-cycle length of one consumer stall *)
  f_disconnect_rate : float;
      (** probability (per stream) that the stream disconnects mid-run *)
  f_deadline_exhaust_rate : float;
      (** probability (per dispatched event) that its remaining deadline
          budget is burned before execution starts *)
  f_shard_crash_rate : float;
      (** probability (per dispatched batch, drawn from a dedicated
          stream) that the owning shard dies at the dispatch boundary *)
  f_lane_wedge_rate : float;
      (** probability (per dispatched batch, same dedicated stream) that
          the lane wedges without executing; the watchdog times its
          members out *)
  f_store_io_rate : float;
      (** probability (per store probe/publish IO attempt) of a transient
          IO failure the caller must retry with bounded backoff *)
}

(** All rates zero: a harness with no faults. *)
val default_spec : spec

(** The chaos-replay default: 5% corruption, 25% transient compile
    faults, 2 transient retries. *)
val chaos_spec : seed:int -> spec

(** The serve-bench chaos default: {!chaos_spec} plus the serving-shaped
    faults (5% consumer stalls, 20% stream disconnects, 2% deadline
    budget exhaustion). *)
val serve_chaos_spec : seed:int -> spec

type t

val make : spec -> t
val spec : t -> spec

(** Total injected compile faults so far. *)
val injected_compile_count : t -> int

(** Total corrupted bodies delivered so far. *)
val corrupted_count : t -> int

(** How many times the corruption point consulted the stream (fired or
    not) — an observability gauge, not part of any report. *)
val corrupt_draws : t -> int

(** Same for the injected-compile-fault point. *)
val compile_fault_draws : t -> int

(** Same for the store-read corruption point. *)
val store_corrupt_draws : t -> int

(** Total store reads actually mangled so far. *)
val store_corrupted_count : t -> int

(** Draw/fire counters for the serving-shaped fault points, mirroring the
    pairs above — serve chaos accounting relies on these to prove no lost
    event escaped. *)

val stall_draws : t -> int
val stall_count : t -> int
val disconnect_draws : t -> int
val disconnect_count : t -> int
val deadline_exhaust_draws : t -> int
val deadline_exhaust_count : t -> int
val crash_draws : t -> int
val crash_count : t -> int
val wedge_draws : t -> int
val wedge_count : t -> int
val store_io_draws : t -> int
val store_io_fault_count : t -> int

(** [Some reason] when compile attempt [attempt] (0 = first try) should
    fail with an injected transient fault.  Attempts past
    [f_max_transient] never fail. *)
val injected_compile_fault : t -> attempt:int -> string option

(** One draw against [f_corrupt_rate]. *)
val should_corrupt : t -> bool

(** One draw against [f_store_corrupt_rate]. *)
val should_corrupt_store : t -> bool

(** One draw against [f_stall_rate]: [Some ticks] when the consumer of
    the response just produced stalls for [ticks] virtual cycles. *)
val consumer_stall : t -> int option

(** One draw against [f_disconnect_rate] (made once per stream):
    [Some frac] when the stream disconnects after fraction [frac] of its
    own events, [frac] strictly inside (0,1). *)
val stream_disconnect : t -> float option

(** One draw against [f_deadline_exhaust_rate] (made per dispatched
    event): [true] when the event's remaining deadline budget is burned
    before it executes. *)
val deadline_exhausted : t -> bool

(** One draw against [f_shard_crash_rate], made per dispatched batch
    from a {e dedicated} splitmix64 stream: enabling crashes moves no
    draw of any other fault point, so a crash run and its crash-free
    baseline share every non-crash fault. *)
val shard_crash : t -> bool

(** One draw against [f_lane_wedge_rate] (same dedicated stream):
    [true] when the dispatching lane wedges without executing. *)
val lane_wedge : t -> bool

(** One draw against [f_store_io_rate] (primary stream, per store IO
    attempt): [true] when this probe/publish attempt fails transiently. *)
val store_io_failure : t -> bool

(** Injector state snapshot: both stream positions plus every counter.
    A shard checkpoint captures this so journal replay after a restore
    re-draws the exact fault values the crashed shard drew. *)
type snap

val snapshot : t -> snap
val restore : t -> snap -> unit

(** XOR one stream-chosen byte of a store read — the disk-corruption
    chaos mode.  Checksum verification downstream must reject it. *)
val mangle_store_bytes : t -> string -> string

(** Corrupt an interpreter run's delivered result in place: perturb the
    first element of the first non-empty array argument. *)
val perturb_args : (string * Vapor_ir.Eval.arg) list -> unit

(** Perturb the first corruptible instruction (arithmetic op flip or
    immediate nudge); [None] if the body holds nothing corruptible.  The
    corrupted body still simulates — it computes a wrong answer for the
    differential oracle to catch. *)
val corrupt_mfun : Mfun.t -> Mfun.t option

val corrupt : t -> Compile.t -> Compile.t option

(** Modeled exponential backoff (microseconds) charged before retry
    [attempt]. *)
val backoff_us : attempt:int -> float
