(** Bounded LRU cache of JIT-compiled kernel bodies, keyed by
    {!Digest.key} = (bytecode content digest, target name, profile name).

    This is the piece the paper's online stage takes for granted: a managed
    runtime compiles vectorized bytecode once per target and reuses the
    compiled body across millions of invocations.  The cache charges each
    entry a modeled footprint (encoded bytecode bytes + 4 bytes per machine
    instruction) against a byte budget, and also enforces an entry-count
    budget; eviction is least-recently-used.

    [invalidate_target] is the Revec-style rejuvenation hook: when a better
    target becomes available (say the fleet upgrades from SSE to AVX),
    surviving entries are re-lowered from their *bytecode* — which is
    target-independent by construction — instead of being thrown away. *)

module B := Vapor_vecir.Bytecode
module Target := Vapor_targets.Target
module Profile := Vapor_jit.Profile
module Compile := Vapor_jit.Compile

type t

(** [create ()] uses an effectively unbounded budget. [stats] lets several
    runtime components share one registry; counters are written under
    [cache.*] names. *)
val create : ?stats:Stats.t -> ?max_entries:int -> ?max_bytes:int -> unit -> t

(** Why an entry left the cache, for the {!set_on_evict} hook. *)
type evict_reason =
  | Lru  (** budget eviction *)
  | Replaced  (** overwritten by a fresh insert for the same key *)
  | Invalidated  (** dropped by {!invalidate_target} *)

(** Register the single eviction/invalidation observer (latest wins).
    Fires after the entry is gone, with the reason; the write-through
    store tier uses it, and it is the stats trace [invalidate_target]
    used to lack. *)
val set_on_evict : t -> (evict_reason -> Digest.key -> unit) -> unit

type outcome =
  | Hit
  | Miss  (** compiled now; the cold compile time was just paid *)

(** Look up the compiled body for this (bytecode, target, profile); compile
    and insert on miss, evicting LRU entries while over budget.  Encodes
    the bytecode once per call, for its digest and its size; the tiered
    runtime, which serves the hot path, is handed the digest and encodes
    a kernel once per tier state. *)
val find_or_compile :
  ?known_aligned:(string -> bool) ->
  t ->
  target:Target.t ->
  profile:Profile.t ->
  B.vkernel ->
  Compile.t * outcome

(** Pure lookup: no compile, no insertion, but counted as a hit/miss and
    LRU-refreshing on hit. *)
val find : t -> Digest.key -> Compile.t option

(** Insert (or replace) a compiled body, charging its modeled footprint
    ([vk_bytes] + 4 bytes per machine instruction) and evicting LRU
    entries while over budget.  [vk_bytes] must be
    [Vapor_vecir.Encode.size vk], which callers take once per kernel
    rather than per insert.  Counted as a fill. *)
val insert :
  t -> Digest.key -> B.vkernel -> vk_bytes:int -> Profile.t -> Compile.t -> unit

(** Drop one entry (the quarantine hook); [true] if it was present.  Not
    counted as an eviction — callers account for quarantines. *)
val remove : t -> Digest.key -> bool

(** Re-lower every surviving entry compiled for [from_target] so it is
    keyed (and compiled) for [to_target]; entries already present for
    [to_target] win over rejuvenated ones.  Returns the number of entries
    re-lowered.  Eviction applies afterwards if budgets are exceeded. *)
val invalidate_target :
  t -> from_target:Target.t -> to_target:Target.t -> int

(** {2 Introspection} *)

val entry_count : t -> int

(** Modeled bytes currently charged. *)
val byte_count : t -> int

val hits : t -> int
val misses : t -> int
val evictions : t -> int
val fills : t -> int
val rejuvenations : t -> int

(** Entries dropped by {!invalidate_target} (counter
    [cache.invalidations]). *)
val invalidations : t -> int

(** Actual [Compile.compile] calls through this cache — excludes bodies
    installed from a persistent store, so a warm run reports 0.  A plain
    field rather than a [Stats] counter: it differs between cold and
    warm runs, and reports must not. *)
val real_compiles : t -> int

(** Count a compile performed by a caller that installs via {!insert}
    (the tiered runtime's retry/scalarization path). *)
val note_real_compile : t -> unit

(** [hits / (hits + misses)]; 0 when no lookups happened. *)
val hit_rate : t -> float

val stats : t -> Stats.t

(** Drop every entry (budget and counters unchanged). *)
val clear : t -> unit

(** {2 Checkpoint snapshot}

    A deep copy of the mutable cache state (entries with their LRU
    ticks, the clock, the byte charge, and {!real_compiles}); compiled
    bodies inside are immutable and shared.  {!restore} replaces the
    destination's contents counter-silently — no fills or hits are
    recorded, because the registry snapshot restored alongside already
    carries the counts as of the checkpoint.  The [on_evict] hook is not
    snapshot state: restore keeps the destination's own hook. *)

type snap

val snapshot : t -> snap
val restore : t -> snap -> unit

(** Digest-level rows for the on-disk checkpoint artifact:
    (digest hex, target, profile, modeled bytes, LRU tick), sorted. *)
val snap_rows : snap -> (string * string * string * int * int) list
