(** Persistent, content-addressed code store: JIT results that survive
    the process.

    The in-memory {!Vapor_runtime.Code_cache} amortizes compilation
    within one process; this store amortizes it across processes (and
    across the OCaml domains of a sharded replay).  Entries are keyed
    exactly like the in-memory cache — (bytecode content digest, target
    name, profile name) — and carry everything needed to rebuild a
    {!Vapor_jit.Compile.t} without compiling: the encoded bytecode, the
    machine function, the lowering decisions, and the modeled compile
    time.  Only the execution plan is rebuilt on load
    ({!Vapor_machine.Simulator.prepare}, which is target-dependent).
    That is not free: over compile-churn's 259 bodies a prepare takes a
    median of 10–14 µs and a mean of 32–43 µs, the largest part of a
    warm hit (median 32–36 µs, mean 69–88 µs), against about 4 µs to
    read the file, 5 µs for the payload MD5 and 6–7 µs to unmarshal it
    (docs/PERF.md, "Warm starts").

    Layout on disk ([DIR] is the store root):
    {v
      DIR/index.vci        versioned binary index, atomically replaced
      DIR/objects/*.vce    one entry file per key
      DIR/quarantine/      entries pulled from service (corrupt or stale)
      DIR/staging/         per-session staging dirs, merged on close
    v}

    Integrity model: every entry file carries its key and an MD5 of its
    payload; the index carries the same checksum.  A probe checks the
    entry's magic, format version and embedded key, the payload MD5
    against both the entry and the index, and that the stored bytecode
    hashes back to the key's digest, before anything is installed in
    memory — a mismatching entry is never served; it is quarantined
    (moved to [quarantine/], marked in the index) and the caller
    recompiles, exactly like an in-memory corruption.  A hit does not
    decode the stored bytecode: the digest check already proves it is
    the key's bytecode, which the caller holds.

    Concurrency model: during a replay every domain holds its own
    {!session}.  Sessions read the open store's index (frozen for the
    run) and write only to their private staging directory; a single
    writer — {!merge}, called after all domains join — installs staged
    entries, applies quarantines and LRU touches, enforces budgets, and
    atomically (write-temp + rename) replaces the index.  Reports stay
    byte-identical for any domain count. *)

(** The store's binary framing idiom, exposed for sibling on-disk
    formats (the serve layer's admission journal and checkpoint
    envelopes) so the toolchain has exactly one way to frame bytes:
    little-endian length-prefixed fields that raise {!Codec.Malformed}
    on any truncation or negative length. *)
module Codec : sig
  exception Malformed of string

  val put_u32 : Buffer.t -> int -> unit
  val put_u64 : Buffer.t -> int64 -> unit
  val put_str : Buffer.t -> string -> unit

  (** Readers take the source string and a mutable cursor, advancing it
      past the decoded field. *)
  val get_u32 : string -> int ref -> int

  val get_u64 : string -> int ref -> int64
  val get_str : string -> int ref -> string
end

(** {2 Filesystem idiom}

    Shared by every on-disk artifact the toolchain writes (index, entry
    files, journal segments, checkpoint envelopes): directories are
    created recursively, files are read whole, and replacement is
    always write-temp + atomic rename so a crash never exposes a torn
    file under the final name. *)

val mkdir_p : string -> unit
val read_file : string -> string
val write_file_atomic : string -> string -> unit

type key = {
  sk_digest : string;  (** 16 raw MD5 bytes of the encoded bytecode *)
  sk_target : string;
  sk_profile : string;
}

val key_to_string : key -> string

type status =
  | Valid
  | Quarantined
      (** pulled from service: checksum mismatch or a stale target;
          never probed again, kept on disk for postmortem *)

type index_row = {
  ix_key : key;
  ix_file : string;  (** entry file name, relative to [objects/] *)
  ix_bytes : int;  (** payload size in bytes *)
  ix_checksum : string;  (** 16 raw MD5 bytes of the payload *)
  ix_tick : int;  (** LRU clock value of the last use *)
  ix_status : status;
}

type index = {
  ix_version : int;
  ix_next_tick : int;
  ix_rows : index_row list;
}

(** Bumped whenever the index or entry wire format changes; a store
    written by any other version refuses to open rather than
    mis-decoding. *)
val format_version : int

(** Stable binary codec for the index; [decode_index (encode_index ix)
    = Ok ix] is property-tested. *)
val encode_index : index -> string

val decode_index : string -> (index, string) result

type t

(** Session-summed operation counts, plus store-level maintenance
    counts; the source of the [store.*] observability gauges. *)
type counters = {
  c_probes : int;
  c_hits : int;
  c_misses : int;
  c_verify_fails : int;  (** probes that found a corrupt entry *)
  c_publishes : int;
  c_quarantined : int;  (** entries quarantined (corrupt or stale) *)
  c_gc_evictions : int;  (** entries deleted by budget GC *)
  c_torn_healed : int;
      (** crash artifacts repaired at open time: stale index temps,
          orphaned object temps, unmerged staging leftovers, and torn
          or missing entry files (quarantined instead of served) *)
  c_retries : int;
      (** extra probe/publish attempts after transient IO faults (see
          {!note_retry}); exhausted retries degrade to a recompile, so
          this counts resilience work, not failures *)
}

(** Open (or, with [create], initialize) the store at [dir].  Budgets
    are enforced at {!merge} and {!gc} time, LRU-first.  Errors — a
    missing directory without [create], a directory that is not a
    store, a corrupt or version-mismatched index, a path the filesystem
    refuses (say, below a regular file) — come back as [Error]; they are
    user errors, not exceptions.

    Opening an existing store runs crash recovery first: a process
    killed mid-publish or mid-merge leaves a stale [index.vci.tmp]
    whose atomic rename never happened, orphaned [*.tmp] object
    writes, staging dirs from sessions that never merged, or torn
    entry files the index still lists as valid (detected by exact
    length, no payload read).  Temps and staging leftovers are
    deleted; torn or missing entries are quarantined instead of
    served, so the healed store replays byte-identically to a store
    that simply never had those entries warm. *)
val open_store :
  ?create:bool ->
  ?max_entries:int ->
  ?max_bytes:int ->
  string ->
  (t, string) result

val dir : t -> string

(** Valid (servable) entries only. *)
val entry_count : t -> int

(** Payload bytes across valid entries. *)
val byte_count : t -> int

val quarantined_count : t -> int

(** Every index row (valid and quarantined), sorted by key. *)
val rows : t -> index_row list

val counters : t -> counters

(** The kernel name carried by an entry's bytecode, for listings;
    [None] when the payload cannot be read. *)
val row_kernel_name : t -> index_row -> string option

(** Write the index atomically (temp file + rename). *)
val flush : t -> unit

(** Evict least-recently-used valid entries until the budgets hold
    (overrides default to the open-time budgets), delete their files,
    sweep leftover staging dirs, and flush.  Returns the eviction
    count. *)
val gc : ?max_entries:int -> ?max_bytes:int -> t -> int

(** Re-verify every valid entry against its checksum and key;
    quarantine and report the failures.  Flushes. *)
val verify : t -> (key * string) list

(** Delete every entry, quarantined file, and staging dir; reset the
    index.  Counters survive. *)
val clear : t -> unit

(** Revec-style rejuvenation hook: quarantine every valid entry
    compiled for [from_target] instead of silently serving stale code.
    Returns the number quarantined.  Flushes. *)
val invalidate_target : t -> from_target:string -> int

(** What a probe returns: the stored bytecode, still encoded (its MD5 is
    the key's digest; {!Vapor_vecir.Encode.decode} reads it), and a
    rebuilt {!Vapor_jit.Compile.t} (plan re-prepared for the probing
    target). *)
type entry = {
  en_encoded : string;
  en_compiled : Vapor_jit.Compile.t;
}

type session

(** A per-domain handle: probes read the frozen index, publishes land
    in a private staging dir ([id] keeps sibling domains' dirs
    apart). *)
val session : id:int -> t -> session

val store : session -> t

type probe_result =
  | Hit of entry
  | Miss
  | Corrupt of string
      (** verification failed; the entry is marked for quarantine at
          {!merge} and subsequent probes of the key miss *)

(** Look up a key.  [mangle] (fault injection) perturbs the payload
    bytes as read from disk, upstream of verification — the
    disk-corruption chaos mode.  A key published earlier in this
    session is served from staging, so a body evicted from memory
    mid-run is still found. *)
val probe :
  ?mangle:(string -> string) ->
  session ->
  target:Vapor_targets.Target.t ->
  key ->
  probe_result

(** Write-through hook: persist a freshly compiled body.  [encoded] is
    the body's bytecode in {!Vapor_vecir.Encode} form — the string the
    key's digest was taken of — and is stored as is.  A key already
    valid in the store (and not found corrupt this session) is a no-op. *)
val publish : session -> key -> encoded:string -> Vapor_jit.Compile.t -> unit

(** Record that [from_target] became stale mid-run; applied (as
    {!invalidate_target}) by {!merge}. *)
val defer_invalidate : session -> from_target:string -> unit

(** Count one retried probe/publish attempt after a transient IO fault;
    summed into the store's {!counters} at {!merge}. *)
val note_retry : session -> unit

(** Single-writer commit: apply deferred invalidations and corrupt-entry
    quarantines, install staged entries (first publisher wins), advance
    LRU ticks for this run's hits, enforce budgets, accumulate session
    counters into the store, remove staging dirs, and flush the index
    atomically. *)
val merge : t -> session list -> unit
