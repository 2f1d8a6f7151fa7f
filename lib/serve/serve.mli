(** The serving engine: a deterministic discrete-event simulation over
    virtual time.

    Streams feed bounded {!Ingress} queues; an admission gate enforces a
    global in-flight budget; [sv_lanes] concurrency lanes model response
    service time in virtual cycles; a per-kernel-digest {!Breaker}
    degrades repeatedly failing kernels to interpreter-only serving.
    Executions happen inline, in global dispatch order, on a
    {!Vapor_runtime.Service} session pool — so the embedded replay report
    is byte-identical for any [sv_domains] value, and, for a permissive
    config (no deadlines, no faults, equal priorities), byte-identical to
    [Service.replay] over the same trace.

    Nothing reads the wall clock or spawns a domain: CI can assert
    byte-identity and exact conservation — every arrival is answered,
    shed, timed out, or disconnected, never lost. *)

module Service := Vapor_runtime.Service
module Faults := Vapor_runtime.Faults
module Stats := Vapor_runtime.Stats

type cfg = {
  sv_service : Service.config;
  sv_domains : int;  (** session-pool shards (report-invariant) *)
  sv_lanes : int;  (** concurrency lanes (virtual service slots) *)
  sv_budget : int;  (** global in-flight admission budget *)
  sv_backlog : int option;
      (** global queued-event watermark; above it the engine trims the
          lowest-priority [Shed]-policy queues ([None] = never trim).
          [Block]-policy queues are never trimmed — their backpressure
          already reached the producer. *)
  sv_faults : Faults.t option;  (** serving-shaped fault injector *)
  sv_breaker_threshold : int;
  sv_breaker_cooldown : int;  (** virtual cycles *)
  sv_max_batch : int;
      (** batch-formation cap: a per-digest batch closes the moment it
          holds this many events.  1 (the default) is the exact
          unbatched dispatch path — every admitted event becomes a
          singleton batch immediately, in admission order. *)
  sv_batch_window : int;
      (** batch-formation window in virtual cycles: an open batch closes
          at [opened + window], or earlier if the tightest member
          deadline is at risk *)
  sv_checkpoint_every : int;
      (** virtual-cycle shard-checkpoint period; 0 disables periodic
          checkpoints.  Any nonzero value, a journal directory, a
          kill/wedge plan, or an injector crash/wedge rate turns the
          {!Supervisor} on; with everything off the engine is
          byte-identical to the pre-recovery serving layer. *)
  sv_journal_dir : string option;
      (** mirror the write-ahead admission journal ([VAPORJNL] segments)
          and checkpoint artifacts ([VAPORCKP]) to disk here *)
  sv_restart_limit : int;
      (** restarts tolerated inside one probation streak before the
          shard degrades to interp-only serving; a crash while degraded
          sheds the shard *)
  sv_lane_stall_limit : int;
      (** virtual cycles a wedged lane may hold its members before the
          watchdog closes them as typed timeouts *)
  sv_crash_at : int list;
      (** global dispatch ordinals (0-based) at which a shard kill is
          spliced in deterministically (the kill-at-every-boundary
          sweeps) *)
  sv_wedge_at : int list;  (** same, for lane wedges *)
}

(** 1 domain, 2 lanes, budget 8, no backlog trim, no faults, breaker
    threshold 3 / cooldown 1e6 cycles, max batch 1 (batching off),
    batch window 1024 cycles, recovery off (no checkpoints, no journal,
    restart limit 3, lane-stall limit 8192, empty kill/wedge plans). *)
val default_cfg : Service.config -> cfg

type timeout_kind =
  | Event_deadline  (** per-event budget exceeded while queued *)
  | Stream_deadline  (** stream's absolute cutoff passed *)
  | Injected_exhaustion  (** chaos: deadline budget burned pre-exec *)

type report = {
  sr_desc : string;
  sr_streams : int;
  sr_lanes : int;
  sr_domains : int;
  sr_total : int;  (** arrivals in the workload *)
  sr_answered : int;  (** events that executed (any guard verdict) *)
  sr_shed_ingress : int;  (** dropped by full [Shed] queues *)
  sr_shed_overload : int;  (** trimmed above the backlog watermark *)
  sr_deadline_misses : int;
  sr_stream_deadline_misses : int;
  sr_injected_exhaustions : int;
  sr_disconnected : int;  (** arrivals cut by mid-stream disconnects *)
  sr_blocked : int;  (** [Would_block] offers observed (retries count) *)
  sr_stalls : int;  (** consumer stalls injected *)
  sr_stall_cycles : int;
  sr_peak_queue : int;  (** max total queued events *)
  sr_peak_in_flight : int;
  sr_breaker_opens : int;
  sr_breaker_closes : int;
  sr_breaker_half_opens : int;
  sr_breaker_open_at_drain : int;
  sr_interp_only : int;  (** events served breaker-degraded *)
  sr_probes : int;  (** half-open probes (forced oracle checks) *)
  sr_batches : int;  (** dispatched batches that executed >= 1 event *)
  sr_batched_events : int;  (** events answered through those batches *)
  sr_crashes : int;
      (** shard crashes detected (seeded, planned, or escaped
          exceptions) *)
  sr_restarts : int;  (** checkpoint-restore recoveries performed *)
  sr_replayed : int;  (** journal entries re-executed across recoveries *)
  sr_checkpoints : int;  (** checkpoint rounds taken (incl. round 0) *)
  sr_wedges : int;  (** wedged lanes the watchdog resolved *)
  sr_crash_shed : int;
      (** events closed as typed losses by a shedding shard (only after
          the restart limit escalated through degraded serving) *)
  sr_lane_stalls : int;
      (** events a wedged lane held past the stall limit, closed as
          typed timeouts *)
  sr_virtual_cycles : int;  (** final virtual time *)
  sr_lost : int;  (** conservation residue — must be 0 *)
  sr_service : Service.report;  (** the pool's merged replay report *)
}

(** The conservation residue:
    [total - (answered + shed + timeouts + disconnected + crash_shed +
    lane_stalls)].  Zero means every arrival was accounted exactly
    once. *)
val lost :
  ?crash_shed:int ->
  ?lane_stalls:int ->
  total:int ->
  answered:int ->
  shed_ingress:int ->
  shed_overload:int ->
  deadline_misses:int ->
  stream_deadline_misses:int ->
  injected_exhaustions:int ->
  disconnected:int ->
  unit ->
  int

(** Serve the workload to completion, then drain: stop admitting, flush
    queues, finish lanes, and run the pool's final merge (single-writer
    store merge, gauge finalization, tracer absorption).  [serve.*]
    gauges are recorded on the returned report's registry — gauges never
    appear in [Service.report_to_string], preserving byte-identity with
    a plain replay.

    Batching ([sv_max_batch] > 1) groups admitted events by kernel
    digest into bounded formation windows and dispatches each closed
    batch to a lane as one unit, eliding duplicate-operand executions
    inside the runtime.  Batching is semantics-free: the embedded
    service report is byte-identical for any batch configuration and any
    [sv_domains], and per-event deadline, breaker, and accounting
    behaviour is preserved.  Breaker-open digests bypass formation
    (singleton batches) so probe verdicts land before the next serve.

    Crash recovery (any recovery knob on): every admission is journaled
    write-ahead, shards are checkpointed every [sv_checkpoint_every]
    virtual cycles, and a crash at a dispatch boundary restores the last
    checkpoint and replays the journal suffix in zero virtual time — for
    any seeded crash schedule in which every event eventually replays,
    the drained report (and its printed form) is byte-identical to the
    crash-free run for any [sv_domains].  Recovery activity surfaces as
    [serve.*] gauges only; the typed [crash_shed] / [lane_stalls] losses
    print a [resilience:] line only when nonzero. *)
val run :
  ?stats:Stats.t -> ?tracer:Vapor_obs.Tracer.t -> cfg -> Workload.t -> report

val report_to_string : report -> string
val print_report : report -> unit
