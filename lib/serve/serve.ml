(* The serving engine: a deterministic discrete-event simulation over
   virtual time.  Streams feed bounded ingress queues; an admission gate
   enforces a global in-flight budget; [sv_lanes] concurrency lanes model
   response service time in virtual cycles.  Executions happen inline, in
   global dispatch order, on the session pool's shards — so the embedded
   replay report is byte-identical for any [sv_domains] value, and (for a
   permissive config) byte-identical to [Service.replay] over the same
   trace.

   Nothing here reads the wall clock or spawns a domain: the engine IS
   the reference semantics, which is what lets CI assert byte-identity
   and exact conservation (every arrival is answered, shed, timed out,
   or disconnected — never lost). *)

module Service = Vapor_runtime.Service
module Tiered = Vapor_runtime.Tiered
module Faults = Vapor_runtime.Faults
module Trace = Vapor_runtime.Trace
module Stats = Vapor_runtime.Stats
module Digest = Vapor_runtime.Digest
module Tracer = Vapor_obs.Tracer

type cfg = {
  sv_service : Service.config;
  sv_domains : int;  (** session-pool shards (report-invariant) *)
  sv_lanes : int;  (** concurrency lanes (virtual service slots) *)
  sv_budget : int;  (** global in-flight admission budget *)
  sv_backlog : int option;
      (** global queued-event watermark; above it the engine trims
          lowest-priority [Shed] queues ([None] = never trim) *)
  sv_faults : Faults.t option;  (** serving-shaped fault injector *)
  sv_breaker_threshold : int;
  sv_breaker_cooldown : int;
  sv_max_batch : int;
      (** events per kernel-digest batch; 1 (the default) is the exact
          unbatched dispatch path *)
  sv_batch_window : int;
      (** batch-formation window in virtual cycles: an open batch closes
          when full, when this window expires, or when its tightest
          member deadline would otherwise be at risk *)
  sv_checkpoint_every : int;
      (** virtual-cycle checkpoint period; 0 disables periodic
          checkpoints (supervision may still be on via other knobs) *)
  sv_journal_dir : string option;
      (** mirror the admission journal and checkpoint artifacts to disk
          under this directory *)
  sv_restart_limit : int;
      (** restarts tolerated inside one probation streak before the
          shard degrades to interp-only serving *)
  sv_lane_stall_limit : int;
      (** virtual cycles a wedged lane is allowed to hold its members
          before the watchdog times them out *)
  sv_crash_at : int list;
      (** global dispatch ordinals (0-based) at which a shard kill is
          spliced in deterministically *)
  sv_wedge_at : int list;  (** same, for lane wedges *)
}

let default_cfg service =
  {
    sv_service = service;
    sv_domains = 1;
    sv_lanes = 2;
    sv_budget = 8;
    sv_backlog = None;
    sv_faults = None;
    sv_breaker_threshold = 3;
    sv_breaker_cooldown = 1_000_000;
    sv_max_batch = 1;
    sv_batch_window = 1024;
    sv_checkpoint_every = 0;
    sv_journal_dir = None;
    sv_restart_limit = 3;
    sv_lane_stall_limit = 8192;
    sv_crash_at = [];
    sv_wedge_at = [];
  }

type timeout_kind =
  | Event_deadline
  | Stream_deadline
  | Injected_exhaustion

type report = {
  sr_desc : string;
  sr_streams : int;
  sr_lanes : int;
  sr_domains : int;
  sr_total : int;
  sr_answered : int;
  sr_shed_ingress : int;
  sr_shed_overload : int;
  sr_deadline_misses : int;
  sr_stream_deadline_misses : int;
  sr_injected_exhaustions : int;
  sr_disconnected : int;
  sr_blocked : int;
  sr_stalls : int;
  sr_stall_cycles : int;
  sr_peak_queue : int;
  sr_peak_in_flight : int;
  sr_breaker_opens : int;
  sr_breaker_closes : int;
  sr_breaker_half_opens : int;
  sr_breaker_open_at_drain : int;
  sr_interp_only : int;
  sr_probes : int;
  sr_batches : int;  (** dispatched batches that executed >= 1 event *)
  sr_batched_events : int;  (** events executed through a batch *)
  sr_crashes : int;  (** shard crashes detected (incl. escaped exns) *)
  sr_restarts : int;  (** recoveries performed *)
  sr_replayed : int;  (** journal entries re-executed across recoveries *)
  sr_checkpoints : int;  (** checkpoint rounds taken (incl. round 0) *)
  sr_wedges : int;  (** wedged lanes the watchdog resolved *)
  sr_crash_shed : int;  (** events shed typed by a shedding shard *)
  sr_lane_stalls : int;  (** events timed out typed by the watchdog *)
  sr_virtual_cycles : int;
  sr_lost : int;
  sr_service : Service.report;
}

(* One forming batch: same-digest events coalesced between admission and
   dispatch.  [ob_risk] is the earliest virtual time at which any member
   would time out if still queued — the batch closes no later than that,
   so the formation window can never cause a deadline miss on its own. *)
type obatch = {
  ob_digest : Digest.t;
  ob_seq : int;  (* formation order; deterministic close tie-break *)
  ob_opened : int;
  mutable ob_risk : int;  (* max_int when no member has a deadline *)
  mutable ob_members : Workload.arrival list;  (* newest first *)
  mutable ob_count : int;
}

(* Conservation: every arrival must be accounted exactly once. *)
let lost ?(crash_shed = 0) ?(lane_stalls = 0) ~total ~answered ~shed_ingress
    ~shed_overload ~deadline_misses ~stream_deadline_misses
    ~injected_exhaustions ~disconnected () =
  total
  - (answered + shed_ingress + shed_overload + deadline_misses
   + stream_deadline_misses + injected_exhaustions + disconnected
   + crash_shed + lane_stalls)

let run ?stats ?tracer (cfg : cfg) (wl : Workload.t) : report =
  let ns = Array.length wl.Workload.wl_streams in
  let shards = max 1 cfg.sv_domains in
  let lanes = max 1 cfg.sv_lanes in
  let budget = max 1 cfg.sv_budget in
  (* Supervision turns on when any recovery knob is set or the injector
     carries a crash/wedge rate; everything below is bypassed otherwise,
     so un-supervised runs stay byte-identical to the pre-recovery
     engine. *)
  let supervised =
    cfg.sv_checkpoint_every > 0
    || cfg.sv_journal_dir <> None
    || cfg.sv_crash_at <> []
    || cfg.sv_wedge_at <> []
    ||
    match cfg.sv_faults with
    | None -> false
    | Some f ->
      let sp = Faults.spec f in
      sp.Faults.f_shard_crash_rate > 0.0 || sp.Faults.f_lane_wedge_rate > 0.0
  in
  (* A supervised pool gets a private clone of the guard injector: shard
     restore rewinds the shard's streams for replay-exactness, and that
     rewind must never touch the serve-level draws (stalls, disconnects,
     deadline exhaustion) still coming from [sv_faults]. *)
  let service_cfg =
    if not supervised then cfg.sv_service
    else
      let g = cfg.sv_service.Service.cfg_guard in
      match g.Tiered.g_faults with
      | None -> cfg.sv_service
      | Some f ->
        {
          cfg.sv_service with
          Service.cfg_guard =
            { g with Tiered.g_faults = Some (Faults.make (Faults.spec f)) };
        }
  in
  let pool =
    match tracer with
    | Some tracer ->
      Service.pool_create ~tracer ~shards service_cfg
        ~kernels:wl.Workload.wl_kernels
    | None ->
      Service.pool_create ~shards service_cfg ~kernels:wl.Workload.wl_kernels
  in
  let assign =
    if shards <= 1 then fun _ -> 0
    else Service.pool_assign pool ~weights:(Workload.weights wl)
  in
  let digest_cache = Hashtbl.create 16 in
  let digest_of kernel =
    match Hashtbl.find_opt digest_cache kernel with
    | Some d -> d
    | None ->
      let d = Service.pool_digest pool ~kernel in
      Hashtbl.replace digest_cache kernel d;
      d
  in
  let breaker =
    Breaker.create ~threshold:cfg.sv_breaker_threshold
      ~cooldown:cfg.sv_breaker_cooldown ()
  in
  let supervisor =
    if not supervised then None
    else
      Some
        (Supervisor.create
           ?journal_dir:cfg.sv_journal_dir
           ?checkpoint_every:
             (if cfg.sv_checkpoint_every > 0 then
                Some cfg.sv_checkpoint_every
              else None)
           ~restart_limit:(max 1 cfg.sv_restart_limit)
           ~crash_plan:cfg.sv_crash_at ~wedge_plan:cfg.sv_wedge_at pool)
  in
  let lane_stall_limit = max 1 cfg.sv_lane_stall_limit in
  (* Per-stream arrival slices, in stream order. *)
  let per_stream =
    let buckets = Array.make ns [] in
    Array.iter
      (fun a ->
        buckets.(a.Workload.ar_stream) <- a :: buckets.(a.Workload.ar_stream))
      wl.Workload.wl_arrivals;
    Array.map (fun l -> Array.of_list (List.rev l)) buckets
  in
  (* Mid-stream disconnects: one draw per stream, in id order, before any
     per-event draw — a fixed point in the splitmix64 stream. *)
  let cut =
    Array.init ns (fun s ->
        match cfg.sv_faults with
        | None -> None
        | Some f -> (
          match Faults.stream_disconnect f with
          | None -> None
          | Some frac ->
            let n = Array.length per_stream.(s) in
            Some (max 1 (int_of_float (frac *. float_of_int n)))))
  in
  let queues =
    Array.map
      (fun (st : Workload.stream) ->
        Ingress.create ~cap:st.Workload.st_queue_cap
          ~policy:st.Workload.st_policy)
      wl.Workload.wl_streams
  in
  let cursors = Array.make ns 0 in
  let max_batch = max 1 cfg.sv_max_batch in
  let window = max 1 cfg.sv_batch_window in
  (* Batch formation state: at most one open batch per kernel digest,
     fed by admission; closed batches queue for lane dispatch in close
     order.  With [max_batch = 1] every admission closes a singleton
     immediately, which is the exact pre-batching dispatch path. *)
  let open_batches : (Digest.t, obatch) Hashtbl.t = Hashtbl.create 16 in
  let closed_q : obatch Queue.t = Queue.create () in
  let batch_seq = ref 0 in
  let batches = ref 0 in
  let batched_events = ref 0 in
  let lane_busy = Array.make lanes false in
  let lane_free = Array.make lanes 0 in
  let lane_load = Array.make lanes 0 in
  (* Members held hostage by a wedged lane; the watchdog closes them as
     typed lane-stall timeouts when the stall limit lapses. *)
  let lane_wedged : Workload.arrival list option array = Array.make lanes None in
  let crash_shed = ref 0 in
  let lane_stalls = ref 0 in
  let now = ref 0 in
  let in_flight = ref 0 in
  let answered = ref 0 in
  let shed_overload = ref 0 in
  let deadline_misses = ref 0 in
  let stream_deadline_misses = ref 0 in
  let injected_exhaustions = ref 0 in
  let disconnected = ref 0 in
  let stalls = ref 0 in
  let stall_cycles = ref 0 in
  let interp_only_served = ref 0 in
  let probes = ref 0 in
  let peak_queue = ref 0 in
  let peak_in_flight = ref 0 in
  let records = ref [] in
  (* Per-stream accounting behind the {stream="<id>"} metric labels. *)
  let answered_by = Array.make ns 0 in
  let timeouts_by = Array.make ns 0 in
  (* Deadline slack (cycles to spare at dispatch) of every answered
     event with an event deadline — the margin the batch window eats. *)
  let slacks = ref [] in
  let tr = match tracer with Some t -> t | None -> Tracer.disabled in

  let total_queued () =
    Array.fold_left (fun acc q -> acc + Ingress.length q) 0 queues
  in
  let work_remains () =
    !in_flight > 0
    || (not (Queue.is_empty closed_q))
    || Hashtbl.length open_batches > 0
    || Array.exists (fun q -> not (Ingress.is_empty q)) queues
    || Array.exists
         (fun s -> cursors.(s) < Array.length per_stream.(s))
         (Array.init ns (fun s -> s))
  in
  let release () =
    let progressed = ref false in
    for l = 0 to lanes - 1 do
      if lane_busy.(l) && lane_free.(l) <= !now then begin
        lane_busy.(l) <- false;
        (match lane_wedged.(l) with
        | None -> ()
        | Some members ->
          (* The watchdog's verdict: the wedged members never executed
             (buffers untouched); close them as typed lane-stall
             timeouts.  The breaker is not fed — the kernels did nothing
             wrong, the lane did. *)
          lane_wedged.(l) <- None;
          List.iter
            (fun (a : Workload.arrival) ->
              incr lane_stalls;
              timeouts_by.(a.Workload.ar_stream) <-
                timeouts_by.(a.Workload.ar_stream) + 1)
            members);
        in_flight := !in_flight - lane_load.(l);
        lane_load.(l) <- 0;
        progressed := true
      end
    done;
    !progressed
  in
  let ingest () =
    let progressed = ref false in
    for s = 0 to ns - 1 do
      let arr = per_stream.(s) in
      let continue_ = ref true in
      while !continue_ && cursors.(s) < Array.length arr do
        let a = arr.(cursors.(s)) in
        if a.Workload.ar_at > !now then continue_ := false
        else if
          match cut.(s) with
          | Some c -> a.Workload.ar_stream_seq >= c
          | None -> false
        then begin
          incr disconnected;
          cursors.(s) <- cursors.(s) + 1;
          progressed := true
        end
        else
          match Ingress.offer queues.(s) a with
          | Ingress.Accepted ->
            cursors.(s) <- cursors.(s) + 1;
            progressed := true
          | Ingress.Dropped ->
            (* the queue's own shed counter accounts it *)
            cursors.(s) <- cursors.(s) + 1;
            progressed := true
          | Ingress.Would_block -> continue_ := false
      done
    done;
    if !progressed then peak_queue := max !peak_queue (total_queued ());
    !progressed
  in
  (* Overload trim: above the global backlog watermark, drop the oldest
     event from the lowest-priority non-empty Shed-policy queue (ties:
     highest stream id sheds first).  Block-policy queues are never
     trimmed — their backpressure already reached the producer. *)
  let trim () =
    match cfg.sv_backlog with
    | None -> false
    | Some watermark ->
      let progressed = ref false in
      let continue_ = ref true in
      while !continue_ && total_queued () > watermark do
        let victim = ref (-1) in
        let victim_prio = ref max_int in
        for s = 0 to ns - 1 do
          if
            Ingress.policy queues.(s) = Ingress.Shed
            && not (Ingress.is_empty queues.(s))
          then begin
            let p = wl.Workload.wl_streams.(s).Workload.st_priority in
            if p <= !victim_prio then begin
              victim := s;
              victim_prio := p
            end
          end
        done;
        if !victim < 0 then continue_ := false
        else begin
          (match Ingress.drop_oldest queues.(!victim) with
          | Some _ -> incr shed_overload
          | None -> ());
          progressed := true
        end
      done;
      !progressed
  in
  (* The earliest virtual time at which [a] would time out if still
     queued: the batch holding it must dispatch by then. *)
  let risk_of (a : Workload.arrival) =
    let st = wl.Workload.wl_streams.(a.Workload.ar_stream) in
    let r =
      match st.Workload.st_deadline with
      | Some d -> a.Workload.ar_at + d
      | None -> max_int
    in
    match st.Workload.st_stream_deadline with
    | Some sd -> min r sd
    | None -> r
  in
  let close_batch (b : obatch) =
    Hashtbl.remove open_batches b.ob_digest;
    Queue.push b closed_q
  in
  (* Batch formation, fed by admission.  A digest whose breaker is not
     Closed bypasses formation entirely (singleton, dispatched at once):
     degraded or probing kernels must not hold a window open, and a
     half-open probe must see its verdict before the next same-digest
     event is served. *)
  let enqueue (a : Workload.arrival) =
    let digest = digest_of a.Workload.ar_event.Trace.ev_kernel in
    (* Write-ahead: the admission is journaled before the event can
       reach a batch, so a crash between admission and completion can
       never lose it silently. *)
    (match supervisor with
    | None -> ()
    | Some sv ->
      Supervisor.note_admit sv
        ~shard:(assign a.Workload.ar_event.Trace.ev_kernel)
        ~at:!now ~seq:a.Workload.ar_seq a.Workload.ar_event);
    incr batch_seq;
    let fresh () =
      {
        ob_digest = digest;
        ob_seq = !batch_seq;
        ob_opened = !now;
        ob_risk = max_int;
        ob_members = [];
        ob_count = 0;
      }
    in
    if max_batch = 1 || Breaker.state breaker digest <> Breaker.Closed then begin
      let b = fresh () in
      b.ob_members <- [ a ];
      b.ob_count <- 1;
      b.ob_risk <- risk_of a;
      Queue.push b closed_q
    end
    else begin
      let b =
        match Hashtbl.find_opt open_batches digest with
        | Some b -> b
        | None ->
          let b = fresh () in
          Hashtbl.replace open_batches digest b;
          b
      in
      b.ob_members <- a :: b.ob_members;
      b.ob_count <- b.ob_count + 1;
      b.ob_risk <- min b.ob_risk (risk_of a);
      if b.ob_count >= max_batch then close_batch b
    end
  in
  let close_at (b : obatch) = min (b.ob_opened + window) b.ob_risk in
  (* Close every open batch whose window expired or whose tightest member
     deadline is due, in formation order. *)
  let close_due () =
    let due =
      Hashtbl.fold
        (fun _ b acc -> if close_at b <= !now then b :: acc else acc)
        open_batches []
    in
    match due with
    | [] -> false
    | due ->
      List.sort (fun a b -> compare a.ob_seq b.ob_seq) due
      |> List.iter close_batch;
      true
  in
  (* Admission: highest priority wins; within a priority class the event
     with the globally lowest sequence number goes first — so with equal
     priorities and room everywhere, dispatch order IS trace order. *)
  let admit () =
    let progressed = ref false in
    let continue_ = ref true in
    while !continue_ && !in_flight < budget do
      let best = ref (-1) in
      let best_prio = ref min_int in
      let best_seq = ref max_int in
      for s = 0 to ns - 1 do
        match Ingress.peek queues.(s) with
        | None -> ()
        | Some head ->
          let p = wl.Workload.wl_streams.(s).Workload.st_priority in
          if
            p > !best_prio
            || (p = !best_prio && head.Workload.ar_seq < !best_seq)
          then begin
            best := s;
            best_prio := p;
            best_seq := head.Workload.ar_seq
          end
      done;
      if !best < 0 then continue_ := false
      else begin
        (match Ingress.pop queues.(!best) with
        | Some a ->
          enqueue a;
          incr in_flight;
          peak_in_flight := max !peak_in_flight !in_flight
        | None -> ());
        progressed := true
      end
    done;
    !progressed
  in
  let check_timeout (a : Workload.arrival) : timeout_kind option =
    let st = wl.Workload.wl_streams.(a.Workload.ar_stream) in
    match st.Workload.st_stream_deadline with
    | Some sd when !now > sd -> Some Stream_deadline
    | _ -> (
      match st.Workload.st_deadline with
      | Some d when !now - a.Workload.ar_at > d -> Some Event_deadline
      | _ -> (
        match cfg.sv_faults with
        | Some f when Faults.deadline_exhausted f -> Some Injected_exhaustion
        | _ -> None))
  in
  (* Lane dispatch takes whole closed batches.  Member timeouts are
     checked first (buffers untouched, slot returned, breaker fed); the
     survivors then execute as one unit on the lane — two or more share
     one [Tiered.batch_create] (one elision memo: each distinct operand
     signature executes once, its duplicates replay the charge) with
     per-element results, breaker verdicts and stall draws preserved.
     The lane stays busy for the sum of the members' service times, and
     releases all of them at once ([lane_load]). *)
  let dispatch () =
    let progressed = ref false in
    for l = 0 to lanes - 1 do
      let continue_ = ref true in
      while !continue_ && (not lane_busy.(l)) && not (Queue.is_empty closed_q)
      do
        match Queue.take_opt closed_q with
        | None -> continue_ := false
        | Some b ->
          progressed := true;
          let digest = b.ob_digest in
          let members = List.rev b.ob_members in
          let shard =
            match members with
            | a :: _ -> assign a.Workload.ar_event.Trace.ev_kernel
            | [] -> 0
          in
          (* The crash gate sits exactly at the batch-taken boundary: a
             seeded kill fires before any member effect, recovery is
             zero-virtual-time, and the recovered batch then proceeds at
             the same [now] on the same lane — which is what makes the
             recovered drain byte-identical to the crash-free run. *)
          let decision =
            match supervisor with
            | None -> Supervisor.Run
            | Some sv -> Supervisor.on_dispatch sv ~shard ~now:!now
          in
          (match decision with
          | Supervisor.Shed ->
            (* Shedding shard: members are closed as typed losses, the
               slots returned at once, and the breaker is not fed. *)
            List.iter
              (fun (_ : Workload.arrival) ->
                incr crash_shed;
                decr in_flight)
              members
          | Supervisor.Run | Supervisor.Run_interp_only ->
            let degraded = decision = Supervisor.Run_interp_only in
            let survivors =
              List.filter
                (fun (a : Workload.arrival) ->
                  match check_timeout a with
                  | Some kind ->
                    (* Timed out before execution: buffers untouched, the
                       slot is returned, and the breaker hears about it. *)
                    (match kind with
                    | Event_deadline -> incr deadline_misses
                    | Stream_deadline -> incr stream_deadline_misses
                    | Injected_exhaustion -> incr injected_exhaustions);
                    timeouts_by.(a.Workload.ar_stream) <-
                      timeouts_by.(a.Workload.ar_stream) + 1;
                    Breaker.record breaker digest ~now:!now ~ok:false;
                    decr in_flight;
                    false
                  | None -> true)
                members
            in
            match survivors with
            | [] -> ()  (* the lane is still free for the next batch *)
            | first :: _ -> (
              let wedged =
                match supervisor with
                | None -> false
                | Some sv -> Supervisor.wedge_check sv ~shard
              in
              if wedged then begin
                (* The lane wedges without executing: its members are
                   parked (buffers untouched) and the lane held until
                   the stall limit, when the watchdog in [release]
                   closes them as typed timeouts instead of letting the
                   drain hang. *)
                lane_busy.(l) <- true;
                lane_load.(l) <- List.length survivors;
                lane_free.(l) <- !now + lane_stall_limit;
                lane_wedged.(l) <- Some survivors
              end
              else begin
                let size = List.length survivors in
                incr batches;
                batched_events := !batched_events + size;
                if Tracer.on tr then begin
                  (* A marker root keyed like the first member's
                     replay_event root: the exporter's stable sort keeps
                     it just before its members for any domain count. *)
                  Tracer.root_begin tr
                    ~ev:first.Workload.ar_event.Trace.ev_index
                    ~name:"batch_dispatch"
                    [
                      "digest", Tracer.S (Digest.short digest);
                      "size", Tracer.I size;
                      "window_cycles", Tracer.I (!now - b.ob_opened);
                    ];
                  Tracer.root_end tr ~name:"batch_dispatch" ()
                end;
                (* a lone survivor has nothing to elide against *)
                let batch =
                  if size >= 2 then Some (Tiered.batch_create ()) else None
                in
                let busy = ref 0 in
                let executed = ref 0 in
                List.iter
                  (fun (a : Workload.arrival) ->
                    let ev = a.Workload.ar_event in
                    let mode = Breaker.mode breaker digest ~now:!now in
                    let interp_only =
                      degraded || mode = Breaker.Interp_only
                    in
                    let force_oracle = mode = Breaker.Probe in
                    if interp_only then incr interp_only_served;
                    if force_oracle then incr probes;
                    let step () =
                      Service.shard_step ~interp_only ~force_oracle ?batch
                        pool ~shard ev
                    in
                    let r =
                      match supervisor with
                      | None -> Some (step ())
                      | Some sv -> (
                        match step () with
                        | r -> Some r
                        | exception _ ->
                          (* An exception escaping a member is a crash
                             observed mid-event: the shard state is
                             suspect, so restore + replay, then retry
                             once against the recovered shard.  A second
                             escape sheds the member typed. *)
                          Supervisor.recover_escaped sv ~shard ~now:!now;
                          (match step () with
                          | r -> Some r
                          | exception _ ->
                            Supervisor.recover_escaped sv ~shard ~now:!now;
                            None))
                    in
                    match r with
                    | None ->
                      incr crash_shed;
                      decr in_flight
                    | Some r ->
                      incr executed;
                      records := r :: !records;
                      incr answered;
                      answered_by.(a.Workload.ar_stream) <-
                        answered_by.(a.Workload.ar_stream) + 1;
                      (match
                         wl.Workload.wl_streams.(a.Workload.ar_stream)
                           .Workload.st_deadline
                       with
                      | Some d ->
                        slacks := (d - (!now - a.Workload.ar_at)) :: !slacks
                      | None -> ());
                      Breaker.record breaker digest ~now:!now
                        ~ok:(r.Service.er_outcome = Tiered.Clean);
                      (match supervisor with
                      | None -> ()
                      | Some sv ->
                        Supervisor.note_complete sv ~shard
                          ~seq:a.Workload.ar_seq ev ~interp_only
                          ~force_oracle
                          ~real_compile:r.Service.er_real_compile);
                      let stall =
                        match cfg.sv_faults with
                        | None -> 0
                        | Some f -> (
                          match Faults.consumer_stall f with
                          | None -> 0
                          | Some ticks ->
                            incr stalls;
                            stall_cycles := !stall_cycles + ticks;
                            ticks)
                      in
                      busy := !busy + max 1 r.Service.er_cycles + stall)
                  survivors;
                if !executed > 0 then begin
                  lane_busy.(l) <- true;
                  lane_load.(l) <- !executed;
                  lane_free.(l) <- !now + !busy
                end
              end))
      done
    done;
    !progressed
  in
  let advance () =
    let next = ref max_int in
    for s = 0 to ns - 1 do
      if cursors.(s) < Array.length per_stream.(s) then begin
        let at = per_stream.(s).(cursors.(s)).Workload.ar_at in
        if at > !now && at < !next then next := at
      end
    done;
    for l = 0 to lanes - 1 do
      if lane_busy.(l) && lane_free.(l) > !now && lane_free.(l) < !next then
        next := lane_free.(l)
    done;
    (* Open batches wake the clock at their close time (window expiry or
       tightest member deadline), whichever comes first. *)
    Hashtbl.iter
      (fun _ b ->
        let c = close_at b in
        if c > !now && c < !next then next := c)
      open_batches;
    if !next = max_int then
      (* Provably unreachable with budget >= 1 and lanes >= 1: a blocked
         arrival implies a full queue implies a busy lane at fixpoint. *)
      failwith "serve: stalled with work remaining and no future event"
    else now := !next
  in
  while work_remains () do
    let progressed = ref true in
    while !progressed do
      progressed := false;
      if release () then progressed := true;
      if ingest () then progressed := true;
      if trim () then progressed := true;
      if admit () then progressed := true;
      if close_due () then progressed := true;
      if dispatch () then progressed := true
    done;
    (* Checkpoint at the fixpoint — a consistent boundary: every batch
       dispatched at this virtual time has fully executed, so a snapshot
       here never captures a half-stepped shard. *)
    (match supervisor with
    | None -> ()
    | Some sv ->
      Supervisor.maybe_checkpoint sv ~now:!now
        ~breaker_open:(Breaker.open_count breaker));
    if work_remains () then advance ()
  done;
  (match supervisor with None -> () | Some sv -> Supervisor.finalize sv);
  (* Graceful drain is the loop's exit path: admission stopped (no
     arrivals left), queues flushed, lanes idle.  What remains is the
     final merge: store single-writer merge, gauge finalization and
     tracer absorption all happen inside pool_report. *)
  let recs =
    List.sort
      (fun (a : Service.event_record) b ->
        compare a.Service.er_index b.Service.er_index)
      !records
  in
  let service_report =
    match stats with
    | Some stats ->
      Service.pool_report ~stats pool ~trace_desc:wl.Workload.wl_desc
        ~records:recs
    | None ->
      Service.pool_report pool ~trace_desc:wl.Workload.wl_desc ~records:recs
  in
  let shed_ingress =
    Array.fold_left (fun acc q -> acc + Ingress.shed_count q) 0 queues
  in
  let blocked =
    Array.fold_left (fun acc q -> acc + Ingress.blocked_count q) 0 queues
  in
  let total = Workload.total wl in
  let sr_lost =
    lost ~crash_shed:!crash_shed ~lane_stalls:!lane_stalls ~total
      ~answered:!answered ~shed_ingress ~shed_overload:!shed_overload
      ~deadline_misses:!deadline_misses
      ~stream_deadline_misses:!stream_deadline_misses
      ~injected_exhaustions:!injected_exhaustions
      ~disconnected:!disconnected ()
  in
  let rep =
    {
      sr_desc = wl.Workload.wl_desc;
      sr_streams = ns;
      sr_lanes = lanes;
      sr_domains = shards;
      sr_total = total;
      sr_answered = !answered;
      sr_shed_ingress = shed_ingress;
      sr_shed_overload = !shed_overload;
      sr_deadline_misses = !deadline_misses;
      sr_stream_deadline_misses = !stream_deadline_misses;
      sr_injected_exhaustions = !injected_exhaustions;
      sr_disconnected = !disconnected;
      sr_blocked = blocked;
      sr_stalls = !stalls;
      sr_stall_cycles = !stall_cycles;
      sr_peak_queue = !peak_queue;
      sr_peak_in_flight = !peak_in_flight;
      sr_breaker_opens = Breaker.opens breaker;
      sr_breaker_closes = Breaker.closes breaker;
      sr_breaker_half_opens = Breaker.half_opens breaker;
      sr_breaker_open_at_drain = Breaker.open_count breaker;
      sr_interp_only = !interp_only_served;
      sr_probes = !probes;
      sr_batches = !batches;
      sr_batched_events = !batched_events;
      sr_crashes =
        (match supervisor with None -> 0 | Some sv -> Supervisor.crashes sv);
      sr_restarts =
        (match supervisor with
        | None -> 0
        | Some sv -> Supervisor.restarts sv);
      sr_replayed =
        (match supervisor with
        | None -> 0
        | Some sv -> Supervisor.replayed sv);
      sr_checkpoints =
        (match supervisor with
        | None -> 0
        | Some sv -> Supervisor.checkpoints sv);
      sr_wedges =
        (match supervisor with None -> 0 | Some sv -> Supervisor.wedges sv);
      sr_crash_shed = !crash_shed;
      sr_lane_stalls = !lane_stalls;
      sr_virtual_cycles = !now;
      sr_lost;
      sr_service = service_report;
    }
  in
  (* Gauges only — never counters — so the embedded replay report string
     stays byte-identical to a plain serve-replay of the same trace. *)
  let st = service_report.Service.rp_stats in
  Stats.set_gauge st "serve.total" (float_of_int total);
  Stats.set_gauge st "serve.streams" (float_of_int ns);
  Stats.set_gauge st "serve.lanes" (float_of_int lanes);
  Stats.set_gauge st "serve.answered" (float_of_int !answered);
  Stats.set_gauge st "serve.shed_ingress" (float_of_int shed_ingress);
  Stats.set_gauge st "serve.shed_overload" (float_of_int !shed_overload);
  Stats.set_gauge st "serve.deadline_misses" (float_of_int !deadline_misses);
  Stats.set_gauge st "serve.stream_deadline_misses"
    (float_of_int !stream_deadline_misses);
  Stats.set_gauge st "serve.injected_exhaustions"
    (float_of_int !injected_exhaustions);
  Stats.set_gauge st "serve.disconnected" (float_of_int !disconnected);
  Stats.set_gauge st "serve.blocked" (float_of_int blocked);
  Stats.set_gauge st "serve.stalls" (float_of_int !stalls);
  Stats.set_gauge st "serve.stall_cycles" (float_of_int !stall_cycles);
  Stats.max_gauge st "serve.peak_queue_depth" (float_of_int !peak_queue);
  Stats.max_gauge st "serve.peak_in_flight" (float_of_int !peak_in_flight);
  Stats.set_gauge st "serve.breaker_opens"
    (float_of_int rep.sr_breaker_opens);
  Stats.set_gauge st "serve.breaker_closes"
    (float_of_int rep.sr_breaker_closes);
  Stats.set_gauge st "serve.breaker_half_opens"
    (float_of_int rep.sr_breaker_half_opens);
  Stats.set_gauge st "serve.breaker_open"
    (float_of_int rep.sr_breaker_open_at_drain);
  Stats.set_gauge st "serve.interp_only" (float_of_int !interp_only_served);
  Stats.set_gauge st "serve.probes" (float_of_int !probes);
  Stats.set_gauge st "serve.virtual_cycles" (float_of_int !now);
  Stats.set_gauge st "serve.lost" (float_of_int sr_lost);
  (* Batching gauges: all zero-batch-safe, and when [--max-batch 1] every
     batch is a singleton so mean_batch_size is exactly 1. *)
  Stats.set_gauge st "serve.timeouts"
    (float_of_int
       (!deadline_misses + !stream_deadline_misses + !injected_exhaustions
      + !lane_stalls));
  (* Recovery activity is gauges-only, never counters and never report
     lines: a recovered run's printed report must stay byte-identical to
     its crash-free baseline.  Absent entirely when unsupervised. *)
  (match supervisor with
  | None -> ()
  | Some sv ->
    Stats.set_gauge st "serve.crashes"
      (float_of_int (Supervisor.crashes sv));
    Stats.set_gauge st "serve.restarts"
      (float_of_int (Supervisor.restarts sv));
    Stats.set_gauge st "serve.replayed_events"
      (float_of_int (Supervisor.replayed sv));
    Stats.set_gauge st "serve.checkpoints"
      (float_of_int (Supervisor.checkpoints sv));
    Stats.set_gauge st "serve.wedges" (float_of_int (Supervisor.wedges sv));
    Stats.set_gauge st "serve.crash_shed" (float_of_int !crash_shed);
    Stats.set_gauge st "serve.lane_stalls" (float_of_int !lane_stalls);
    Stats.set_gauge st "serve.journal_admits"
      (float_of_int (Supervisor.journal_admits sv));
    Stats.set_gauge st "serve.journal_completes"
      (float_of_int (Supervisor.journal_completes sv));
    Stats.set_gauge st "serve.journal_segments"
      (float_of_int (Supervisor.journal_segments sv));
    Stats.set_gauge st "serve.ckpt_verify_failures"
      (float_of_int (Supervisor.verify_failures sv)));
  Stats.set_gauge st "serve.batches" (float_of_int !batches);
  Stats.set_gauge st "serve.batched_events" (float_of_int !batched_events);
  Stats.set_gauge st "serve.mean_batch_size"
    (if !batches = 0 then 0.0
     else float_of_int !batched_events /. float_of_int !batches);
  (match !slacks with
  | [] -> ()
  | l ->
    (* Slack exceeded by 99% of deadline-bound answers: the 1st
       percentile (nearest-rank) of the ascending slack list. *)
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    let rank = max 1 ((n + 99) / 100) in
    Stats.set_gauge st "serve.deadline_slack_p99"
      (float_of_int a.(rank - 1)));
  (* Per-stream breakdowns as labeled gauges; each family's labeled
     values sum to its unlabeled total (checked by the metrics schema
     gate). *)
  for s = 0 to ns - 1 do
    let label = ("stream", string_of_int s) in
    Stats.set_labeled_gauge st "serve.answered" ~label
      (float_of_int answered_by.(s));
    Stats.set_labeled_gauge st "serve.shed_ingress" ~label
      (float_of_int (Ingress.shed_count queues.(s)));
    Stats.set_labeled_gauge st "serve.timeouts" ~label
      (float_of_int timeouts_by.(s))
  done;
  rep

let report_to_string (r : report) : string =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "=== serve: %s ===" r.sr_desc;
  line "streams: %d  lanes: %d  domains: %d" r.sr_streams r.sr_lanes
    r.sr_domains;
  line "events: %d total / %d answered" r.sr_total r.sr_answered;
  line "shed: %d ingress / %d overload" r.sr_shed_ingress r.sr_shed_overload;
  line "timeouts: %d event / %d stream / %d injected" r.sr_deadline_misses
    r.sr_stream_deadline_misses r.sr_injected_exhaustions;
  line "disconnected: %d  blocked offers: %d  stalls: %d (%d cycles)"
    r.sr_disconnected r.sr_blocked r.sr_stalls r.sr_stall_cycles;
  line "peaks: queue depth %d / in-flight %d" r.sr_peak_queue
    r.sr_peak_in_flight;
  line "breaker: %d opens / %d half-opens / %d closes / %d open at drain"
    r.sr_breaker_opens r.sr_breaker_half_opens r.sr_breaker_closes
    r.sr_breaker_open_at_drain;
  line "degraded: %d interp-only / %d probes" r.sr_interp_only r.sr_probes;
  line "batch: %d dispatched / %d events (mean %.2f)" r.sr_batches
    r.sr_batched_events
    (if r.sr_batches = 0 then 0.0
     else float_of_int r.sr_batched_events /. float_of_int r.sr_batches);
  (* Printed only when recovery actually lost service — a recovered run
     where every event replayed prints byte-identically to its
     crash-free baseline. *)
  if r.sr_crash_shed > 0 || r.sr_lane_stalls > 0 then
    line "resilience: %d crash-shed / %d lane-stalled" r.sr_crash_shed
      r.sr_lane_stalls;
  line "virtual cycles: %d  lost events: %d" r.sr_virtual_cycles r.sr_lost;
  Buffer.add_string b (Service.report_to_string r.sr_service);
  Buffer.contents b

let print_report r = print_string (report_to_string r)
