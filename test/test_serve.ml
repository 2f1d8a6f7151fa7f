(* Tests for the resilient serving layer: ingress backpressure (block vs
   shed), deadline semantics (buffers untouched), the per-digest circuit
   breaker (unit cycle and engine-driven degrade/recover), graceful-drain
   conservation (no event ever lost), priority-ordered overload shedding,
   byte-identity between serve-bench and a plain sharded replay, and
   determinism across --domains and across repeated chaos runs. *)

module Trace = Vapor_runtime.Trace
module Service = Vapor_runtime.Service
module Stats = Vapor_runtime.Stats
module Tiered = Vapor_runtime.Tiered
module Faults = Vapor_runtime.Faults
module D = Vapor_runtime.Digest
module Ingress = Vapor_serve.Ingress
module Breaker = Vapor_serve.Breaker
module Workload = Vapor_serve.Workload
module Serve = Vapor_serve.Serve
module Suite = Vapor_kernels.Suite
module Driver = Vapor_vectorizer.Driver
module Flows = Vapor_harness.Flows

let sse = Vapor_targets.Sse.target
let fail = Alcotest.fail
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let base_cfg () = Service.default_config ~targets:[ sse ]

let serve_cfg ?(domains = 1) ?(lanes = 2) ?(budget = 8) ?backlog ?faults
    ?(threshold = 3) ?(cooldown = 1_000_000) ?(max_batch = 1)
    ?(batch_window = 1024) ?(checkpoint_every = 0) ?journal_dir
    ?(restart_limit = 3) ?(lane_stall_limit = 8192) ?(crash_at = [])
    ?(wedge_at = []) cfg =
  {
    Serve.sv_service = cfg;
    sv_domains = domains;
    sv_lanes = lanes;
    sv_budget = budget;
    sv_backlog = backlog;
    sv_faults = faults;
    sv_breaker_threshold = threshold;
    sv_breaker_cooldown = cooldown;
    sv_max_batch = max_batch;
    sv_batch_window = batch_window;
    sv_checkpoint_every = checkpoint_every;
    sv_journal_dir = journal_dir;
    sv_restart_limit = restart_limit;
    sv_lane_stall_limit = lane_stall_limit;
    sv_crash_at = crash_at;
    sv_wedge_at = wedge_at;
  }

(* Hand-built workloads for the targeted scenarios. *)
let ev i kernel = { Trace.ev_index = i; ev_kernel = kernel; ev_target = 0; ev_scale = 2 }

let manual_workload ~streams ~events =
  let seqs = Array.make (Array.length streams) 0 in
  let sorted =
    List.stable_sort
      (fun (at1, seq1, _, _) (at2, seq2, _, _) ->
        match compare at1 at2 with 0 -> compare seq1 seq2 | c -> c)
      events
  in
  let arrivals =
    List.map
      (fun (at, seq, sid, kernel) ->
        let k = seqs.(sid) in
        seqs.(sid) <- k + 1;
        {
          Workload.ar_at = at;
          ar_seq = seq;
          ar_stream = sid;
          ar_stream_seq = k;
          ar_event = ev seq kernel;
        })
      sorted
  in
  let kernels =
    List.sort_uniq compare (List.map (fun (_, _, _, k) -> k) events)
  in
  {
    Workload.wl_desc = Printf.sprintf "manual(%d events)" (List.length events);
    wl_kernels = kernels;
    wl_streams = streams;
    wl_arrivals = Array.of_list arrivals;
  }

(* --- ingress: block vs shed --------------------------------------------- *)

let ingress_policy_case () =
  let q = Ingress.create ~cap:2 ~policy:Ingress.Block in
  check_bool "accepts under cap" true (Ingress.offer q 1 = Ingress.Accepted);
  check_bool "accepts at cap" true (Ingress.offer q 2 = Ingress.Accepted);
  check_bool "blocks when full" true (Ingress.offer q 3 = Ingress.Would_block);
  check_int "blocked counted" 1 (Ingress.blocked_count q);
  check_int "nothing shed under block" 0 (Ingress.shed_count q);
  check_bool "FIFO pop" true (Ingress.pop q = Some 1);
  check_bool "room again after pop" true (Ingress.offer q 3 = Ingress.Accepted);
  check_int "accepted counted" 3 (Ingress.accepted_count q);
  let s = Ingress.create ~cap:1 ~policy:Ingress.Shed in
  check_bool "shed accepts under cap" true (Ingress.offer s 10 = Ingress.Accepted);
  check_bool "shed drops when full" true (Ingress.offer s 11 = Ingress.Dropped);
  check_int "shed counted" 1 (Ingress.shed_count s);
  (* Overload trim is accounted by the caller, not the queue. *)
  check_bool "drop_oldest returns the head" true (Ingress.drop_oldest s = Some 10);
  check_int "drop_oldest not counted as ingress shed" 1 (Ingress.shed_count s);
  check_bool "empty after trim" true (Ingress.is_empty s)

(* --- breaker: the full life cycle, unit-level --------------------------- *)

let breaker_digest () =
  D.of_vkernel (Flows.vectorized_bytecode (Suite.find "saxpy_fp")).Driver.vkernel

let breaker_cycle_case () =
  let d = breaker_digest () in
  let b = Breaker.create ~threshold:2 ~cooldown:100 () in
  check_bool "starts closed" true (Breaker.state b d = Breaker.Closed);
  check_bool "closed serves normal" true (Breaker.mode b d ~now:0 = Breaker.Normal);
  Breaker.record b d ~now:0 ~ok:false;
  check_bool "one failure stays closed" true (Breaker.state b d = Breaker.Closed);
  Breaker.record b d ~now:1 ~ok:true;
  Breaker.record b d ~now:2 ~ok:false;
  check_bool "success resets the streak" true (Breaker.state b d = Breaker.Closed);
  Breaker.record b d ~now:3 ~ok:false;
  check_bool "threshold consecutive failures open" true
    (Breaker.state b d = Breaker.Open);
  check_int "open transition counted" 1 (Breaker.opens b);
  check_bool "open serves interpreter-only" true
    (Breaker.mode b d ~now:50 = Breaker.Interp_only);
  check_bool "cooldown elapsed: half-open probe" true
    (Breaker.mode b d ~now:103 = Breaker.Probe);
  check_int "half-open counted" 1 (Breaker.half_opens b);
  (* A failed probe re-opens with a doubled cooldown. *)
  Breaker.record b d ~now:103 ~ok:false;
  check_bool "failed probe re-opens" true (Breaker.state b d = Breaker.Open);
  check_bool "doubled cooldown still open" true
    (Breaker.mode b d ~now:250 = Breaker.Interp_only);
  check_bool "doubled cooldown elapses" true
    (Breaker.mode b d ~now:310 = Breaker.Probe);
  Breaker.record b d ~now:310 ~ok:true;
  check_bool "clean probe closes" true (Breaker.state b d = Breaker.Closed);
  check_int "close counted" 1 (Breaker.closes b);
  check_int "nothing open at the end" 0 (Breaker.open_count b)

(* --- serve-bench vs serve-replay: byte-identity -------------------------- *)

let bench_identity_case () =
  let trace = Trace.standard ~length:240 ~n_targets:1 () in
  let cfg = base_cfg () in
  let wl = Workload.of_trace ~streams:4 trace in
  let rep = Serve.run (serve_cfg ~domains:2 cfg) wl in
  check_int "drain answers everything" (Workload.total wl) rep.Serve.sr_answered;
  check_int "nothing lost" 0 rep.Serve.sr_lost;
  check_int "no breaker activity on the healthy path" 0
    rep.Serve.sr_breaker_opens;
  let embedded = Service.report_to_string rep.Serve.sr_service in
  let sharded =
    Service.report_to_string (Service.replay ~domains:2 cfg trace)
  in
  check_string "serve == sharded replay, byte-identical" sharded embedded;
  let plain = Service.report_to_string (Service.replay cfg trace) in
  check_string "serve == plain replay, byte-identical" plain embedded

(* --- determinism: across domains, and across repeated runs --------------- *)

let domains_determinism_case () =
  let trace = Trace.standard ~length:200 ~n_targets:1 () in
  let run domains =
    let rep =
      Serve.run (serve_cfg ~domains (base_cfg ()))
        (Workload.of_trace ~streams:4 trace)
    in
    ( Service.report_to_string rep.Serve.sr_service,
      [
        rep.Serve.sr_answered;
        rep.Serve.sr_virtual_cycles;
        rep.Serve.sr_peak_queue;
        rep.Serve.sr_peak_in_flight;
        rep.Serve.sr_blocked;
        rep.Serve.sr_lost;
      ] )
  in
  let r1 = run 1 and r2 = run 2 and r4 = run 4 in
  check_bool "domains=2 identical to domains=1" true (r1 = r2);
  check_bool "domains=4 identical to domains=1" true (r1 = r4)

let chaos_repeat_determinism_case () =
  let trace = Trace.standard ~length:200 ~n_targets:1 () in
  let run () =
    let faults = Faults.make (Faults.serve_chaos_spec ~seed:42) in
    let cfg =
      {
        (base_cfg ()) with
        Service.cfg_guard =
          {
            Tiered.g_oracle = Some Tiered.oracle_always;
            g_faults = Some faults;
            g_retry_budget = 3;
          };
      }
    in
    Serve.report_to_string
      (Serve.run (serve_cfg ~faults cfg)
         (Workload.of_trace ~streams:4 trace))
  in
  check_string "same seed, same chaos, byte-identical report" (run ()) (run ())

(* --- backpressure -------------------------------------------------------- *)

let block_backpressure_case () =
  let trace = Trace.standard ~length:60 ~n_targets:1 () in
  let wl = Workload.of_trace ~streams:2 ~queue_cap:2 ~policy:Ingress.Block trace in
  let rep = Serve.run (serve_cfg (base_cfg ())) wl in
  check_bool "full queues pushed back on the producer" true
    (rep.Serve.sr_blocked > 0);
  check_int "every blocked event eventually served" 60 rep.Serve.sr_answered;
  check_int "block policy sheds nothing" 0 rep.Serve.sr_shed_ingress;
  check_int "nothing lost" 0 rep.Serve.sr_lost

let shed_backpressure_case () =
  let trace = Trace.standard ~length:60 ~n_targets:1 () in
  let wl = Workload.of_trace ~streams:2 ~queue_cap:2 ~policy:Ingress.Shed trace in
  let rep = Serve.run (serve_cfg (base_cfg ())) wl in
  check_bool "overflow shed" true (rep.Serve.sr_shed_ingress > 0);
  check_int "shed + answered conserves the total" 60
    (rep.Serve.sr_answered + rep.Serve.sr_shed_ingress);
  check_int "nothing lost" 0 rep.Serve.sr_lost;
  (* Shed is accounted on the serve side only: the replay report counts
     exactly the answered invocations. *)
  check_int "replay saw only the answered events" rep.Serve.sr_answered
    rep.Serve.sr_service.Service.rp_invocations

(* --- deadlines: timed-out events never execute --------------------------- *)

let deadline_case () =
  let trace = Trace.standard ~length:40 ~n_targets:1 () in
  let wl =
    Workload.of_trace ~streams:2 ~queue_cap:64 ~deadline:1 ~interval:0 trace
  in
  let rep = Serve.run (serve_cfg ~lanes:2 (base_cfg ())) wl in
  (* Flooded at t=0 with a 1-cycle budget: only the events dispatched at
     t=0 (one per lane) can make it; everything else times out. *)
  check_int "one event per lane beat the deadline" 2 rep.Serve.sr_answered;
  check_int "the rest timed out" 38 rep.Serve.sr_deadline_misses;
  (* Buffers untouched: a timed-out event never reaches the runtime, so
     invocations == answered, not total. *)
  check_int "timeouts never invoked the runtime" 2
    rep.Serve.sr_service.Service.rp_invocations;
  check_int "nothing lost" 0 rep.Serve.sr_lost

let stream_deadline_case () =
  let trace = Trace.standard ~length:30 ~n_targets:1 () in
  let wl =
    Workload.of_trace ~streams:2 ~queue_cap:64 ~stream_deadline:1 ~interval:0
      trace
  in
  let rep = Serve.run (serve_cfg ~lanes:1 ~budget:1 (base_cfg ())) wl in
  check_int "only the t=0 dispatch beat the stream cutoff" 1
    rep.Serve.sr_answered;
  check_int "the rest of both streams timed out" 29
    rep.Serve.sr_stream_deadline_misses;
  check_int "nothing lost" 0 rep.Serve.sr_lost

(* --- breaker in the engine: degrade to interp-only, probe, recover ------- *)

let breaker_engine_case () =
  let streams =
    [|
      Workload.stream ~id:0 ~queue_cap:8 ~deadline:1 ();
      Workload.stream ~id:1 ~queue_cap:8 ();
    |]
  in
  (* s0 floods two events at t=0 through one lane: the first executes,
     the second busts its 1-cycle budget -> timeout -> breaker opens
     (threshold 1).  s1's later events then walk the recovery: one
     served interpreter-only inside the cooldown, one probe after it,
     then normal serving. *)
  let events =
    [
      0, 0, 0, "saxpy_fp";
      0, 1, 0, "saxpy_fp";
      40_000, 2, 1, "saxpy_fp";
      200_000, 3, 1, "saxpy_fp";
      300_000, 4, 1, "saxpy_fp";
    ]
  in
  let wl = manual_workload ~streams ~events in
  let rep =
    Serve.run
      (serve_cfg ~lanes:1 ~budget:1 ~threshold:1 ~cooldown:50_000
         (base_cfg ()))
      wl
  in
  check_int "timeout opened the breaker" 1 rep.Serve.sr_breaker_opens;
  check_int "one event served degraded during the cooldown" 1
    rep.Serve.sr_interp_only;
  check_int "one half-open probe" 1 rep.Serve.sr_breaker_half_opens;
  check_int "probe ran a forced oracle check" 1 rep.Serve.sr_probes;
  check_int "clean probe closed the breaker" 1 rep.Serve.sr_breaker_closes;
  check_int "nothing open at drain" 0 rep.Serve.sr_breaker_open_at_drain;
  check_int "four events answered" 4 rep.Serve.sr_answered;
  check_int "one deadline miss" 1 rep.Serve.sr_deadline_misses;
  check_int "nothing lost" 0 rep.Serve.sr_lost

(* --- overload shedding respects priority --------------------------------- *)

let priority_shed_case () =
  let streams =
    [|
      Workload.stream ~id:0 ~priority:1 ~policy:Ingress.Block ~queue_cap:64 ();
      Workload.stream ~id:1 ~priority:0 ~policy:Ingress.Shed ~queue_cap:64 ();
    |]
  in
  (* 20 saxpy events on the high-priority stream, 20 sfir events on the
     low-priority shed-policy stream, all flooded at t=0 with a backlog
     watermark of 10: the trim must fall entirely on the sfir stream. *)
  let events =
    List.init 20 (fun i -> 0, i, 0, "saxpy_fp")
    @ List.init 20 (fun i -> 0, 20 + i, 1, "sfir_fp")
  in
  let wl = manual_workload ~streams ~events in
  let rep =
    Serve.run
      (serve_cfg ~lanes:1 ~budget:1 ~backlog:10 (base_cfg ()))
      wl
  in
  check_int "low-priority stream trimmed whole" 20 rep.Serve.sr_shed_overload;
  check_int "high-priority stream fully served" 20 rep.Serve.sr_answered;
  check_int "nothing lost" 0 rep.Serve.sr_lost;
  (* The replay rows prove who was served: every saxpy invocation, no
     sfir ones. *)
  let invocations kernel =
    List.fold_left
      (fun acc (r : Service.kernel_row) ->
        if r.Service.kr_kernel = kernel then acc + r.Service.kr_invocations
        else acc)
      0 rep.Serve.sr_service.Service.rp_rows
  in
  check_int "all saxpy served" 20 (invocations "saxpy_fp");
  check_int "no sfir served" 0 (invocations "sfir_fp")

(* --- chaos: conservation under serving-shaped faults ---------------------- *)

let chaos_conservation_case () =
  let trace = Trace.standard ~seed:42 ~length:300 ~n_targets:1 () in
  let faults = Faults.make (Faults.serve_chaos_spec ~seed:42) in
  let cfg =
    {
      (base_cfg ()) with
      Service.cfg_guard =
        {
          Tiered.g_oracle = Some Tiered.oracle_always;
          g_faults = Some faults;
          g_retry_budget = 3;
        };
    }
  in
  let wl = Workload.of_trace ~streams:4 trace in
  let rep = Serve.run (serve_cfg ~faults cfg) wl in
  check_int "no event escapes the accounting" 0 rep.Serve.sr_lost;
  check_bool "disconnects fired" true (rep.Serve.sr_disconnected > 0);
  check_bool "the faults were actually drawn" true (Faults.stall_draws faults > 0);
  check_bool "every mismatch was quarantined" true
    (rep.Serve.sr_service.Service.rp_oracle_mismatches
    <= rep.Serve.sr_service.Service.rp_quarantines);
  check_int "conservation equation balances"
    (Workload.total wl)
    (rep.Serve.sr_answered + rep.Serve.sr_shed_ingress
   + rep.Serve.sr_shed_overload + rep.Serve.sr_deadline_misses
   + rep.Serve.sr_stream_deadline_misses + rep.Serve.sr_injected_exhaustions
   + rep.Serve.sr_disconnected)

(* --- batched dispatch ----------------------------------------------------- *)

(* What batching may not change, rendered for comparison against the
   unbatched run: every counter, histogram and labeled series, and every
   gauge outside serve.* (formation rightly moves serve.batches,
   serve.blocked, serve.mean_batch_size and serve.virtual_cycles). *)
let runtime_view (st : Stats.t) =
  let b = Buffer.create 4096 in
  List.iter
    (fun n -> Printf.bprintf b "counter %s %d\n" n (Stats.counter st n))
    (Stats.counter_names st);
  List.iter
    (fun n ->
      match Stats.summary st n with
      | Some s ->
        Printf.bprintf b "histogram %s %d %h %h %h\n" n s.Stats.s_count
          s.Stats.s_sum s.Stats.s_min s.Stats.s_max
      | None -> ())
    (Stats.histogram_names st);
  List.iter
    (fun ((n, k, v), x) -> Printf.bprintf b "labeled %s{%s=%s} %h\n" n k v x)
    (Stats.labeled_series st);
  List.iter
    (fun n ->
      if not (String.starts_with ~prefix:"serve." n) then
        Printf.bprintf b "gauge %s %h\n" n
          (Option.value ~default:nan (Stats.gauge st n)))
    (Stats.gauge_names st);
  Buffer.contents b

(* Each event's depth-0/1 spans of a deterministic trace, names and
   attrs, with the ordinal dropped.  The batch_dispatch markers and the
   stage leaves under exec are excluded: an elided member rightly skips
   its layout and simulate leaves, which shifts later ordinals. *)
let span_view jsonl =
  String.split_on_char '\n' jsonl
  |> List.filter_map (fun line ->
         let fields = String.split_on_char ',' line in
         if
           List.exists
             (String.starts_with ~prefix:"\"name\":\"batch_dispatch\"")
             fields
           || not
                (List.mem "\"depth\":0" fields || List.mem "\"depth\":1" fields)
         then None
         else
           Some
             (String.concat ","
                (List.filter
                   (fun f -> not (String.starts_with ~prefix:"\"ord\":" f))
                   fields)))
  |> String.concat "\n"

(* Batching is semantics-free: for any batch config and any domain count
   the embedded replay report is byte-identical to a plain replay of the
   same trace (same invocations, cycles, promotions, cache hits), and an
   elided member cannot be told apart from an executed one — metrics and
   depth-0/1 spans equal the same domain count's unbatched run. *)
let batch_identity_case () =
  let trace = Trace.standard ~length:240 ~n_targets:1 () in
  let cfg = base_cfg () in
  let plain = Service.report_to_string (Service.replay cfg trace) in
  List.iter
    (fun domains ->
      let run (max_batch, batch_window) =
        let tracer = Vapor_obs.Tracer.create ~wall:false () in
        let rep =
          Serve.run ~tracer
            (serve_cfg ~domains ~budget:16 ~max_batch ~batch_window cfg)
            (Workload.of_trace ~streams:4 trace)
        in
        rep, Vapor_obs.Tracer.to_jsonl tracer
      in
      let unbatched, unbatched_spans = run (1, 1024) in
      List.iter
        (fun (max_batch, batch_window) ->
          let rep, spans = run (max_batch, batch_window) in
          let label =
            Printf.sprintf "domains=%d max_batch=%d window=%d" domains
              max_batch batch_window
          in
          check_string (label ^ ": embedded == plain replay") plain
            (Service.report_to_string rep.Serve.sr_service);
          check_int (label ^ ": nothing lost") 0 rep.Serve.sr_lost;
          check_int
            (label ^ ": everything answered")
            240 rep.Serve.sr_answered;
          let stats r = r.Serve.sr_service.Service.rp_stats in
          check_string
            (label ^ ": metrics == unbatched")
            (runtime_view (stats unbatched))
            (runtime_view (stats rep));
          check_string
            (label ^ ": depth-0/1 spans == unbatched")
            (span_view unbatched_spans) (span_view spans))
        [ (1, 1024); (4, 512); (32, 32_768) ])
    [ 1; 2; 4 ]

(* Formation follows the traffic shape: a single-kernel flood fills one
   batch to the cap, a two-kernel mix splits into per-digest batches that
   close at the window instead. *)
let batch_formation_case () =
  let streams =
    [|
      Workload.stream ~id:0 ~queue_cap:8 ();
      Workload.stream ~id:1 ~queue_cap:8 ();
    |]
  in
  let form ~kernel1 =
    let events =
      List.init 8 (fun i -> 0, i, 0, "saxpy_fp")
      @ List.init 8 (fun i -> 0, 8 + i, 1, kernel1)
    in
    Serve.run
      (serve_cfg ~lanes:1 ~budget:16 ~max_batch:16 ~batch_window:100_000
         (base_cfg ()))
      (manual_workload ~streams ~events)
  in
  let skewed = form ~kernel1:"saxpy_fp" in
  (* 16 same-digest events flooded at t=0 fill the cap: one batch. *)
  check_int "skewed: one full batch" 1 skewed.Serve.sr_batches;
  check_int "skewed: all 16 in it" 16 skewed.Serve.sr_batched_events;
  check_int "skewed: all answered" 16 skewed.Serve.sr_answered;
  let uniform = form ~kernel1:"sfir_fp" in
  (* Two digests, 8 events each: neither reaches the cap, both close at
     the window — twice the batches at half the size. *)
  check_int "uniform: one batch per digest" 2 uniform.Serve.sr_batches;
  check_int "uniform: all 16 batched" 16 uniform.Serve.sr_batched_events;
  check_int "uniform: all answered" 16 uniform.Serve.sr_answered

(* A member deadline at risk closes an open batch early: with the window
   parked far in the future, the only way these events get served before
   their budget burns is the risk-driven close. *)
let batch_deadline_close_case () =
  let streams = [| Workload.stream ~id:0 ~queue_cap:4 ~deadline:10_000 () |] in
  let events = [ 0, 0, 0, "saxpy_fp"; 0, 1, 0, "saxpy_fp" ] in
  let rep =
    Serve.run
      (serve_cfg ~lanes:1 ~budget:4 ~max_batch:8 ~batch_window:10_000_000
         (base_cfg ()))
      (manual_workload ~streams ~events)
  in
  check_int "batch closed at the deadline, not the window" 1
    rep.Serve.sr_batches;
  check_int "both members rode it" 2 rep.Serve.sr_batched_events;
  check_int "both answered in time" 2 rep.Serve.sr_answered;
  check_int "no deadline misses" 0 rep.Serve.sr_deadline_misses;
  check_int "nothing lost" 0 rep.Serve.sr_lost

(* A non-closed breaker bypasses formation: while the digest is open or
   half-open every event dispatches as a singleton, so each probe's
   verdict lands before the next same-digest serve.  Once the probe
   closes the breaker, formation resumes. *)
let batch_breaker_bypass_case () =
  let streams =
    [|
      Workload.stream ~id:0 ~queue_cap:4 ~stream_deadline:1 ();
      Workload.stream ~id:1 ~queue_cap:8 ();
    |]
  in
  (* s0's lone event arrives past its stream cutoff: timeout -> breaker
     opens (threshold 1).  s1 then floods three events while the breaker
     is open: all three must bypass formation (singletons; the first is
     the probe that closes the breaker).  The final pair arrives with
     the breaker closed again and co-batches. *)
  let events =
    [
      2, 0, 0, "saxpy_fp";
      100_000, 1, 1, "saxpy_fp";
      100_000, 2, 1, "saxpy_fp";
      100_000, 3, 1, "saxpy_fp";
      300_000, 4, 1, "saxpy_fp";
      300_000, 5, 1, "saxpy_fp";
    ]
  in
  let rep =
    Serve.run
      (serve_cfg ~lanes:1 ~budget:8 ~threshold:1 ~cooldown:50_000
         ~max_batch:8 ~batch_window:1_000 (base_cfg ()))
      (manual_workload ~streams ~events)
  in
  check_int "stream-deadline timeout opened the breaker" 1
    rep.Serve.sr_breaker_opens;
  check_int "one half-open probe" 1 rep.Serve.sr_breaker_half_opens;
  check_int "clean probe closed the breaker" 1 rep.Serve.sr_breaker_closes;
  (* 3 bypass singletons + 1 closed-breaker pair = 4 batches / 5 events
     (the timed-out event's batch had no survivors). *)
  check_int "bypass kept open-breaker serves singleton" 4
    rep.Serve.sr_batches;
  check_int "five events went through batches" 5 rep.Serve.sr_batched_events;
  check_int "five answered" 5 rep.Serve.sr_answered;
  check_int "nothing lost" 0 rep.Serve.sr_lost

(* Chaos with batching on: conservation still holds exactly, quarantines
   still cover mismatches, and the run is repeat-deterministic. *)
let batch_chaos_case () =
  let trace = Trace.standard ~seed:42 ~length:300 ~n_targets:1 () in
  let run () =
    let faults = Faults.make (Faults.serve_chaos_spec ~seed:42) in
    let cfg =
      {
        (base_cfg ()) with
        Service.cfg_guard =
          {
            Tiered.g_oracle = Some Tiered.oracle_always;
            g_faults = Some faults;
            g_retry_budget = 3;
          };
      }
    in
    Serve.run
      (serve_cfg ~faults ~budget:16 ~max_batch:8 ~batch_window:4096 cfg)
      (Workload.of_trace ~streams:4 trace)
  in
  let rep = run () in
  check_int "no event escapes the accounting" 0 rep.Serve.sr_lost;
  check_bool "every mismatch was quarantined" true
    (rep.Serve.sr_service.Service.rp_oracle_mismatches
    <= rep.Serve.sr_service.Service.rp_quarantines);
  check_int "conservation equation balances"
    (Workload.total (Workload.of_trace ~streams:4 trace))
    (rep.Serve.sr_answered + rep.Serve.sr_shed_ingress
   + rep.Serve.sr_shed_overload + rep.Serve.sr_deadline_misses
   + rep.Serve.sr_stream_deadline_misses + rep.Serve.sr_injected_exhaustions
   + rep.Serve.sr_disconnected);
  check_string "chaos with batching is repeat-deterministic"
    (Serve.report_to_string rep)
    (Serve.report_to_string (run ()))

(* --- serve gauges exported, reports unperturbed --------------------------- *)

let gauges_case () =
  let trace = Trace.standard ~length:80 ~n_targets:1 () in
  let stats = Stats.create () in
  let rep =
    Serve.run ~stats (serve_cfg (base_cfg ())) (Workload.of_trace ~streams:4 trace)
  in
  let gauge name = Option.value ~default:nan (Stats.gauge stats name) in
  Alcotest.(check (float 0.0))
    "serve.answered gauge" (float_of_int rep.Serve.sr_answered)
    (gauge "serve.answered");
  Alcotest.(check (float 0.0)) "serve.lost gauge" 0.0 (gauge "serve.lost");
  Alcotest.(check (float 0.0))
    "serve.virtual_cycles gauge"
    (float_of_int rep.Serve.sr_virtual_cycles)
    (gauge "serve.virtual_cycles");
  (* Per-stream labeled series sum to their unlabeled totals. *)
  let labeled_sum name =
    List.fold_left
      (fun acc ((n, k, _), v) ->
        if n = name && k = "stream" then acc +. v else acc)
      0.0 (Stats.labeled_series stats)
  in
  Alcotest.(check (float 0.0))
    "labeled serve.answered sums to the total"
    (gauge "serve.answered") (labeled_sum "serve.answered");
  Alcotest.(check (float 0.0))
    "labeled serve.timeouts sums to the total" (gauge "serve.timeouts")
    (labeled_sum "serve.timeouts");
  Alcotest.(check (float 0.0))
    "labeled serve.shed_ingress sums to the total"
    (gauge "serve.shed_ingress")
    (labeled_sum "serve.shed_ingress");
  check_bool "labeled series reach the Prometheus export" true
    (let prom = Stats.to_prometheus stats in
     let needle = "vapor_serve_answered{stream=\"0\"}" in
     let nl = String.length needle in
     let rec contains i =
       i + nl <= String.length prom
       && (String.sub prom i nl = needle || contains (i + 1))
     in
     contains 0);
  (* Gauges never leak into the table or the report text. *)
  check_bool "gauges absent from the counter table" false
    (let table = Stats.to_table stats in
     let rec contains i =
       i + 6 <= String.length table
       && (String.sub table i 6 = "serve." || contains (i + 1))
     in
     contains 0);
  if String.length (Serve.report_to_string rep) = 0 then fail "empty report"

let () =
  Alcotest.run "serve"
    [
      ( "ingress",
        [ Alcotest.test_case "block vs shed" `Quick ingress_policy_case ] );
      ( "breaker",
        [
          Alcotest.test_case "unit life cycle" `Quick breaker_cycle_case;
          Alcotest.test_case "engine degrade and recover" `Quick
            breaker_engine_case;
        ] );
      ( "identity",
        [
          Alcotest.test_case "serve-bench == serve-replay" `Quick
            bench_identity_case;
          Alcotest.test_case "identical across domains" `Quick
            domains_determinism_case;
          Alcotest.test_case "chaos repeat determinism" `Quick
            chaos_repeat_determinism_case;
        ] );
      ( "backpressure",
        [
          Alcotest.test_case "block stalls and serves all" `Quick
            block_backpressure_case;
          Alcotest.test_case "shed drops and accounts" `Quick
            shed_backpressure_case;
          Alcotest.test_case "overload trim respects priority" `Quick
            priority_shed_case;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "event deadline, buffers untouched" `Quick
            deadline_case;
          Alcotest.test_case "stream deadline cutoff" `Quick
            stream_deadline_case;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "conservation under serving faults" `Quick
            chaos_conservation_case;
        ] );
      ( "batching",
        [
          Alcotest.test_case "identity across domains and configs" `Quick
            batch_identity_case;
          Alcotest.test_case "skewed vs uniform formation" `Quick
            batch_formation_case;
          Alcotest.test_case "deadline-driven early close" `Quick
            batch_deadline_close_case;
          Alcotest.test_case "breaker-open bypass" `Quick
            batch_breaker_bypass_case;
          Alcotest.test_case "chaos conservation with batching" `Quick
            batch_chaos_case;
        ] );
      ( "observability",
        [ Alcotest.test_case "serve gauges exported" `Quick gauges_case ] );
    ]
