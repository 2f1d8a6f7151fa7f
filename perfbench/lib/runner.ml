(* The four workloads and one measured run of each.

   Every workload is a closed loop: one caller hands the whole seeded
   workload to [Serve.run] and waits for the drain, on one domain, with
   no other threads.  [Serve.run] simulates virtual time, so arrivals
   never wait on a wall clock; the figure of merit is served events per
   wall-clock second at the stated workload size.  A run

   1. sets up repeatedly (trace and workload build, vectorizing every
      kernel, one throwaway session pool, and on restart-warm the cold
      store fill) and keeps the last set-up;
   2. serves one untimed warm-up, then times [Serve.run] samples until
      [seconds] have elapsed and at least [min_samples] exist; each of
      the first three samples is followed by a one-event-at-a-time
      latency pass over the same trace;
   3. checks conservation, report identity and kernel outputs outside
      the timed region;
   4. when traced, serves once more with a wall-clock tracer and folds
      the spans into the per-layer ledger.

   Repeated identical work is timed and the fastest repetition kept: the
   fastest sample for throughput, each event's fastest pass for latency.
   On a shared machine, neighbours slow everything by up to 1.8x for
   seconds at a time, so any other statistic of raw timings measures how
   busy the neighbours were.  The sample and pass quartiles are kept
   beside each value. *)

module Service = Vapor_runtime.Service
module Trace = Vapor_runtime.Trace
module Stats_reg = Vapor_runtime.Stats
module Serve = Vapor_serve.Serve
module Workload = Vapor_serve.Workload
module Store = Vapor_store.Store
module Suite = Vapor_kernels.Suite
module Driver = Vapor_vectorizer.Driver
module Compile = Vapor_jit.Compile
module Exec = Vapor_harness.Exec
module Jit_report = Vapor_harness.Jit_report
module Veval = Vapor_vecir.Veval
module Encode = Vapor_vecir.Encode
module Bytecode = Vapor_vecir.Bytecode
module Eval = Vapor_ir.Eval
module Buffer_ = Vapor_ir.Buffer_
module Target = Vapor_targets.Target
module Tracer = Vapor_obs.Tracer

let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* --- scratch space inside the working directory ------------------------ *)

type work = { root : string; mutable next : int }

let work_create () =
  let root =
    Filename.concat
      (Filename.concat (Sys.getcwd ()) ".perfbench")
      (Printf.sprintf "run-%d" (Unix.getpid ()))
  in
  Store.mkdir_p root;
  { root; next = 0 }

let fresh w tag =
  w.next <- w.next + 1;
  Filename.concat w.root (Printf.sprintf "%s-%d" tag w.next)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* --- workload definitions ---------------------------------------------- *)

type kind = Steady_hot | Compile_churn | Restart_warm | Durable_burst

(* The names are Spec.workloads'. *)
let kind_of_name = function
  | "steady-hot" -> Some Steady_hot
  | "compile-churn" -> Some Compile_churn
  | "restart-warm" -> Some Restart_warm
  | "durable-burst" -> Some Durable_burst
  | _ -> None

type def = {
  kind : kind;
  trace : Trace.t;
  service : Service.config;  (* without the persistent store *)
  streams : int;
}

(* The heterogeneous fleet: every target archetype, SVE pinned at a
   128-bit vector length.  The trace's target index picks from this list,
   so it must stay the list of [fleet_population] in bench/main.ml, an
   executable this library cannot link; a test compares the two. *)
let fleet () =
  let module T = Vapor_targets.Target in
  [
    Vapor_targets.Scalar_target.target;
    Vapor_targets.Sse.target;
    Vapor_targets.Avx.target;
    Vapor_targets.Neon.target;
    Vapor_targets.Altivec.target;
    T.resolve ~vl:16 Vapor_targets.Sve.target;
    Vapor_targets.Avx512.target;
  ]

(* A workload's event mix is fixed: the standard trace's default draw
   over its kernels, scales and targets.  The seed only orders it (a
   seeded shuffle), so every seed serves the same multiset of events and
   runs on different seeds differ in cache reuse and arrival order, not
   in how much work there is. *)
let seeded trace ~seed =
  let a = Array.of_list trace.Trace.tr_events in
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  {
    trace with
    Trace.tr_seed = seed;
    tr_events =
      List.mapi (fun i e -> { e with Trace.ev_index = i }) (Array.to_list a);
  }

(* [div] shrinks every workload's event count (the smoke tests use 20). *)
let define ?(div = 1) kind ~seed =
  let sse = Service.default_config ~targets:[ Vapor_targets.Sse.target ] in
  match kind with
  | Steady_hot ->
    {
      kind;
      trace =
        seeded ~seed (Trace.standard ~length:(20_000 / div) ~n_targets:1 ());
      service = sse;
      streams = 4;
    }
  | Compile_churn | Restart_warm ->
    let targets = fleet () in
    {
      kind;
      trace =
        seeded ~seed
          (Trace.standard ~kernels:Suite.names ~scales:[ 1 ]
             ~length:(5_000 / div) ~n_targets:(List.length targets) ());
      service =
        {
          (Service.default_config ~targets) with
          Service.cfg_hotness = 0;
          cfg_max_entries = 16;
          cfg_max_bytes = 64 * 1024;
        };
      streams = 4;
    }
  | Durable_burst ->
    {
      kind;
      trace =
        seeded ~seed
          (Trace.standard ~scales:[ 1 ] ~length:(60_000 / div) ~n_targets:1 ());
      service = sse;
      streams = 16;
    }

(* Eight kills, n/36 dispatch ordinals apart.  Batching packs the n
   events into about n/3 dispatches, so the kills land over the first two
   thirds of the run, far enough apart that each recovery finishes its
   probation before the next kill (no shard degrades or sheds). *)
let kills def =
  let n = Trace.length def.trace in
  List.init 8 (fun i -> (i + 1) * n / 36)

let serve_cfg ?store ?journal_dir def =
  let service = { def.service with Service.cfg_store = store } in
  let base = Serve.default_cfg service in
  match def.kind with
  | Durable_burst ->
    {
      base with
      Serve.sv_budget = 64;
      sv_max_batch = 32;
      sv_batch_window = 32_768;
      sv_checkpoint_every = 4096;
      sv_journal_dir = journal_dir;
      sv_crash_at = kills def;
    }
  | Steady_hot | Compile_churn | Restart_warm -> base

let open_store ?(create = false) dir =
  match Store.open_store ~create dir with
  | Ok s -> s
  | Error m -> failwith ("perfbench store: " ^ m)

(* --- set-up ------------------------------------------------------------ *)

type prepared = {
  def : def;
  wl : Workload.t;
  store_dir : string option;  (* restart-warm: the filled store *)
  cold_report : string option;  (* restart-warm: the fill run's report *)
  bytecodes : Bytecode.vkernel list;
  loops_vectorized : int;
  vectorize_ns : float;
}

let setup_once ?div ~work kind ~seed =
  let def = define ?div kind ~seed in
  let wl = Workload.of_trace ~streams:def.streams def.trace in
  let names = def.trace.Trace.tr_kernels in
  let kernels = List.map (fun n -> Suite.kernel (Suite.find n)) names in
  let t0 = now_ns () in
  let results = List.map (fun k -> Driver.vectorize k) kernels in
  let vectorize_ns = now_ns () -. t0 in
  ignore (Service.pool_create def.service ~kernels:names);
  let store_dir, cold_report =
    match kind with
    | Restart_warm ->
      let dir = fresh work "store" in
      let store = open_store ~create:true dir in
      let rep = Serve.run (serve_cfg ~store def) wl in
      Some dir, Some (Service.report_to_string rep.Serve.sr_service)
    | Steady_hot | Compile_churn | Durable_burst -> None, None
  in
  let loops_vectorized =
    List.fold_left
      (fun acc (r : Driver.result) ->
        acc
        + List.length
            (List.filter
               (fun (e : Driver.report_entry) ->
                 match e.Driver.status with
                 | Driver.Vectorized _ -> true
                 | Driver.Not_vectorized _ -> false)
               r.Driver.report))
      0 results
  in
  {
    def;
    wl;
    store_dir;
    cold_report;
    bytecodes = List.map (fun (r : Driver.result) -> r.Driver.vkernel) results;
    loops_vectorized;
    vectorize_ns;
  }

(* --- timed samples ----------------------------------------------------- *)

(* One served drain.  On restart-warm the store reopen is part of the
   timed work (a restarted process pays it); on durable-burst the fresh
   journal directory is made before timing and removed after. *)
let sample ?tracer ~work p =
  let journal_dir =
    match p.def.kind with
    | Durable_burst ->
      let d = fresh work "journal" in
      Store.mkdir_p d;
      Some d
    | Steady_hot | Compile_churn | Restart_warm -> None
  in
  (* The benchmark's own span around its call into the store layer. *)
  let open_traced dir =
    match tracer with
    | None -> open_store dir
    | Some tr ->
      Tracer.root_begin tr ~ev:(-1) ~name:"store_open" [];
      let s = open_store dir in
      Tracer.root_end tr ~name:"store_open" ();
      s
  in
  let t0 = now_ns () in
  let store = Option.map open_traced p.store_dir in
  let r = Serve.run ?tracer (serve_cfg ?store ?journal_dir p.def) p.wl in
  let dt = now_ns () -. t0 in
  Option.iter rm_rf journal_dir;
  r, dt

(* Every event once, one at a time, through [Service.shard_step] on a
   fresh single-shard pool: per-event latency, in microseconds. *)
let latency_pass p =
  let service =
    match p.store_dir with
    | Some dir ->
      { p.def.service with Service.cfg_store = Some (open_store dir) }
    | None -> p.def.service
  in
  let pool =
    Service.pool_create service ~kernels:p.def.trace.Trace.tr_kernels
  in
  let lat = Array.make (Trace.length p.def.trace) 0.0 in
  let records =
    List.mapi
      (fun i ev ->
        let t0 = now_ns () in
        let r = Service.shard_step pool ~shard:0 ev in
        lat.(i) <- (now_ns () -. t0) /. 1e3;
        r)
      p.def.trace.Trace.tr_events
  in
  ignore (Service.pool_report pool ~trace_desc:"latency pass" ~records);
  lat

(* --- output checks ----------------------------------------------------- *)

type checks = {
  mutable attempted : int;
  mutable failed : int;
  mutable arrivals : int;
  mutable notes : string list;
}

let check c ok what =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    c.notes <- what :: c.notes
  end

let buffers_equal a b =
  List.for_all2
    (fun (_, x) (_, y) ->
      match x, y with
      | Eval.Array x, Eval.Array y -> Buffer_.equal x y
      | _, _ -> true)
    a b

(* Every distinct (kernel, target, scale) the workload touches, compiled
   with [Compile.compile] under its profile and run with [Exec.run],
   must agree with [Veval] at the target's mode (the [vaporc conform]
   rule) and, unless it reduces over FP lanes, with the scalar IR
   interpreter, the oracle that does not depend on the JIT. *)
let check_outputs c def =
  let targets = Array.of_list def.service.Service.cfg_targets in
  let cases =
    List.sort_uniq compare
      (List.map
         (fun (ev : Trace.event) ->
           Trace.
             ( ev.ev_kernel,
               ev.ev_target mod Array.length targets,
               ev.ev_scale ))
         def.trace.Trace.tr_events)
  in
  let vks = Hashtbl.create 64 in
  List.iter
    (fun (name, ti, scale) ->
      let target = targets.(ti) in
      let entry = Suite.find name in
      let ok =
        try
          let vk =
            match Hashtbl.find_opt vks name with
            | Some vk -> vk
            | None ->
              let vk = (Driver.vectorize (Suite.kernel entry)).Driver.vkernel in
              Hashtbl.replace vks name vk;
              vk
          in
          let compiled =
            Compile.compile ~target ~profile:def.service.Service.cfg_profile vk
          in
          let jit = entry.Suite.args ~scale in
          ignore (Exec.run target compiled ~args:jit);
          let mode =
            if Target.has_simd target then Veval.Vector target.Target.vs
            else Veval.Scalarized
          in
          let vref = entry.Suite.args ~scale in
          ignore (Veval.run vk ~mode ~args:vref);
          buffers_equal jit vref
          && (Bytecode.has_fp_reduction vk
             ||
             let sref = entry.Suite.args ~scale in
             ignore (Eval.run (Suite.kernel entry) ~args:sref);
             buffers_equal jit sref)
        with e ->
          c.notes <- Printexc.to_string e :: c.notes;
          false
      in
      check c ok
        (Printf.sprintf "output mismatch: %s on %s at scale %d" name
           target.Target.name scale))
    cases

(* The drained report every sample must reproduce, byte for byte. *)
let identity_reference p =
  match p.def.kind with
  | Steady_hot | Compile_churn ->
    Service.report_to_string (Service.replay p.def.service p.def.trace)
  | Restart_warm -> Option.get p.cold_report
  | Durable_burst ->
    let cfg =
      {
        (serve_cfg p.def) with
        Serve.sv_max_batch = 1;
        sv_checkpoint_every = 0;
        sv_journal_dir = None;
        sv_crash_at = [];
      }
    in
    Service.report_to_string (Serve.run cfg p.wl).Serve.sr_service

let gauge (rep : Serve.report) name =
  Option.value ~default:0.0
    (Stats_reg.gauge rep.Serve.sr_service.Service.rp_stats name)

(* Every arrival is one attempt and each unanswered one (shed, timed out
   or lost) one failure.  The counters must also add up: [sr_lost] is
   the total minus every accounted outcome, so a reply served twice
   makes it negative and [sr_answered] exceed [sr_total]. *)
let check_conservation c (rep : Serve.report) =
  let total = rep.Serve.sr_total and answered = rep.Serve.sr_answered in
  c.arrivals <- c.arrivals + total;
  c.attempted <- c.attempted + total;
  c.failed <- c.failed + max 0 (total - answered);
  check c
    (rep.Serve.sr_lost = 0 && answered = total)
    (Printf.sprintf "conservation: %d lost, %d of %d answered"
       rep.Serve.sr_lost answered total)

let check_sample c p (rep : Serve.report) =
  check_conservation c rep;
  if p.def.kind = Restart_warm then
    check c
      (gauge rep "jit.real_compiles" = 0.0)
      "restart-warm recompiled a body the store holds"

(* --- the run ----------------------------------------------------------- *)

(* A reported value with the quartiles and count of the repetitions it
   was taken from (samples, passes or set-ups). *)
type value = { v : float; q1 : float; q3 : float; n : int }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  arrivals : int;  (* the base of success_rate = 1 - failed / arrivals *)
  notes : string list;
  e2e : (string * value) list;
  layers : (string * float) list;  (* empty unless traced *)
  ledger : Ledger.t option;
}

let exact v n = { v; q1 = v; q3 = v; n }

let summary v xs =
  let q1, _, q3 = Stats.quartiles xs in
  { v; q1; q3; n = List.length xs }

let vm_hwm_kib status =
  List.find_map
    (fun line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; rest ] -> (
        match String.split_on_char ' ' (String.trim rest) with
        | kb :: _ -> int_of_string_opt kb
        | [] -> None)
      | _ -> None)
    (String.split_on_char '\n' status)

let peak_rss_mib () =
  (* procfs files report no length, so read to end of file *)
  let status =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
  in
  match vm_hwm_kib status with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> failwith "no VmHWM line in /proc/self/status"

(* One timed sample: throughput and the GC work it did. *)
type timed = {
  t_rep : Serve.report;
  t_eps : float;
  t_minor : float;  (* minor-heap words allocated per event *)
  t_promoted : float;  (* words promoted per event *)
  t_majors : float;  (* major collections during the sample *)
}

let timed_sample ~work p =
  let events = float_of_int (Workload.total p.wl) in
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let rep, dt = sample ~work p in
  let g1 = Gc.quick_stat () in
  {
    t_rep = rep;
    t_eps = events /. (dt /. 1e9);
    t_minor = (g1.Gc.minor_words -. g0.Gc.minor_words) /. events;
    t_promoted = (g1.Gc.promoted_words -. g0.Gc.promoted_words) /. events;
    t_majors = float_of_int (g1.Gc.major_collections - g0.Gc.major_collections);
  }

(* The traced serve, folded into the per-layer metrics.  [samples] and
   [pooled] (every latency-pass timing, sorted) come from the untraced
   part of the run. *)
let layer_metrics c ~work ~reference p ~samples ~pooled =
  let tracer = Tracer.create () in
  let rep, wall_ns = sample ~tracer ~work p in
  check c
    (String.equal reference (Service.report_to_string rep.Serve.sr_service))
    "traced report differs from the untraced one";
  let l = Ledger.fold (Tracer.to_jsonl tracer) in
  let share name = Ledger.self_ns l name /. wall_ns in
  let svc = rep.Serve.sr_service in
  let g = gauge rep in
  let targets = Array.of_list p.def.service.Service.cfg_targets in
  let pairs =
    List.sort_uniq compare
      (List.map
         (fun (ev : Trace.event) -> ev.Trace.ev_kernel, ev.Trace.ev_target)
         p.def.trace.Trace.tr_events)
  in
  let code_bytes =
    List.fold_left
      (fun acc (k, ti) ->
        let r =
          Jit_report.profile_kernel ~repeats:1
            ~target:targets.(ti mod Array.length targets)
            ~profile:p.def.service.Service.cfg_profile (Suite.find k)
        in
        acc + r.Jit_report.jr_code_bytes)
      0 pairs
  in
  let round_trip () =
    let t0 = now_ns () in
    List.iter (fun vk -> ignore (Encode.decode (Encode.encode vk))) p.bytecodes;
    (now_ns () -. t0) /. 1e3
  in
  let encoded_bytes =
    List.fold_left
      (fun a vk -> a + String.length (Encode.encode vk))
      0 p.bytecodes
  in
  let med f = Stats.median (List.map f samples) in
  let batches = rep.Serve.sr_batches in
  let per a b = float_of_int a /. float_of_int (max 1 b) in
  let traced_eps = float_of_int (Workload.total p.wl) /. (wall_ns /. 1e9) in
  ( [
      "vectorizer.vectorize_ms", p.vectorize_ns /. 1e6;
      "vectorizer.loops_vectorized", float_of_int p.loops_vectorized;
      "vecir.bytecode_bytes", float_of_int encoded_bytes;
      "vecir.codec_us", Stats.median (List.init 5 (fun _ -> round_trip ()));
      "vecir.slot_compile_share", share "slot_compile";
      "vecir.slot_hit_rate", g "slot.hit_rate";
      "jit.lower_share", share "lower";
      "jit.emit_share", share "emit";
      "jit.regalloc_share", share "regalloc";
      "jit.prepare_share", share "prepare";
      "jit.compiles", float_of_int (Ledger.count l "compile");
      "jit.real_compiles", g "jit.real_compiles";
      "jit.code_bytes", float_of_int code_bytes;
      "machine.simulate_share", share "simulate";
      "machine.layout_share", share "layout";
      ( "machine.simulate_ns_per_run",
        Ledger.self_ns l "simulate"
        /. float_of_int (max 1 (Ledger.count l "simulate")) );
      "runtime.cache_hit_rate", svc.Service.rp_hit_rate;
      "runtime.evictions", float_of_int svc.Service.rp_evictions;
      "runtime.cache_lookup_share", share "cache_lookup";
      "runtime.exec_self_share", share "exec";
      "runtime.event_self_share", share "replay_event";
      "runtime.modeled_compile_us", svc.Service.rp_total_compile_us;
      "runtime.step_us_p999", Stats.percentile Stats.p999 pooled;
      "store.open_share", share "store_open";
      "store.probe_share", share "store_probe";
      "store.publish_share", share "store_publish";
      "store.hit_rate", g "store.hit_rate";
      "serve.residual_ms", (wall_ns -. l.Ledger.root_ns) /. 1e6;
      "serve.batches", float_of_int batches;
      "serve.mean_batch_size", per rep.Serve.sr_batched_events batches;
      "serve.checkpoints", float_of_int rep.Serve.sr_checkpoints;
      "serve.journal_segments", g "serve.journal_segments";
      "serve.restarts", float_of_int rep.Serve.sr_restarts;
      "serve.replayed_events", float_of_int rep.Serve.sr_replayed;
      "serve.peak_queue", float_of_int rep.Serve.sr_peak_queue;
      "gc.minor_words_per_event", med (fun t -> t.t_minor);
      "gc.promoted_words_per_event", med (fun t -> t.t_promoted);
      "gc.major_collections", med (fun t -> t.t_majors);
      "trace.wall_ms", wall_ns /. 1e6;
      "trace.overhead", med (fun t -> t.t_eps) /. traced_eps;
      "trace.attributed_share", l.Ledger.root_ns /. wall_ns;
    ],
    l )

let run ?div ?(setup_reps = 3) ?(min_samples = 5) ~seconds ~traced kind ~seed
    =
  let work = work_create () in
  Fun.protect ~finally:(fun () -> rm_rf work.root) @@ fun () ->
  (* 1. set-up, repeated at least [setup_reps] times and for at least a
     tenth of [seconds] (a short set-up's median needs dozens), keeping
     the last *)
  let rec setups times last =
    let n = List.length times in
    if
      n >= setup_reps
      && (n >= 40 || List.fold_left ( +. ) 0.0 times >= seconds /. 10.0)
    then Option.get last, times
    else begin
      Option.iter (fun q -> Option.iter rm_rf q.store_dir) last;
      let t0 = now_ns () in
      let p = setup_once ?div ~work kind ~seed in
      setups (((now_ns () -. t0) /. 1e9) :: times) (Some p)
    end
  in
  let p, setup_times = setups [] None in
  (* 2. warm-up, then samples; the first three each followed by a
     latency pass *)
  ignore (sample ~work p);
  let c = { attempted = 0; failed = 0; arrivals = 0; notes = [] } in
  let samples = ref [] and passes = ref [] in
  let start = now_ns () in
  while
    List.length !samples < min_samples || now_ns () -. start < seconds *. 1e9
  do
    let t = timed_sample ~work p in
    check_sample c p t.t_rep;
    samples := t :: !samples;
    if List.length !passes < 3 then passes := latency_pass p :: !passes
  done;
  let samples = List.rev !samples and passes = !passes in
  let rss = peak_rss_mib () in
  (* 3. checks outside the timed region *)
  let reference = identity_reference p in
  List.iter
    (fun t ->
      check c
        (String.equal reference
           (Service.report_to_string t.t_rep.Serve.sr_service))
        "report differs from its identity reference")
    samples;
  check_outputs c p.def;
  let svc = (List.hd samples).t_rep.Serve.sr_service in
  (* Each pass serves the same events in the same order, so an event's
     fastest pass is its own cost with neighbour interference (and GC
     pauses, which land on different events in each pass) filtered out;
     the pooled timings keep them for the p999 diagnostic. *)
  let fastest =
    Stats.sorted
      (List.init (Trace.length p.def.trace) (fun i ->
           List.fold_left (fun m a -> Float.min m a.(i)) Float.infinity passes))
  in
  let pooled = Stats.sorted (List.concat_map Array.to_list passes) in
  (* n counts the per-event minima behind the percentile; the quartiles
     are those of the same percentile taken pass by pass. *)
  let latency pct =
    let per_pass =
      List.map
        (fun a -> Stats.percentile pct (Stats.sorted (Array.to_list a)))
        passes
    in
    {
      (summary (Stats.percentile pct fastest) per_pass) with
      n = Array.length fastest;
    }
  in
  let eps = List.map (fun t -> t.t_eps) samples in
  let e2e =
    [
      "events_per_s", summary (List.fold_left Float.max 0.0 eps) eps;
      "event_us_p50", latency Stats.p50;
      "event_us_p99", latency Stats.p99;
      ( "modeled_cycles_per_event",
        exact
          (float_of_int svc.Service.rp_total_cycles
          /. float_of_int (max 1 svc.Service.rp_invocations))
          (List.length samples) );
      "setup_s", summary (Stats.median setup_times) setup_times;
      "peak_rss_mb", exact rss 1;
    ]
  in
  (* 4. the traced serve *)
  let layers, ledger =
    if traced then
      let layers, l =
        layer_metrics c ~work ~reference p ~samples ~pooled
      in
      layers, Some l
    else [], None
  in
  (* 1 - error_rate: the metric is never 0, so a relative bound applies *)
  let success =
    1.0 -. (float_of_int c.failed /. float_of_int (max 1 c.arrivals))
  in
  {
    correct = c.failed = 0;
    attempted = c.attempted;
    failed = c.failed;
    arrivals = c.arrivals;
    notes = List.rev c.notes;
    e2e = e2e @ [ "success_rate", exact success c.arrivals ];
    layers;
    ledger;
  }
