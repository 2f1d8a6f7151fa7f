(* Tests for the observability layer: metrics-registry pooling laws
   (QCheck), the disabled tracer's zero-overhead contract, deterministic
   trace identity across domain counts, export formats, the stage clock,
   and JIT cost report sanity. *)

module Stats = Vapor_runtime.Stats
module Tracer = Vapor_obs.Tracer
module Trace = Vapor_runtime.Trace
module Service = Vapor_runtime.Service
module Tiered = Vapor_runtime.Tiered
module Jit_report = Vapor_harness.Jit_report
module Profile = Vapor_jit.Profile

let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- registry scripts: a generable recipe for building a registry ------- *)

(* A registry is reconstructed from a script of operations drawn from a
   small name pool.  Values are integer-valued floats, so counter sums,
   histogram sums, and additive gauges pool exactly and the JSON export
   is a faithful equality witness. *)
type op =
  | Incr of string * int
  | Observe of string * int
  | Add_gauge of string * int

let apply st = function
  | Incr (n, by) -> Stats.incr ~by st n
  | Observe (n, v) -> Stats.observe st n (float_of_int v)
  | Add_gauge (n, v) -> Stats.add_gauge st n (float_of_int v)

let build ops =
  let st = Stats.create () in
  List.iter (apply st) ops;
  st

let op_gen =
  let open QCheck.Gen in
  let name pool = map (List.nth pool) (int_bound (List.length pool - 1)) in
  oneof
    [
      map2 (fun n by -> Incr (n, by)) (name [ "c0"; "c1"; "c2" ]) (int_bound 50);
      map2
        (fun n v -> Observe (n, v))
        (name [ "h0"; "h1" ])
        (int_range (-100) 100);
      map2
        (fun n v -> Add_gauge (n, v))
        (name [ "g0"; "g1" ])
        (int_range (-20) 20);
    ]

let script_arb =
  QCheck.make
    ~print:(fun ops -> string_of_int (List.length ops) ^ " ops")
    QCheck.Gen.(list_size (int_bound 30) op_gen)

(* Pool [srcs] left-to-right into a fresh registry. *)
let pool srcs =
  let dst = Stats.create () in
  List.iter (fun src -> Stats.merge_into ~dst src) srcs;
  dst

let json_equal a b = String.equal (Stats.to_json a) (Stats.to_json b)

let prop_merge_associative =
  QCheck.Test.make ~count:200 ~name:"merge_into associative"
    QCheck.(triple script_arb script_arb script_arb)
    (fun (sa, sb, sc) ->
      (* (A + B) + C = A + (B + C), rebuilding fresh registries so the
         destructive merge can't alias. *)
      let left = pool [ pool [ build sa; build sb ]; build sc ] in
      let right = pool [ build sa; pool [ build sb; build sc ] ] in
      json_equal left right)

let prop_merge_commutative =
  QCheck.Test.make ~count:200 ~name:"merge_into commutative"
    QCheck.(pair script_arb script_arb)
    (fun (sa, sb) ->
      json_equal (pool [ build sa; build sb ]) (pool [ build sb; build sa ]))

let prop_merge_identity =
  QCheck.Test.make ~count:200 ~name:"merge_into identity on empty"
    script_arb
    (fun s ->
      (* empty + A = A + empty = A *)
      let a = build s in
      json_equal (pool [ Stats.create (); build s ]) a
      && json_equal (pool [ build s; Stats.create () ]) a)

(* --- replay fixtures ---------------------------------------------------- *)

let replay_trace () = Trace.standard ~length:120 ~n_targets:1 ()
let replay_cfg () = Service.default_config ~targets:[ Vapor_targets.Sse.target ]

(* --- disabled tracer: zero-overhead contract ---------------------------- *)

let disabled_tracer_inert_case () =
  check_bool "disabled is off" false (Tracer.on Tracer.disabled);
  check_bool "sub disabled is off" false (Tracer.on (Tracer.sub Tracer.disabled));
  (* Operations on the disabled tracer must be absorbed without effect. *)
  Tracer.root_begin Tracer.disabled ~ev:0 ~name:"replay_event" [];
  Tracer.span_begin Tracer.disabled ~name:"exec" [];
  Tracer.span_end Tracer.disabled ~name:"exec" ();
  Tracer.root_end Tracer.disabled ~name:"replay_event" ();
  check_string "disabled exports nothing" "" (Tracer.to_jsonl Tracer.disabled)

let disabled_tracer_report_identity_case () =
  (* A replay run with no tracer argument, with the disabled tracer, and
     with a live tracer must all print byte-identical reports: tracing is
     observable only through its own export channel. *)
  let trace = replay_trace () in
  let cfg = replay_cfg () in
  let plain = Service.report_to_string (Service.replay cfg trace) in
  let with_disabled =
    Service.report_to_string (Service.replay ~tracer:Tracer.disabled cfg trace)
  in
  let live = Tracer.create () in
  let with_live =
    Service.report_to_string (Service.replay ~tracer:live cfg trace)
  in
  check_string "disabled tracer report identical" plain with_disabled;
  check_string "live tracer report identical" plain with_live;
  check_bool "live tracer actually captured spans" true
    (String.length (Tracer.to_jsonl live) > 0)

(* --- deterministic traces across domain counts -------------------------- *)

let deterministic_trace_domains_case () =
  let trace = replay_trace () in
  let cfg = replay_cfg () in
  let run domains =
    let tracer = Tracer.create ~wall:false () in
    ignore (Service.replay ~tracer ~domains cfg trace);
    Tracer.to_jsonl tracer
  in
  let base = run 1 in
  check_bool "trace is non-empty" true (String.length base > 0);
  List.iter
    (fun d ->
      check_string
        (Printf.sprintf "domains=%d trace byte-identical" d)
        base (run d))
    [ 2; 4 ]

let wall_mode_has_timestamps_case () =
  let trace = replay_trace () in
  let tracer = Tracer.create ~wall:true () in
  ignore (Service.replay ~tracer (replay_cfg ()) trace);
  let jsonl = Tracer.to_jsonl tracer in
  let has sub s =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  check_bool "wall mode carries wall_ns" true (has "\"wall_ns\":" jsonl);
  (* Deterministic mode must omit them entirely. *)
  let det = Tracer.create ~wall:false () in
  ignore (Service.replay ~tracer:det (replay_cfg ()) trace);
  check_bool "deterministic mode omits wall_ns" false
    (has "\"wall_ns\":" (Tracer.to_jsonl det))

(* --- exports ------------------------------------------------------------ *)

let contains sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let export_formats_case () =
  let st = Stats.create () in
  let trace = replay_trace () in
  ignore (Service.replay ~stats:st (replay_cfg ()) trace);
  let prom = Stats.to_prometheus st in
  let json = Stats.to_json st in
  let table = Stats.to_table st in
  (* Prometheus: counters, gauges, and summaries all present, names
     sanitized to [a-z_]. *)
  check_bool "prom has a counter" true
    (contains "# TYPE vapor_cache_hits counter" prom);
  check_bool "prom has the cache.bytes gauge" true
    (contains "# TYPE vapor_cache_bytes gauge" prom);
  check_bool "prom has the real-compile gauge" true
    (contains "vapor_jit_real_compiles " prom);
  (* JSON: the three sections. *)
  check_bool "json has counters" true (contains "\"counters\":" json);
  check_bool "json has gauges" true (contains "\"gauges\":" json);
  check_bool "json has histograms" true (contains "\"histograms\":" json);
  (* Byte-identity contract: gauges never appear in the text table. *)
  check_bool "table excludes gauges" false (contains "cache.bytes" table)

let report_json_trace_case () =
  (* The report's trace description is escaped exactly once. *)
  let pool = Service.pool_create (replay_cfg ()) ~kernels:[ "saxpy_fp" ] in
  let rp =
    Service.pool_report pool ~trace_desc:"a \"q\" \\ b" ~records:[]
  in
  let line =
    List.find
      (fun l -> contains "\"trace\":" l)
      (String.split_on_char '\n' (Service.report_to_json rp))
  in
  check_string "trace field" {|  "trace": "a \"q\" \\ b",|} line

let gauge_pooling_case () =
  (* Sharded replay must pool count-like gauges additively; the merged
     gauge set must match a single-domain run of the same trace. *)
  let trace = replay_trace () in
  let cfg = replay_cfg () in
  let run domains =
    let st = Stats.create () in
    ignore (Service.replay ~stats:st ~domains cfg trace);
    st
  in
  let d1 = run 1 and d4 = run 4 in
  List.iter
    (fun g ->
      let v st = Option.value ~default:nan (Stats.gauge st g) in
      Alcotest.(check (float 1e-9)) (g ^ " pools across domains") (v d1) (v d4))
    [ "cache.bytes"; "cache.entries"; "jit.real_compiles";
      "tier.quarantined_kernels" ]

(* --- the stage and span clock ------------------------------------------ *)

let clock_resolution_case () =
  (* Over 10^5 consecutive reads the clock never steps backwards and
     resolves steps below 256 ns — finer than a float of epoch
     nanoseconds can (adjacent doubles near 1.8e18 are 256 ns apart). *)
  let prev = ref (Vapor_obs.Clock.now_ns ()) in
  let backwards = ref 0 and min_step = ref infinity in
  for _ = 1 to 100_000 do
    let t = Vapor_obs.Clock.now_ns () in
    let d = t -. !prev in
    if d < 0.0 then incr backwards
    else if d > 0.0 && d < !min_step then min_step := d;
    prev := t
  done;
  check_int "no negative step" 0 !backwards;
  check_bool
    (Printf.sprintf "smallest positive step %.0f ns is below 256 ns" !min_step)
    true (!min_step < 256.0)

(* --- jit-report sanity -------------------------------------------------- *)

let jit_report_rows_case () =
  let rows =
    Jit_report.run ~repeats:1 ~kernels:[ "saxpy_fp"; "convolve_s32" ]
      ~targets:[ Vapor_targets.Sse.target; Vapor_targets.Scalar_target.target ]
      ~profile:Profile.gcc4cli ()
  in
  check_int "one row per (kernel, target)" 4 (List.length rows);
  List.iter
    (fun (r : Jit_report.row) ->
      let ctx = r.Jit_report.jr_kernel ^ "@" ^ r.Jit_report.jr_target in
      check_bool (ctx ^ ": vf >= 1") true (r.Jit_report.jr_vf >= 1);
      check_bool (ctx ^ ": code bytes > 0") true (r.Jit_report.jr_code_bytes > 0);
      check_bool (ctx ^ ": exec cycles > 0") true (r.Jit_report.jr_exec_cycles > 0);
      check_bool
        (ctx ^ ": compile share in [0,1]")
        true
        (r.Jit_report.jr_compile_share >= 0.0
        && r.Jit_report.jr_compile_share <= 1.0);
      check_bool (ctx ^ ": guards non-negative") true
        (r.Jit_report.jr_guards_static >= 0
        && r.Jit_report.jr_guards_dynamic >= 0))
    rows;
  (* SIMD target vectorizes saxpy at the element width; the scalar
     target must report vf 1. *)
  let vf target =
    let r =
      List.find
        (fun (r : Jit_report.row) ->
          r.Jit_report.jr_kernel = "saxpy_fp" && r.Jit_report.jr_target = target)
        rows
    in
    r.Jit_report.jr_vf
  in
  check_int "saxpy_fp vf on sse" 4 (vf "sse");
  check_int "saxpy_fp vf on scalar" 1 (vf "scalar")

(* --- suites ------------------------------------------------------------- *)

let qsuite name tests = name, List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "obs"
    [
      qsuite "stats-pooling"
        [ prop_merge_associative; prop_merge_commutative; prop_merge_identity ];
      ( "tracer",
        [
          Alcotest.test_case "disabled tracer is inert" `Quick
            disabled_tracer_inert_case;
          Alcotest.test_case "tracing never perturbs reports" `Quick
            disabled_tracer_report_identity_case;
          Alcotest.test_case "deterministic trace is domain-count invariant"
            `Quick deterministic_trace_domains_case;
          Alcotest.test_case "wall mode carries timestamps" `Quick
            wall_mode_has_timestamps_case;
        ] );
      ( "exports",
        [
          Alcotest.test_case "prometheus/json/table formats" `Quick
            export_formats_case;
          Alcotest.test_case "gauges pool across domains" `Quick
            gauge_pooling_case;
          Alcotest.test_case "report JSON escapes the trace once" `Quick
            report_json_trace_case;
        ] );
      ( "clock",
        [
          Alcotest.test_case "monotonic, sub-256 ns steps" `Quick
            clock_resolution_case;
        ] );
      ( "jit-report",
        [ Alcotest.test_case "row sanity" `Quick jit_report_rows_case ] );
    ]
