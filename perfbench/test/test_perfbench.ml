(* The benchmark's own machinery: order statistics, the span ledger,
   procfs parsing, compare verdicts, the metric table against
   BENCHMARK.json, and a shrunken run of every workload. *)

open Perfbench

let feq = Alcotest.(check (float 1e-9))

(* --- statistics -------------------------------------------------------- *)

(* Expected values are Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q xs = Stats.quartiles xs in
  let check name xs (a, b, c) =
    let x, y, z = q xs in
    feq (name ^ " q1") a x;
    feq (name ^ " q2") b y;
    feq (name ^ " q3") c z
  in
  let one_to_ten = List.init 10 (fun i -> float_of_int (i + 1)) in
  check "1..10" one_to_ten (2.75, 5.5, 8.25);
  check "three" [ 3.0; 1.0; 2.0 ] (1.0, 2.0, 3.0);
  check "two" [ 5.0; 1.0 ] (0.0, 3.0, 6.0);
  check "powers" [ 1.; 2.; 4.; 8.; 16.; 32.; 64. ] (2.0, 8.0, 32.0);
  check "one" [ 7.0 ] (7.0, 7.0, 7.0);
  feq "median even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  feq "spread" ((8.25 -. 2.75) /. 5.5) (Stats.spread one_to_ten)

let test_percentiles () =
  let a = Stats.sorted (List.init 100 (fun i -> float_of_int (i + 1))) in
  feq "p50 nearest rank" 50.0 (Stats.percentile Stats.p50 a);
  feq "p99 nearest rank" 99.0 (Stats.percentile Stats.p99 a);
  feq "p999 of 100" 100.0 (Stats.percentile Stats.p999 a);
  let check_int = Alcotest.(check int) in
  let check_bool = Alcotest.(check bool) in
  check_int "rank p99 of 1000" 990 (Stats.rank Stats.p99 1000);
  check_int "beyond p99 of 1000" 10 (Stats.beyond Stats.p99 1000);
  check_bool "p99 reportable at 1000" true (Stats.reportable Stats.p99 1000);
  check_bool "p99 not reportable at 999" false (Stats.reportable Stats.p99 999);
  check_bool "p999 reportable at 10000" true
    (Stats.reportable Stats.p999 10_000);
  check_bool "p999 not reportable at 9999" false
    (Stats.reportable Stats.p999 9_999);
  (* the smallest workload's latency percentiles: 5,000 per-event minima *)
  check_int "beyond p99 of 5000" 50 (Stats.beyond Stats.p99 5_000)

(* --- span ledger ------------------------------------------------------- *)

let line ev ph depth name wall =
  Printf.sprintf
    "{\"ev\":%d,\"ord\":0,\"ph\":\"%s\",\"depth\":%d,\"name\":\"%s\",\
     \"attrs\":{\"k\":\"v\"},\"wall_ns\":%.1f}"
    ev ph depth name wall

(* Root A (0..100) holds span B (10..60) holding leaf C (20..30), and a
   sibling leaf D (70..75); a second root is a zero-length marker. *)
let test_ledger () =
  let jsonl =
    String.concat "\n"
      [
        line 0 "B" 0 "A" 0.0; line 0 "B" 1 "B" 10.0; line 0 "B" 2 "C" 20.0;
        line 0 "E" 2 "C" 30.0; line 0 "E" 1 "B" 60.0; line 0 "B" 1 "D" 70.0;
        line 0 "E" 1 "D" 75.0; line 0 "E" 0 "A" 100.0; line 1 "B" 0 "M" 200.0;
        line 1 "E" 0 "M" 200.0; "";
      ]
  in
  let l = Ledger.fold jsonl in
  feq "A self" 45.0 (Ledger.self_ns l "A");
  feq "B self" 40.0 (Ledger.self_ns l "B");
  feq "C self" 10.0 (Ledger.self_ns l "C");
  feq "D self" 5.0 (Ledger.self_ns l "D");
  feq "marker" 0.0 (Ledger.self_ns l "M");
  feq "absent" 0.0 (Ledger.self_ns l "nope");
  feq "root coverage" 100.0 l.Ledger.root_ns;
  Alcotest.(check int) "count" 1 (Ledger.count l "C");
  Alcotest.check_raises "unbalanced"
    (Json.Error "unbalanced trace: spans left open") (fun () ->
      ignore (Ledger.fold (line 0 "B" 0 "A" 0.0)))

(* --- procfs ------------------------------------------------------------ *)

let test_vm_hwm () =
  let status =
    "Name:\tmain.exe\nVmPeak:\t  200000 kB\nVmHWM:\t   35188 kB\n\
     VmRSS:\t   30000 kB\n"
  in
  let check = Alcotest.(check (option int)) in
  check "VmHWM" (Some 35188) (Runner.vm_hwm_kib status);
  check "absent" None (Runner.vm_hwm_kib "VmRSS: 1 kB\n")

(* --- conservation ------------------------------------------------------ *)

(* A served report, then the same report with its counters broken by
   hand: an over-answered run must fail once and must not cancel other
   failures. *)
let test_conservation () =
  let module S = Runner.Serve in
  let def = Runner.define ~div:20 Runner.Steady_hot ~seed:1 in
  let rep =
    S.run (Runner.serve_cfg def)
      (Runner.Workload.of_trace ~streams:def.Runner.streams def.Runner.trace)
  in
  let failed rep =
    let c : Runner.checks =
      { attempted = 0; failed = 0; arrivals = 0; notes = [] }
    in
    Runner.check_conservation c rep;
    c.Runner.failed
  in
  let n = rep.S.sr_total in
  let check = Alcotest.(check int) in
  check "served" 0 (failed rep);
  check "over-answered" 1
    (failed { rep with S.sr_answered = n + 1; sr_lost = -1 });
  check "lost" 1 (failed { rep with S.sr_lost = 1 });
  check "three unanswered" 4
    (failed { rep with S.sr_answered = n - 3; sr_lost = 3 })

(* --- the fleet agrees with bench/main.ml ------------------------------- *)

(* The list literal that follows [marker] in a source file, one element
   per entry, whitespace collapsed. *)
let list_after marker path =
  let text = In_channel.with_open_text path In_channel.input_all in
  let rec find i =
    if i + String.length marker > String.length text then
      Alcotest.failf "%s: no %S" path marker
    else if String.sub text i (String.length marker) = marker then i
    else find (i + 1)
  in
  let at = find 0 in
  let a = String.index_from text at '[' and b = String.index_from text at ']' in
  String.sub text (a + 1) (b - a - 1)
  |> String.split_on_char ';'
  |> List.map (fun e ->
         String.concat " "
           (List.filter (( <> ) "")
              (String.split_on_char ' '
                 (String.map (function '\n' | '\t' -> ' ' | c -> c) e))))
  |> List.filter (( <> ) "")

let test_fleet () =
  let bench = list_after "let fleet_population () =" "../../bench/main.ml" in
  Alcotest.(check int) "seven targets" 7 (List.length bench);
  Alcotest.(check (list string))
    "fleet_population" bench
    (list_after "let fleet () =" "../lib/runner.ml");
  Alcotest.(check int) "runner fleet" 7 (List.length (Runner.fleet ()))

(* --- compare verdicts -------------------------------------------------- *)

let test_verdicts () =
  let metric name =
    List.find (fun (m : Spec.metric) -> m.Spec.name = name) Spec.end_to_end
  in
  let eps = metric "events_per_s" and p99 = metric "event_us_p99" in
  let steady = List.init 10 (fun i -> 1000.0 +. float_of_int i) in
  let verdict m parent change =
    (Verdict.judge m ~parent ~change).Verdict.verdict
  in
  let check name expect got =
    Alcotest.(check string)
      name (Verdict.to_string expect) (Verdict.to_string got)
  in
  check "throughput drop beyond the bound" Verdict.Regression
    (verdict eps steady (List.map (fun x -> x *. 0.7) steady));
  check "latency rise beyond the bound" Verdict.Regression
    (verdict p99 steady (List.map (fun x -> x *. 1.3) steady));
  check "within the bound" Verdict.Unchanged
    (verdict eps steady (List.map (fun x -> x *. 0.99) steady));
  check "clear gain" Verdict.Gain
    (verdict eps steady (List.map (fun x -> x *. 1.1) steady));
  check "too few pairs won" Verdict.Unchanged
    (verdict eps steady
       (List.mapi (fun i x -> if i < 2 then x *. 0.99 else x *. 1.1) steady));
  let noisy =
    List.init 10 (fun i -> 1000.0 *. (0.5 +. (0.1 *. float_of_int i)))
  in
  check "parent spread wider than the bound" Verdict.Unresolved
    (verdict eps noisy (List.map (fun x -> x *. 1.02) noisy));
  let r =
    Verdict.judge eps ~parent:steady
      ~change:(List.map (fun x -> x +. 1.0) steady)
  in
  Alcotest.(check int) "pairs won" 10 r.Verdict.wins

(* --- BENCHMARK.json agrees with the metric table ----------------------- *)

let test_benchmark_json () =
  let j =
    Json.parse
      (In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all)
  in
  let arr k = match Json.get k j with Json.Arr l -> l | _ -> Alcotest.fail k in
  let names k = List.map (fun m -> Json.str (Json.get "name" m)) (arr k) in
  Alcotest.(check (list string)) "workloads" (List.map fst Spec.workloads)
    (names "workloads");
  let field k e = Json.str (Json.get k e) in
  List.iter2
    (fun (_, why) w -> Alcotest.(check string) "why" why (field "why" w))
    Spec.workloads (arr "workloads");
  let same key (ms : Spec.metric list) =
    Alcotest.(check (list string))
      key
      (List.map (fun (m : Spec.metric) -> m.Spec.name) ms)
      (names key);
    List.iter2
      (fun (m : Spec.metric) e ->
        let name = m.Spec.name in
        Alcotest.(check string) name m.Spec.unit (field "unit" e);
        Alcotest.(check string)
          name
          (match m.Spec.better with Spec.Higher -> "higher" | Lower -> "lower")
          (field "better" e);
        Option.iter
          (fun b -> feq name b (Json.num (Json.get "bound" e)))
          m.Spec.bound)
      ms (arr key)
  in
  same "end_to_end" Spec.end_to_end;
  same "per_layer" Spec.per_layer

(* --- smoke: every workload at 1/20 size -------------------------------- *)

(* Metrics that depend only on the seed, never on the clock. *)
let deterministic =
  [
    "vectorizer.loops_vectorized"; "vecir.bytecode_bytes";
    "vecir.slot_hit_rate"; "jit.compiles"; "jit.real_compiles";
    "jit.code_bytes"; "runtime.cache_hit_rate"; "runtime.evictions";
    "runtime.modeled_compile_us"; "store.hit_rate";
    "serve.batches"; "serve.mean_batch_size"; "serve.checkpoints";
    "serve.journal_segments"; "serve.restarts"; "serve.replayed_events";
    "serve.peak_queue";
  ]

let smoke (name, kind) () =
  let run () =
    Runner.run ~div:20 ~setup_reps:1 ~min_samples:1 ~seconds:0.0 ~traced:true
      kind ~seed:1
  in
  let a = run () and b = run () in
  Alcotest.(check (list string)) (name ^ " checks") [] a.Runner.notes;
  Alcotest.(check bool)
    (name ^ " correct") true
    (a.Runner.correct && b.Runner.correct);
  let cycles r =
    (List.assoc "modeled_cycles_per_event" r.Runner.e2e).Runner.v
  in
  feq (name ^ " modeled cycles") (cycles a) (cycles b);
  List.iter
    (fun m ->
      feq (name ^ " " ^ m)
        (List.assoc m a.Runner.layers)
        (List.assoc m b.Runner.layers))
    deterministic;
  List.iter
    (fun (m : Spec.metric) ->
      Alcotest.(check bool) (m.Spec.name ^ " reported") true
        (List.mem_assoc m.Spec.name a.Runner.layers))
    Spec.per_layer;
  let order seed =
    List.map
      (fun (e : Runner.Trace.event) ->
        Runner.Trace.(e.ev_kernel, e.ev_target, e.ev_scale))
      (Runner.define ~div:20 kind ~seed).Runner.trace.Runner.Trace.tr_events
  in
  Alcotest.(check bool) (name ^ " another seed, another order") false
    (order 1 = order 2);
  Alcotest.(check bool) (name ^ " every seed, the same events") true
    (List.sort compare (order 1) = List.sort compare (order 2))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
        ] );
      "ledger", [ Alcotest.test_case "self time" `Quick test_ledger ];
      "procfs", [ Alcotest.test_case "VmHWM" `Quick test_vm_hwm ];
      ( "checks",
        [
          Alcotest.test_case "conservation" `Quick test_conservation;
          Alcotest.test_case "fleet = bench fleet_population" `Quick test_fleet;
        ] );
      "compare", [ Alcotest.test_case "verdicts" `Quick test_verdicts ];
      ( "spec",
        [ Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json ] );
      ( "smoke",
        List.map
          (fun (name, _) ->
            let kind = Option.get (Runner.kind_of_name name) in
            Alcotest.test_case name `Quick (smoke (name, kind)))
          Spec.workloads );
    ]
