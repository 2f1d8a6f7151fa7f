(* Tests for the runtime subsystem: content digests, the LRU code cache,
   tiered execution, trace generation, and replay-service invariants. *)

open Vapor_ir
module Suite = Vapor_kernels.Suite
module Driver = Vapor_vectorizer.Driver
module Flows = Vapor_harness.Flows
module Profile = Vapor_jit.Profile
module Compile = Vapor_jit.Compile
module Encode = Vapor_vecir.Encode
module D = Vapor_runtime.Digest
module Stats = Vapor_runtime.Stats
module Cache = Vapor_runtime.Code_cache
module Tiered = Vapor_runtime.Tiered
module Trace = Vapor_runtime.Trace
module Service = Vapor_runtime.Service

let sse = Vapor_targets.Sse.target
let avx = Vapor_targets.Avx.target
let fail = Alcotest.fail
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let bytecode name =
  (Flows.vectorized_bytecode (Suite.find name)).Driver.vkernel

(* --- digest stability --------------------------------------------------- *)

let digest_stable_case () =
  let vk = bytecode "saxpy_fp" in
  check_bool "same kernel digests equal" true
    (D.equal (D.of_vkernel vk) (D.of_vkernel vk))

let digest_roundtrip_case () =
  (* The digest must survive an encode -> decode -> encode round trip:
     compiled code cached for a .vbc file is found again after reloading. *)
  List.iter
    (fun name ->
      let vk = bytecode name in
      let vk' = Encode.decode (Encode.encode vk) in
      if not (D.equal (D.of_vkernel vk) (D.of_vkernel vk')) then
        fail (name ^ ": digest changed across encode/decode round trip"))
    [ "saxpy_fp"; "interp_s16"; "mmm_fp"; "dissolve_s8" ]

let digest_distinct_case () =
  (* Any two distinct suite kernels must have distinct digests. *)
  let digests =
    List.map
      (fun e -> e.Suite.name, D.of_vkernel (bytecode e.Suite.name))
      Suite.all
  in
  List.iteri
    (fun i (n1, d1) ->
      List.iteri
        (fun j (n2, d2) ->
          if i < j && D.equal d1 d2 then
            fail (Printf.sprintf "%s and %s share a digest" n1 n2))
        digests)
    digests

let digest_key_case () =
  let vk = bytecode "saxpy_fp" in
  let k1 = D.key ~target:sse ~profile:Profile.mono vk in
  let k2 = D.key ~target:sse ~profile:Profile.mono vk in
  let k3 = D.key ~target:avx ~profile:Profile.mono vk in
  check_bool "same key equal" true (D.key_equal k1 k2);
  check_int "same key same hash" (D.key_hash k1) (D.key_hash k2);
  check_bool "different target different key" false (D.key_equal k1 k3)

(* --- stats -------------------------------------------------------------- *)

let stats_case () =
  let st = Stats.create () in
  Stats.incr st "a";
  Stats.incr ~by:4 st "a";
  check_int "counter accumulates" 5 (Stats.counter st "a");
  check_int "unknown counter is 0" 0 (Stats.counter st "b");
  Stats.observe st "h" 2.0;
  Stats.observe st "h" 6.0;
  (match Stats.summary st "h" with
  | None -> fail "histogram missing"
  | Some s ->
    check_int "histogram count" 2 s.Stats.s_count;
    Alcotest.(check (float 1e-9)) "histogram mean" 4.0 s.Stats.s_mean);
  Stats.reset st;
  check_int "reset clears" 0 (Stats.counter st "a")

(* --- code cache --------------------------------------------------------- *)

let cache_hit_miss_case () =
  let cache = Cache.create () in
  let vk = bytecode "saxpy_fp" in
  let c1, o1 = Cache.find_or_compile cache ~target:sse ~profile:Profile.mono vk in
  let c2, o2 = Cache.find_or_compile cache ~target:sse ~profile:Profile.mono vk in
  check_bool "first is a miss" true (o1 = Cache.Miss);
  check_bool "second is a hit" true (o2 = Cache.Hit);
  check_bool "hit returns the same compiled body" true (c1 == c2);
  let _, o3 = Cache.find_or_compile cache ~target:avx ~profile:Profile.mono vk in
  check_bool "other target misses" true (o3 = Cache.Miss);
  check_int "hits" 1 (Cache.hits cache);
  check_int "misses" 2 (Cache.misses cache);
  check_int "fills" 2 (Cache.fills cache);
  check_int "entries" 2 (Cache.entry_count cache)

let cache_lru_eviction_case () =
  let cache = Cache.create ~max_entries:2 () in
  let compile name =
    ignore
      (Cache.find_or_compile cache ~target:sse ~profile:Profile.mono
         (bytecode name))
  in
  compile "saxpy_fp";
  compile "dscal_fp";
  (* refresh saxpy so dscal is the LRU victim *)
  compile "saxpy_fp";
  compile "sfir_fp";
  check_int "one eviction" 1 (Cache.evictions cache);
  check_int "entry budget held" 2 (Cache.entry_count cache);
  let _, again = Cache.find_or_compile cache ~target:sse ~profile:Profile.mono
      (bytecode "saxpy_fp")
  in
  check_bool "recently-used entry survived" true (again = Cache.Hit);
  let _, evicted = Cache.find_or_compile cache ~target:sse ~profile:Profile.mono
      (bytecode "dscal_fp")
  in
  check_bool "LRU entry was evicted" true (evicted = Cache.Miss)

let cache_byte_budget_case () =
  let vk = bytecode "saxpy_fp" in
  let probe = Cache.create () in
  let _ = Cache.find_or_compile probe ~target:sse ~profile:Profile.mono vk in
  let one_entry = Cache.byte_count probe in
  (* A budget of ~1.5 entries keeps exactly one body resident. *)
  let cache = Cache.create ~max_bytes:(one_entry * 3 / 2) () in
  let compile name =
    ignore
      (Cache.find_or_compile cache ~target:sse ~profile:Profile.mono
         (bytecode name))
  in
  compile "saxpy_fp";
  compile "dscal_fp";
  compile "sfir_fp";
  check_bool "byte budget enforced" true
    (Cache.byte_count cache <= one_entry * 3 / 2);
  check_bool "evictions happened" true (Cache.evictions cache >= 1)

let cache_rejuvenation_case () =
  let cache = Cache.create () in
  List.iter
    (fun name ->
      ignore
        (Cache.find_or_compile cache ~target:sse ~profile:Profile.mono
           (bytecode name)))
    [ "saxpy_fp"; "dscal_fp" ];
  let relowered = Cache.invalidate_target cache ~from_target:sse ~to_target:avx in
  check_int "both entries re-lowered" 2 relowered;
  check_int "entry count preserved" 2 (Cache.entry_count cache);
  check_int "rejuvenations counted" 2 (Cache.rejuvenations cache);
  (* the rejuvenated body is found under the new target without a compile *)
  let _, o = Cache.find_or_compile cache ~target:avx ~profile:Profile.mono
      (bytecode "saxpy_fp")
  in
  check_bool "avx lookup hits rejuvenated code" true (o = Cache.Hit);
  let _, o = Cache.find_or_compile cache ~target:sse ~profile:Profile.mono
      (bytecode "saxpy_fp")
  in
  check_bool "old target no longer cached" true (o = Cache.Miss)

let cache_evict_hook_case () =
  let seen = ref [] in
  let cache = Cache.create ~max_entries:2 () in
  Cache.set_on_evict cache (fun reason key -> seen := (reason, key) :: !seen);
  let key_of name = D.key ~target:sse ~profile:Profile.mono (bytecode name) in
  let saw reason name =
    List.exists
      (fun (r, k) -> r = reason && D.key_equal k (key_of name))
      !seen
  in
  let compile name =
    ignore
      (Cache.find_or_compile cache ~target:sse ~profile:Profile.mono
         (bytecode name))
  in
  compile "saxpy_fp";
  compile "dscal_fp";
  compile "sfir_fp";
  check_bool "budget eviction fires the hook" true (saw Cache.Lru "saxpy_fp");
  (* Replacing an entry under its own key reports Replaced, not Lru. *)
  let vk = bytecode "sfir_fp" in
  let key = key_of "sfir_fp" in
  (match Cache.find cache key with
  | Some c ->
    Cache.insert cache key vk ~vk_bytes:(Vapor_vecir.Encode.size vk)
      Profile.mono c
  | None -> fail "sfir_fp should be resident");
  check_bool "replacement fires the hook" true (saw Cache.Replaced "sfir_fp");
  (* invalidate_target no longer drops entries silently: each stale body
     fires the hook and bumps cache.invalidations, even though it is
     re-lowered rather than discarded. *)
  let before = List.length !seen in
  let relowered = Cache.invalidate_target cache ~from_target:sse ~to_target:avx in
  check_int "both stale entries invalidated" 2
    (List.length !seen - before);
  check_int "relowered under the new target" 2 relowered;
  check_int "invalidations counted" 2 (Cache.invalidations cache);
  check_bool "hook saw the invalidation" true
    (List.exists (fun (r, _) -> r = Cache.Invalidated) !seen)

(* --- tiered execution --------------------------------------------------- *)

let copy_args args =
  List.map
    (fun (n, a) ->
      match a with
      | Eval.Scalar v -> n, Eval.Scalar v
      | Eval.Array b -> n, Eval.Array (Buffer_.copy b))
    args

let compare_arrays ~eps name ref_args got_args =
  List.iter2
    (fun (n1, b1) (_, b2) ->
      if not (Buffer_.close ~eps b1 b2) then
        fail (Printf.sprintf "%s: array %s differs" name n1))
    (Suite.arrays_of_args ref_args)
    (Suite.arrays_of_args got_args)

let tiered_promotion_case () =
  let entry = Suite.find "saxpy_fp" in
  let vk = bytecode "saxpy_fp" in
  let cache = Cache.create () in
  let tiered = Tiered.create ~cache ~hotness_threshold:2 () in
  let invoke () =
    Tiered.invoke tiered ~target:sse ~profile:Profile.mono vk
      ~args:(entry.Suite.args ~scale:1)
  in
  let r1 = invoke () and r2 = invoke () in
  check_bool "run 1 interpreted" true (r1.Tiered.r_tier = Tiered.Interpreter);
  check_bool "run 2 interpreted" true (r2.Tiered.r_tier = Tiered.Interpreter);
  check_bool "no compile charged while cold" true
    (r1.Tiered.r_compile_us = 0.0 && r2.Tiered.r_compile_us = 0.0);
  let r3 = invoke () in
  check_bool "run 3 promoted to jit" true (r3.Tiered.r_tier = Tiered.Jit);
  check_bool "promotion pays the compile" true (r3.Tiered.r_compile_us > 0.0);
  check_bool "promotion was a cache miss" true
    (r3.Tiered.r_cache = Some Cache.Miss);
  let r4 = invoke () in
  check_bool "run 4 hits the cache" true (r4.Tiered.r_cache = Some Cache.Hit);
  check_bool "hit charges no compile" true (r4.Tiered.r_compile_us = 0.0);
  match Tiered.states tiered with
  | [ s ] ->
    check_int "invocations" 4 s.Tiered.ks_invocations;
    check_int "interp runs" 2 s.Tiered.ks_interp_runs;
    check_int "jit runs" 2 s.Tiered.ks_jit_runs;
    (match s.Tiered.ks_transitions with
    | [ tr ] ->
      check_bool "transition to jit" true (tr.Tiered.to_tier = Tiered.Jit);
      check_int "transition at invocation 3" 3 tr.Tiered.at_invocation
    | l -> fail (Printf.sprintf "%d transitions recorded" (List.length l)))
  | l -> fail (Printf.sprintf "%d kernel states" (List.length l))

let tiered_differential_case () =
  (* Both tiers must compute what the scalar reference computes. *)
  List.iter
    (fun name ->
      let entry = Suite.find name in
      let vk = bytecode name in
      let ref_args = entry.Suite.args ~scale:1 in
      ignore (Eval.run (Suite.kernel entry) ~args:ref_args);
      List.iter
        (fun threshold ->
          let cache = Cache.create () in
          let tiered =
            Tiered.create ~cache ~hotness_threshold:threshold ()
          in
          let got_args = copy_args (entry.Suite.args ~scale:1) in
          let r =
            Tiered.invoke tiered ~target:sse ~profile:Profile.mono vk
              ~args:got_args
          in
          let expect =
            if threshold = 0 then Tiered.Jit else Tiered.Interpreter
          in
          check_bool (name ^ " tier") true (r.Tiered.r_tier = expect);
          compare_arrays ~eps:1e-3 name ref_args got_args)
        [ 0; 5 ])
    [ "saxpy_fp"; "interp_s16"; "dissolve_s8" ]

let tiered_migration_case () =
  let entry = Suite.find "saxpy_fp" in
  let vk = bytecode "saxpy_fp" in
  let cache = Cache.create () in
  let tiered = Tiered.create ~cache ~hotness_threshold:1 () in
  let invoke target =
    Tiered.invoke tiered ~target ~profile:Profile.mono vk
      ~args:(entry.Suite.args ~scale:1)
  in
  ignore (invoke sse);
  ignore (invoke sse);
  (* hot on sse *)
  check_int "one migration" 1
    (Tiered.migrate_target tiered ~from_target:sse ~to_target:avx);
  let r = invoke avx in
  check_bool "hotness carries over to the new target" true
    (r.Tiered.r_tier = Tiered.Jit)

(* --- traces ------------------------------------------------------------- *)

let trace_deterministic_case () =
  let t1 = Trace.standard ~seed:7 ~length:300 ~n_targets:3 () in
  let t2 = Trace.standard ~seed:7 ~length:300 ~n_targets:3 () in
  check_bool "same seed, same trace" true (t1.Trace.tr_events = t2.Trace.tr_events);
  let t3 = Trace.standard ~seed:8 ~length:300 ~n_targets:3 () in
  check_bool "different seed, different trace" false
    (t1.Trace.tr_events = t3.Trace.tr_events)

let trace_shape_case () =
  let t = Trace.standard ~seed:42 ~length:500 ~n_targets:2 () in
  check_int "length" 500 (Trace.length t);
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.ev_target < 0 || e.Trace.ev_target >= 2 then
        fail "target index out of range";
      if not (List.mem e.Trace.ev_kernel t.Trace.tr_kernels) then
        fail ("unknown kernel " ^ e.Trace.ev_kernel);
      if e.Trace.ev_scale < 1 then fail "scale < 1")
    t.Trace.tr_events;
  (* Zipf-ish: the most popular kernel beats the least popular clearly. *)
  match Trace.popularity t with
  | [] -> fail "empty popularity"
  | (_, head) :: rest ->
    let tail = List.fold_left (fun _ (_, n) -> n) head rest in
    check_bool "popularity is skewed" true (head >= 3 * tail)

(* --- replay service ----------------------------------------------------- *)

let replay_cfg targets =
  { (Service.default_config ~targets) with Service.cfg_hotness = 3 }

let service_amortization_case () =
  (* The acceptance bar: >90% hit rate, >=10x amortization, and an
     interpreter->JIT promotion for every hot kernel body. *)
  let trace = Trace.standard ~length:300 ~n_targets:1 () in
  let rp = Service.replay (replay_cfg [ sse ]) trace in
  check_int "every event served" 300 rp.Service.rp_invocations;
  check_bool
    (Printf.sprintf "hit rate %.3f > 0.9" rp.Service.rp_hit_rate)
    true
    (rp.Service.rp_hit_rate > 0.9);
  check_bool
    (Printf.sprintf "amortization %.1fx >= 10x" (Service.amortization_factor rp))
    true
    (Service.amortization_factor rp >= 10.0);
  List.iter
    (fun (r : Service.kernel_row) ->
      if r.Service.kr_invocations > 3 && r.Service.kr_promoted_at = None then
        fail (r.Service.kr_kernel ^ ": hot kernel never promoted");
      if r.Service.kr_promoted_at <> None && r.Service.kr_jit_runs = 0 then
        fail (r.Service.kr_kernel ^ ": promoted but never ran on the JIT"))
    rp.Service.rp_rows

let service_deterministic_case () =
  let trace = Trace.standard ~length:150 ~n_targets:1 () in
  let r1 = Service.replay (replay_cfg [ sse ]) trace in
  let r2 = Service.replay (replay_cfg [ sse ]) trace in
  check_int "cycles deterministic" r1.Service.rp_total_cycles
    r2.Service.rp_total_cycles;
  check_int "hits deterministic" r1.Service.rp_hits r2.Service.rp_hits;
  Alcotest.(check (float 1e-9))
    "compile time deterministic" r1.Service.rp_total_compile_us
    r2.Service.rp_total_compile_us;
  check_int "same tier tables" 0
    (compare r1.Service.rp_rows r2.Service.rp_rows)

let service_rejuvenation_case () =
  let trace = Trace.standard ~length:200 ~n_targets:1 () in
  let cfg =
    { (replay_cfg [ sse ]) with Service.cfg_retargets = [ 100, sse, avx ] }
  in
  let rp = Service.replay cfg trace in
  check_bool "entries were rejuvenated" true (rp.Service.rp_rejuvenations > 0);
  (* after the switch every surviving body is keyed to the new target *)
  List.iter
    (fun (r : Service.kernel_row) ->
      if not (String.equal r.Service.kr_target "avx") then
        fail (r.Service.kr_kernel ^ " still keyed to " ^ r.Service.kr_target))
    rp.Service.rp_rows;
  (* rejuvenated bodies keep serving without re-interpretation *)
  check_bool "hit rate survives rejuvenation" true
    (rp.Service.rp_hit_rate > 0.9)

(* A shard builds each kernel's operands once per scale: events that read
   them get a copy, and JIT-tier events run on a frame that blits its
   pristine image into a working one.  saxpy_fp writes [y] in place, so a
   shard that handed an event (or a caller) its pristine buffers, or ran
   a body on its pristine image, would change what every later event of
   that kernel and scale sees. *)
let service_operands_case () =
  let pool =
    Service.pool_create
      { (replay_cfg [ sse ]) with Service.cfg_hotness = 0 }
      ~kernels:[ "saxpy_fp" ]
  in
  let entry = Suite.find "saxpy_fp" in
  let same (n1, a1) (n2, a2) =
    String.equal n1 n2
    &&
    match a1, a2 with
    | Eval.Array b1, Eval.Array b2 -> Buffer_.equal b1 b2
    | Eval.Scalar v1, Eval.Scalar v2 -> Value.equal v1 v2
    | Eval.Array _, Eval.Scalar _ | Eval.Scalar _, Eval.Array _ -> false
  in
  for i = 0 to 39 do
    let scale = 1 + (i mod 2) in
    let r =
      Service.shard_step pool ~shard:0
        { Trace.ev_index = i; ev_kernel = "saxpy_fp"; ev_target = 0;
          ev_scale = scale }
    in
    check_bool "ran on the JIT tier" true (r.Service.er_tier = Tiered.Jit);
    (match Service.shard_frames pool ~shard:0 ~kernel:"saxpy_fp" ~scale with
    | [ fr ] ->
      let fresh =
        Vapor_machine.Layout.materialize
          (Vapor_harness.Exec.frame_layout fr)
          (Suite.arrays_of_args (entry.Suite.args ~scale))
      in
      if not (String.equal (Bytes.to_string fresh)
                (Vapor_harness.Exec.frame_pristine fr))
      then
        fail
          (Printf.sprintf "after event %d the pristine image differs from a \
                           fresh one" i)
    | frs ->
      fail (Printf.sprintf "%d frames at scale %d" (List.length frs) scale));
    let seen =
      Service.shard_operands pool ~shard:0 ~kernel:"saxpy_fp" ~scale
    in
    if not (List.for_all2 same (entry.Suite.args ~scale) seen) then
      fail (Printf.sprintf "after event %d the operands differ from fresh ones" i);
    (* write the copy in place, as a kernel does *)
    List.iter
      (function
        | _, Eval.Array b -> Buffer_.set b 0 (Value.Float 1e9)
        | _, Eval.Scalar _ -> ())
      seen
  done

(* A JIT-tier event allocates the same at every operand size, and nothing
   straight into the major heap: it blits its frame's pristine image into
   the working one and runs the plan, and builds no operands and no
   memory image.  Words are minor + major - promoted (each word counted
   once, wherever it was allocated), compared across scales rather than
   against a count, which moves with the compiler version.  Minor words
   come from [Gc.minor_words]: on OCaml 5.1.1 the minor count of
   [Gc.counters] misreads the words allocated since the last minor
   collection.  Pairs that do not run on the JIT tier (a kernel
   quarantined on a target) are left out and counted. *)
let event_alloc_case () =
  let runs = 16 in
  let words pool kernel scale =
    let evs =
      Array.init (runs + 2) (fun i ->
          { Trace.ev_index = i; ev_kernel = kernel; ev_target = 0;
            ev_scale = scale })
    in
    let step i = Service.shard_step pool ~shard:0 evs.(i) in
    (* warm-up: the compile, the operand set and its frame *)
    ignore (step 0);
    ignore (step 1);
    let jit = ref true in
    let _, promoted0, major0 = Gc.counters () in
    let minor0 = Gc.minor_words () in
    for i = 2 to runs + 1 do
      if (step i).Service.er_tier <> Tiered.Jit then jit := false
    done;
    let minor1 = Gc.minor_words () in
    let _, promoted1, major1 = Gc.counters () in
    let direct = major1 -. major0 -. (promoted1 -. promoted0) in
    if !jit then Some (minor1 -. minor0 +. direct, direct) else None
  in
  let measured = ref 0 and excluded = ref [] in
  List.iter
    (fun (target : Vapor_targets.Target.t) ->
      let pool =
        Service.pool_create
          { (Service.default_config ~targets:[ target ]) with
            Service.cfg_hotness = 0 }
          ~kernels:Suite.names
      in
      List.iter
        (fun kernel ->
          let ctx = Printf.sprintf "%s on %s" kernel target.Vapor_targets.Target.name in
          match words pool kernel 1, words pool kernel 2 with
          | Some (w1, d1), Some (w2, d2) ->
            incr measured;
            if d1 <> 0.0 || d2 <> 0.0 then
              fail
                (Printf.sprintf
                   "%s: %.0f / %.0f words allocated straight into the major \
                    heap over %d events at scales 1 / 2"
                   ctx d1 d2 runs);
            if w1 <> w2 then
              fail
                (Printf.sprintf
                   "%s: %.0f words over %d events at scale 1, %.0f at scale 2"
                   ctx w1 runs w2)
          | _ -> excluded := ctx :: !excluded)
        Suite.names)
    Vapor_targets.Scalar_target.all;
  Printf.printf "%d pairs measured; %d not on the JIT tier, excluded: %s\n"
    !measured (List.length !excluded)
    (String.concat ", " (List.rev !excluded));
  check_bool "most pairs run on the JIT tier" true
    (!measured > 6 * List.length !excluded)

let () =
  Alcotest.run "runtime"
    [
      ( "digest",
        [
          Alcotest.test_case "stable" `Quick digest_stable_case;
          Alcotest.test_case "roundtrip" `Quick digest_roundtrip_case;
          Alcotest.test_case "distinct" `Quick digest_distinct_case;
          Alcotest.test_case "keys" `Quick digest_key_case;
        ] );
      "stats", [ Alcotest.test_case "registry" `Quick stats_case ];
      ( "code-cache",
        [
          Alcotest.test_case "hit/miss" `Quick cache_hit_miss_case;
          Alcotest.test_case "lru eviction" `Quick cache_lru_eviction_case;
          Alcotest.test_case "byte budget" `Quick cache_byte_budget_case;
          Alcotest.test_case "rejuvenation" `Quick cache_rejuvenation_case;
          Alcotest.test_case "eviction hook" `Quick cache_evict_hook_case;
        ] );
      ( "tiered",
        [
          Alcotest.test_case "promotion" `Quick tiered_promotion_case;
          Alcotest.test_case "differential" `Quick tiered_differential_case;
          Alcotest.test_case "migration" `Quick tiered_migration_case;
        ] );
      ( "trace",
        [
          Alcotest.test_case "deterministic" `Quick trace_deterministic_case;
          Alcotest.test_case "shape" `Quick trace_shape_case;
        ] );
      ( "service",
        [
          Alcotest.test_case "amortization" `Quick service_amortization_case;
          Alcotest.test_case "deterministic" `Quick service_deterministic_case;
          Alcotest.test_case "rejuvenation" `Quick service_rejuvenation_case;
          Alcotest.test_case "operands are copies" `Quick service_operands_case;
          Alcotest.test_case "event allocation flat in scale" `Quick
            event_alloc_case;
        ] );
    ]
