(* Tests for the persistent code store: index codec round trips (QCheck),
   entry bit-identity across publish/probe and across handles, warm-start
   report identity (single-domain and domains=4), checksum-corruption
   quarantine with recompile fallback, budget GC, and target
   invalidation. *)

module Suite = Vapor_kernels.Suite
module Driver = Vapor_vectorizer.Driver
module Flows = Vapor_harness.Flows
module Profile = Vapor_jit.Profile
module Compile = Vapor_jit.Compile
module Encode = Vapor_vecir.Encode
module Store = Vapor_store.Store
module D = Vapor_runtime.Digest
module Stats = Vapor_runtime.Stats
module Trace = Vapor_runtime.Trace
module Service = Vapor_runtime.Service

let sse = Vapor_targets.Sse.target
let fail = Alcotest.fail
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let bytecode name =
  (Flows.vectorized_bytecode (Suite.find name)).Driver.vkernel

let temp_store_dir () = Filename.temp_dir "vapor_store" ".test"

let open_fresh () =
  let dir = temp_store_dir () in
  match Store.open_store ~create:true dir with
  | Ok s -> s
  | Error m -> fail ("open_store: " ^ m)

let reopen ?max_entries ?max_bytes dir =
  match Store.open_store ?max_entries ?max_bytes dir with
  | Ok s -> s
  | Error m -> fail ("reopen: " ^ m)

let key_of vk =
  {
    Store.sk_digest = D.raw (D.of_vkernel vk);
    sk_target = sse.Vapor_targets.Target.name;
    sk_profile = Profile.mono.Profile.name;
  }

let compile vk =
  match Compile.compile_checked ~target:sse ~profile:Profile.mono vk with
  | Ok c -> c
  | Error e -> fail ("compile: " ^ e.Compile.le_reason)

(* --- index codec: property-tested round trip ---------------------------- *)

let row_gen =
  let open QCheck.Gen in
  let str = string_size ~gen:printable (int_range 0 12) in
  let digest = string_size ~gen:char (return 16) in
  map
    (fun (digest, target, profile, file, bytes, checksum, tick, quarantined) ->
      {
        Store.ix_key =
          { Store.sk_digest = digest; sk_target = target; sk_profile = profile };
        ix_file = file;
        ix_bytes = bytes;
        ix_checksum = checksum;
        ix_tick = tick;
        ix_status = (if quarantined then Store.Quarantined else Store.Valid);
      })
    (tup8 digest str str str (int_bound 100000) digest (int_bound 100000) bool)

let index_arb =
  QCheck.make
    ~print:(fun ix ->
      Printf.sprintf "%d rows, next_tick %d" (List.length ix.Store.ix_rows)
        ix.Store.ix_next_tick)
    QCheck.Gen.(
      map2
        (fun next_tick rows ->
          {
            Store.ix_version = Store.format_version;
            ix_next_tick = next_tick;
            ix_rows = rows;
          })
        (int_bound 100000)
        (list_size (int_bound 20) row_gen))

let prop_index_roundtrip =
  QCheck.Test.make ~count:300 ~name:"index decode(encode ix) = ix" index_arb
    (fun ix -> Store.decode_index (Store.encode_index ix) = Ok ix)

let prop_index_rejects_truncation =
  QCheck.Test.make ~count:100 ~name:"index decode rejects truncation"
    index_arb (fun ix ->
      let enc = Store.encode_index ix in
      String.length enc < 2
      ||
      match Store.decode_index (String.sub enc 0 (String.length enc - 1)) with
      | Error _ -> true
      | Ok _ -> false)

let index_codec_errors_case () =
  let bad s =
    match Store.decode_index s with Error _ -> true | Ok _ -> false
  in
  check_bool "empty rejected" true (bad "");
  check_bool "bad magic rejected" true (bad "NOTANIDX\x00\x00\x00\x00");
  (* A future format version must refuse to decode, not mis-decode. *)
  let future =
    Store.encode_index
      { Store.ix_version = Store.format_version; ix_next_tick = 0; ix_rows = [] }
  in
  let bumped = Bytes.of_string future in
  Bytes.set bumped 8 (Char.chr (Store.format_version + 1));
  check_bool "future version rejected" true (bad (Bytes.to_string bumped))

(* --- entry round trip: what comes out is bit-identical to what went in -- *)

let roundtrip_case () =
  let s = open_fresh () in
  let vk = bytecode "saxpy_fp" in
  let c = compile vk in
  let key = key_of vk in
  let ss = Store.session ~id:0 s in
  (match Store.probe ss ~target:sse key with
  | Store.Miss -> ()
  | _ -> fail "fresh store must miss");
  Store.publish ss key ~encoded:(Encode.encode vk) c;
  (* A key published this session is served from staging before the
     merge (covers re-probing after an in-memory eviction). *)
  (match Store.probe ss ~target:sse key with
  | Store.Hit _ -> ()
  | _ -> fail "staged entry must hit within the session");
  Store.merge s [ ss ];
  check_int "one entry after merge" 1 (Store.entry_count s);
  (* Probe through a *reopened* handle: the cross-process path. *)
  let s2 = reopen (Store.dir s) in
  let ss2 = Store.session ~id:0 s2 in
  match Store.probe ss2 ~target:sse key with
  | Store.Hit e ->
    check_string "bytecode bit-identical" (Encode.encode vk)
      e.Store.en_encoded;
    check_bool "machine code identical" true
      (e.Store.en_compiled.Compile.mfun = c.Compile.mfun);
    check_bool "decisions identical" true
      (e.Store.en_compiled.Compile.decisions = c.Compile.decisions);
    Alcotest.(check (float 1e-9))
      "modeled compile time identical" c.Compile.compile_time_us
      e.Store.en_compiled.Compile.compile_time_us;
    check_int "bytecode nodes identical" c.Compile.bytecode_nodes
      e.Store.en_compiled.Compile.bytecode_nodes;
    check_bool "scalar regions identical" true
      (e.Store.en_compiled.Compile.forced_scalar_regions
      = c.Compile.forced_scalar_regions)
  | Store.Miss -> fail "persisted entry missed"
  | Store.Corrupt m -> fail ("persisted entry corrupt: " ^ m)

let open_errors_case () =
  (match Store.open_store "/nonexistent/vapor/store" with
  | Error _ -> ()
  | Ok _ -> fail "missing dir without ~create must error");
  let dir = temp_store_dir () in
  let oc = open_out_bin (Filename.concat dir "junk.txt") in
  output_string oc "junk";
  close_out oc;
  match Store.open_store dir with
  | Error _ -> ()
  | Ok _ -> fail "non-store dir must error"

(* A path below a regular file cannot be created: an [Error], not an
   escaped [Sys_error]. *)
let open_below_file_case () =
  let dir = temp_store_dir () in
  let file = Filename.concat dir "f" in
  close_out (open_out_bin file);
  match Store.open_store ~create:true (Filename.concat file "x") with
  | Error _ -> ()
  | Ok _ -> fail "a store below a regular file must not open"
  | exception e -> fail ("open_store raised " ^ Printexc.to_string e)

(* --- replay fixtures ---------------------------------------------------- *)

let replay_trace () = Trace.standard ~length:120 ~n_targets:1 ()

let cfg_with store =
  { (Service.default_config ~targets:[ sse ]) with Service.cfg_store = store }

let gauge st name = Option.value ~default:nan (Stats.gauge st name)

(* --- warm start: byte-identical report, zero real compiles -------------- *)

let warm_start_identity_case () =
  let trace = replay_trace () in
  let s = open_fresh () in
  let cold_st = Stats.create () in
  let cold =
    Service.report_to_string
      (Service.replay ~stats:cold_st (cfg_with (Some s)) trace)
  in
  check_bool "cold run compiled for real" true
    (gauge cold_st "jit.real_compiles" > 0.0);
  check_bool "cold run published" true (gauge cold_st "store.publishes" > 0.0);
  (* Fresh handle = fresh process: everything must come from disk. *)
  let warm_store = reopen (Store.dir s) in
  let warm_st = Stats.create () in
  let warm =
    Service.report_to_string
      (Service.replay ~stats:warm_st (cfg_with (Some warm_store)) trace)
  in
  check_string "warm report byte-identical to cold" cold warm;
  Alcotest.(check (float 0.0))
    "warm run performs zero real compiles" 0.0
    (gauge warm_st "jit.real_compiles");
  Alcotest.(check (float 0.0))
    "warm store misses zero" 0.0 (gauge warm_st "store.misses");
  Alcotest.(check (float 0.0))
    "warm store hit rate 1.0" 1.0 (gauge warm_st "store.hit_rate");
  (* And a storeless run is byte-identical too: the store must be
     observable only through gauges, never through the report. *)
  let plain = Service.report_to_string (Service.replay (cfg_with None) trace) in
  check_string "store never perturbs the report" plain cold

(* --- concurrent domains: no lost or torn entries ------------------------ *)

let sharded_publish_case () =
  let trace = replay_trace () in
  let s = open_fresh () in
  let cold_st = Stats.create () in
  let cold =
    Service.report_to_string
      (Service.replay ~stats:cold_st ~domains:4 (cfg_with (Some s))
         trace)
  in
  let published = gauge cold_st "store.publishes" in
  check_bool "shards published" true (published > 0.0);
  check_int "no lost or duplicated entries"
    (int_of_float published) (Store.entry_count s);
  (* Every entry written under concurrency verifies cleanly: no torn
     writes. *)
  check_int "no torn entries" 0 (List.length (Store.verify s));
  (* Same trace, single-domain, storeless: sharding and the store leave
     the report untouched. *)
  let plain =
    Service.report_to_string (Service.replay (cfg_with None) trace)
  in
  check_string "domains=4 store run report-identical" plain cold;
  (* Warm domains=4 over the shared store: all shards hit, none compile. *)
  let warm_store = reopen (Store.dir s) in
  let warm_st = Stats.create () in
  let warm =
    Service.report_to_string
      (Service.replay ~stats:warm_st ~domains:4
         (cfg_with (Some warm_store)) trace)
  in
  check_string "warm domains=4 byte-identical" cold warm;
  Alcotest.(check (float 0.0))
    "warm domains=4 zero real compiles" 0.0
    (gauge warm_st "jit.real_compiles");
  Alcotest.(check (float 0.0))
    "warm domains=4 store hit rate 1.0" 1.0 (gauge warm_st "store.hit_rate")

(* --- corruption: detected, quarantined, recompiled ---------------------- *)

let flip_byte_in_first_object dir =
  let objects = Filename.concat dir "objects" in
  match Array.to_list (Sys.readdir objects) with
  | [] -> fail "no object files to corrupt"
  | name :: _ ->
    let path = Filename.concat objects name in
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let b = Bytes.create n in
    really_input ic b 0 n;
    close_in ic;
    (* Flip a payload byte (the tail is payload; the head is header). *)
    let off = n - 8 in
    Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xFF));
    let oc = open_out_bin path in
    output_bytes oc b;
    close_out oc

let corruption_quarantine_case () =
  let trace = replay_trace () in
  let s = open_fresh () in
  let cold_st = Stats.create () in
  let cold =
    Service.report_to_string
      (Service.replay ~stats:cold_st (cfg_with (Some s)) trace)
  in
  flip_byte_in_first_object (Store.dir s);
  (* The replay over the damaged store must detect the corruption at
     probe time, quarantine the entry, recompile, and produce the same
     report — no wrong code is ever served, and the caller sees exit-0
     behavior. *)
  let hurt_store = reopen (Store.dir s) in
  let hurt_st = Stats.create () in
  let hurt =
    Service.report_to_string
      (Service.replay ~stats:hurt_st (cfg_with (Some hurt_store)) trace)
  in
  check_string "corrupted-store report byte-identical" cold hurt;
  Alcotest.(check (float 0.0))
    "exactly one verify failure" 1.0 (gauge hurt_st "store.verify_fails");
  Alcotest.(check (float 0.0))
    "exactly one quarantine" 1.0 (gauge hurt_st "store.quarantined");
  Alcotest.(check (float 0.0))
    "exactly one recompile" 1.0 (gauge hurt_st "jit.real_compiles");
  Alcotest.(check (float 0.0))
    "recompiled body republished" 1.0 (gauge hurt_st "store.publishes");
  (* The republish replaced the quarantined row: the store is healthy
     again for the next process. *)
  let healed = reopen (Store.dir s) in
  check_int "store verifies clean after healing" 0
    (List.length (Store.verify healed));
  check_int "nothing left quarantined under the key" 0
    (Store.quarantined_count healed)

(* --- crash safety: kill mid-publish, heal at open ----------------------- *)

let truncate_first_object dir =
  let objects = Filename.concat dir "objects" in
  match Array.to_list (Sys.readdir objects) with
  | [] -> fail "no object files to tear"
  | name :: _ ->
    let path = Filename.concat objects name in
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let half = really_input_string ic (n / 2) in
    close_in ic;
    let oc = open_out_bin path in
    output_string oc half;
    close_out oc

let crash_recovery_case () =
  let trace = replay_trace () in
  let s = open_fresh () in
  let cold =
    Service.report_to_string (Service.replay (cfg_with (Some s)) trace)
  in
  let dir = Store.dir s in
  let objects = Filename.concat dir "objects" in
  (* Simulate a process killed mid-publish/mid-merge: a torn entry file
     the index still lists as valid, the stale temp of an index rename
     that never happened, an orphaned object temp, and a staging dir
     from a session that never merged. *)
  truncate_first_object dir;
  let write path body =
    let oc = open_out_bin path in
    output_string oc body;
    close_out oc
  in
  write (Filename.concat dir "index.vci.tmp") "partial index write";
  write (Filename.concat objects "orphan.vce.tmp") "partial entry write";
  let staging = Filename.concat (Filename.concat dir "staging") "s99-7" in
  Sys.mkdir staging 0o755;
  write (Filename.concat staging "leftover.vce") "never merged";
  (* Reopen runs crash recovery. *)
  let healed = reopen dir in
  check_bool "heal accounted every artifact" true
    ((Store.counters healed).Store.c_torn_healed >= 4);
  check_int "torn entry quarantined, not served" 1
    (Store.quarantined_count healed);
  check_bool "stale index temp removed" false
    (Sys.file_exists (Filename.concat dir "index.vci.tmp"));
  check_bool "orphaned object temp removed" false
    (Sys.file_exists (Filename.concat objects "orphan.vce.tmp"));
  check_bool "staging leftovers swept" false (Sys.file_exists staging);
  (* The healed store serves: the torn entry recompiles, everything else
     comes warm, and the report is byte-identical to the cold run. *)
  let warm_st = Stats.create () in
  let warm =
    Service.report_to_string
      (Service.replay ~stats:warm_st (cfg_with (Some healed)) trace)
  in
  check_string "healed report byte-identical to cold" cold warm;
  Alcotest.(check (float 0.0))
    "exactly one recompile for the torn entry" 1.0
    (gauge warm_st "jit.real_compiles");
  check_bool "torn_healed gauge exported" true
    (gauge warm_st "store.torn_healed" >= 4.0);
  (* Next process: nothing left to heal, the store verifies clean. *)
  let clean = reopen dir in
  check_int "nothing to heal on the next open" 0
    (Store.counters clean).Store.c_torn_healed;
  check_int "store verifies clean after healing" 0
    (List.length (Store.verify clean));
  check_int "republish cleared the quarantine" 0
    (Store.quarantined_count clean)

(* --- GC and invalidation ------------------------------------------------ *)

let populate s =
  let trace = replay_trace () in
  ignore (Service.replay (cfg_with (Some s)) trace);
  Store.entry_count s

let gc_budget_case () =
  let s = open_fresh () in
  let n = populate s in
  check_bool "populated several entries" true (n > 3);
  let evicted = Store.gc ~max_entries:3 s in
  check_int "evictions reported" (n - 3) evicted;
  check_int "entry budget enforced" 3 (Store.entry_count s);
  (* The index and the object files agree after GC. *)
  let objects = Filename.concat (Store.dir s) "objects" in
  check_int "object files match the index" 3
    (Array.length (Sys.readdir objects));
  (* Byte budget: shrink until only one entry fits. *)
  let evicted = Store.gc ~max_bytes:1 s in
  check_bool "byte budget evicts down to one entry" true (evicted >= 1);
  check_int "an oversized single entry may stay" 1 (Store.entry_count s);
  (* Budgets persist through reopen (given again at open time). *)
  let s2 = reopen ~max_entries:1 (Store.dir s) in
  check_int "reopen sees the survivors" 1 (Store.entry_count s2)

let invalidate_target_case () =
  let s = open_fresh () in
  let n = populate s in
  let quarantined = Store.invalidate_target s ~from_target:"sse" in
  check_int "every sse entry quarantined" n quarantined;
  check_int "no valid entries left" 0 (Store.entry_count s);
  check_int "quarantined, not deleted" n (Store.quarantined_count s);
  (* Quarantined entries never serve. *)
  let vk = bytecode "saxpy_fp" in
  let ss = Store.session ~id:0 s in
  (match Store.probe ss ~target:sse (key_of vk) with
  | Store.Miss -> ()
  | _ -> fail "quarantined entry must not serve");
  check_int "unrelated target untouched" 0
    (Store.invalidate_target s ~from_target:"avx")

(* --- the modeled footprint evictions depend on --------------------------- *)

(* Every suite kernel on the fleet, compiled cold (publishing to a store)
   and then served warm from it into a fresh cache: each entry charges
   its bytecode's encoded length plus 4 bytes per machine instruction,
   whichever way the body arrived. *)
let footprint_case () =
  let module Target = Vapor_targets.Target in
  let module Cache = Vapor_runtime.Code_cache in
  let module Tiered = Vapor_runtime.Tiered in
  let fleet =
    List.map Target.resolve
      [
        Vapor_targets.Scalar_target.target; sse; Vapor_targets.Avx.target;
        Vapor_targets.Neon.target; Vapor_targets.Altivec.target;
        Target.resolve ~vl:16 Vapor_targets.Sve.target;
        Vapor_targets.Avx512.target;
      ]
  in
  let expected = Hashtbl.create 256 in
  List.iter
    (fun (target : Target.t) ->
      List.iter
        (fun name ->
          let vk = bytecode name in
          match Compile.compile_checked ~target ~profile:Profile.mono vk with
          | Ok c ->
            Hashtbl.replace expected
              (D.short (D.of_vkernel vk), target.Target.name)
              (String.length (Encode.encode vk)
              + (4 * Array.length c.Compile.mfun.Vapor_machine.Mfun.instrs))
          | Error _ -> ())
        Suite.names)
    fleet;
  let s = open_fresh () in
  let serve what =
    let ss = Store.session ~id:0 s in
    let rows =
      List.concat_map
        (fun target ->
          let cache = Cache.create () in
          let rt = Tiered.create ~store:ss ~cache ~hotness_threshold:0 () in
          List.iter
            (fun name ->
              ignore
                (Tiered.invoke rt ~target ~profile:Profile.mono (bytecode name)
                   ~args:((Suite.find name).Suite.args ~scale:1)))
            Suite.names;
          if what = "warm" then
            check_int "warm run compiles nothing" 0 (Cache.real_compiles cache);
          Cache.snap_rows (Cache.snapshot cache))
        fleet
    in
    Store.merge s [ ss ];
    List.iter
      (fun (d, t, _, bytes, _) ->
        match Hashtbl.find_opt expected (d, t) with
        | Some want -> check_int (Printf.sprintf "%s %s@%s" what d t) want bytes
        | None -> fail (Printf.sprintf "%s: unexpected entry %s@%s" what d t))
      rows;
    check_int (what ^ ": one entry per compiled body") (Hashtbl.length expected)
      (List.length rows)
  in
  serve "cold";
  serve "warm"

(* --- suites ------------------------------------------------------------- *)

let qsuite name tests = name, List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "store"
    [
      qsuite "index-codec"
        [ prop_index_roundtrip; prop_index_rejects_truncation ];
      ( "format",
        [
          Alcotest.test_case "codec error paths" `Quick index_codec_errors_case;
          Alcotest.test_case "entry round trip is bit-identical" `Quick
            roundtrip_case;
          Alcotest.test_case "open errors are user errors" `Quick
            open_errors_case;
          Alcotest.test_case "a path below a regular file is an error"
            `Quick open_below_file_case;
        ] );
      ( "warm-start",
        [
          Alcotest.test_case "warm report byte-identical, zero compiles"
            `Quick warm_start_identity_case;
          Alcotest.test_case "domains=4 publish loses nothing" `Quick
            sharded_publish_case;
          Alcotest.test_case "cache footprint: bytecode + 4 per instruction"
            `Quick footprint_case;
        ] );
      ( "integrity",
        [
          Alcotest.test_case "corrupted entry quarantined and recompiled"
            `Quick corruption_quarantine_case;
          Alcotest.test_case "kill mid-publish heals at open" `Quick
            crash_recovery_case;
        ] );
      ( "maintenance",
        [
          Alcotest.test_case "gc respects budgets" `Quick gc_budget_case;
          Alcotest.test_case "invalidate_target quarantines stale code"
            `Quick invalidate_target_case;
        ] );
    ]
