(* The repository benchmark.

     main.exe run --workload W [--seed N] [--seconds S] [--trace 0|1]
                  [--record FILE]
         one workload in this process; a human table, then one JSON
         result line ({"correct","attempted","failed","metrics"}) last;
         --record appends the run's full record to FILE
     main.exe suite [--seed N] [--seconds S] [--out FILE]
         every workload, each in its own child process with --trace 1;
         appends one record per workload to FILE (default
         .perfbench/results.jsonl); exits 1 if any output check failed
     main.exe compare PARENT.jsonl CHANGE.jsonl
         regression/gain verdicts over records written by [suite];
         exits 1 on a regression or a rise in the error rate

   perfbench/run.sh builds this program and forwards its arguments. *)

open Perfbench

let usage () =
  prerr_string
    "usage: main.exe run --workload W [--seed N] [--seconds S] [--trace 0|1]\n\
    \                    [--record FILE]\n\
    \       main.exe suite [--seed N] [--seconds S] [--out FILE]\n\
    \       main.exe compare PARENT.jsonl CHANGE.jsonl\n";
  exit 2

(* "--key value" pairs after the subcommand; anything else is a usage
   error. *)
let flags args =
  let rec go acc = function
    | [] -> List.rev acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  go [] args

let flag fl name ~default parse =
  match List.assoc_opt name fl with
  | None -> default
  | Some v -> (
    match parse v with
    | Some x -> x
    | None ->
      Printf.eprintf "main.exe: bad value %S for --%s\n" v name;
      exit 2)

let e2e_table (r : Runner.result) =
  Printf.printf "  %-26s %-9s %14s %14s %14s %7s\n" "metric" "unit" "value"
    "q1" "q3" "n";
  List.iter
    (fun (m : Spec.metric) ->
      let v = List.assoc m.Spec.name r.Runner.e2e in
      let thin =
        m.Spec.name = "event_us_p99"
        && not (Stats.reportable Stats.p99 v.Runner.n)
      in
      Printf.printf "  %-26s %-9s %14.4f %14.4f %14.4f %7d%s\n" m.Spec.name
        m.Spec.unit v.Runner.v v.Runner.q1 v.Runner.q3 v.Runner.n
        (if thin then "  (fewer than 10 samples beyond)" else ""))
    Spec.end_to_end;
  Printf.printf "  checks: %d failed of %d attempted, %d arrivals\n"
    r.Runner.failed r.Runner.attempted r.Runner.arrivals

let layer_table (r : Runner.result) =
  Printf.printf "\n  %-32s %-11s %16s\n" "per-layer metric" "unit" "value";
  List.iter
    (fun (m : Spec.metric) ->
      Printf.printf "  %-32s %-11s %16.6f\n" m.Spec.name m.Spec.unit
        (List.assoc m.Spec.name r.Runner.layers))
    Spec.per_layer;
  match r.Runner.ledger with
  | None -> ()
  | Some l ->
    Printf.printf "\n  span ledger (self time per name, traced run)\n";
    List.iter
      (fun (name, ns, n) ->
        Printf.printf "  %-20s %12.3f ms %9d spans\n" name (ns /. 1e6) n)
      (Ledger.rows l)

let result_json (r : Runner.result) =
  let metrics =
    if r.Runner.layers <> [] then
      List.map
        (fun (m : Spec.metric) -> m, List.assoc m.Spec.name r.Runner.layers)
        Spec.per_layer
    else
      List.map
        (fun (m : Spec.metric) ->
          m, (List.assoc m.Spec.name r.Runner.e2e).Runner.v)
        Spec.end_to_end
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.Runner.correct r.Runner.attempted r.Runner.failed
    (String.concat ", "
       (List.map
          (fun ((m : Spec.metric), v) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
              (Json.quote m.Spec.name) (Json.number_to_string v)
              (Json.quote m.Spec.unit))
          metrics))

(* One JSON line per run for [suite] and [compare]: every end-to-end
   metric with its quartiles and sample count, and the per-layer values
   when traced. *)
let record_json ~workload ~seed (r : Runner.result) =
  let num = Json.number_to_string in
  Printf.sprintf
    "{\"workload\": %s, \"seed\": %d, \"correct\": %b, \"attempted\": %d, \
     \"failed\": %d, \"arrivals\": %d, \"e2e\": {%s}, \"layers\": {%s}}"
    (Json.quote workload) seed r.Runner.correct r.Runner.attempted
    r.Runner.failed r.Runner.arrivals
    (String.concat ", "
       (List.map
          (fun (name, (v : Runner.value)) ->
            Printf.sprintf
              "%s: {\"value\": %s, \"q1\": %s, \"q3\": %s, \"n\": %d}"
              (Json.quote name) (num v.Runner.v) (num v.Runner.q1)
              (num v.Runner.q3) v.Runner.n)
          r.Runner.e2e))
    (String.concat ", "
       (List.map
          (fun (name, v) -> Printf.sprintf "%s: %s" (Json.quote name) (num v))
          r.Runner.layers))

let append_line path line =
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path
    (fun oc -> output_string oc (line ^ "\n"))

let cmd_run args =
  let fl = flags args in
  let name = flag fl "workload" ~default:"" Option.some in
  let kind =
    match Runner.kind_of_name name with
    | Some k -> k
    | None ->
      Printf.eprintf "main.exe: unknown workload %S (one of: %s)\n" name
        (String.concat ", " (List.map fst Spec.workloads));
      exit 2
  in
  let seed = flag fl "seed" ~default:1 int_of_string_opt in
  let seconds = flag fl "seconds" ~default:10.0 float_of_string_opt in
  let traced =
    flag fl "trace" ~default:false (function
      | "0" -> Some false
      | "1" -> Some true
      | _ -> None)
  in
  let record = List.assoc_opt "record" fl in
  let r = Runner.run ~seconds ~traced kind ~seed in
  Printf.printf "workload %s, seed %d, %g s\n" name seed seconds;
  e2e_table r;
  if traced then layer_table r;
  List.iter (fun n -> Printf.printf "  CHECK FAILED: %s\n" n) r.Runner.notes;
  Option.iter
    (fun path -> append_line path (record_json ~workload:name ~seed r))
    record;
  print_endline (result_json r)

let read_records path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map Json.parse

(* Each workload in its own child process, traced (the untraced samples
   and the separate traced serve happen in the same child); the children
   append their records to [out]. *)
let cmd_suite args =
  let fl = flags args in
  let seed = flag fl "seed" ~default:1 int_of_string_opt in
  let seconds = flag fl "seconds" ~default:10.0 float_of_string_opt in
  let out =
    match List.assoc_opt "out" fl with
    | Some p -> p
    | None ->
      Vapor_store.Store.mkdir_p ".perfbench";
      Filename.concat ".perfbench" "results.jsonl"
  in
  let before =
    if Sys.file_exists out then List.length (read_records out) else 0
  in
  let children =
    List.map
      (fun (name, _) ->
        let argv =
          [| Sys.executable_name; "run"; "--workload"; name; "--seed";
             string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds;
             "--trace"; "1"; "--record"; out |]
        in
        flush stdout;
        let t0 = Unix.gettimeofday () in
        let pid =
          Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout
            Unix.stderr
        in
        let ok =
          match snd (Unix.waitpid [] pid) with
          | Unix.WEXITED 0 -> true
          | _ ->
            Printf.printf "suite: workload %s exited abnormally\n" name;
            false
        in
        name, ok, Unix.gettimeofday () -. t0)
      Spec.workloads
  in
  let exit_ok = List.for_all (fun (_, ok, _) -> ok) children in
  let records = List.filteri (fun i _ -> i >= before) (read_records out) in
  Printf.printf "\nsuite summary (seed %d, records in %s)\n" seed out;
  Printf.printf "  %-14s" "workload";
  List.iter
    (fun (m : Spec.metric) -> Printf.printf " %16s" m.Spec.name)
    Spec.end_to_end;
  Printf.printf " %10s\n" "checks";
  List.iter
    (fun r ->
      let e2e = Json.get "e2e" r in
      Printf.printf "  %-14s" (Json.str (Json.get "workload" r));
      List.iter
        (fun (m : Spec.metric) ->
          Printf.printf " %16.4f"
            (Json.num (Json.get "value" (Json.get m.Spec.name e2e))))
        Spec.end_to_end;
      Printf.printf " %10s\n"
        (if Json.get "correct" r = Json.Bool true then "ok" else "FAILED"))
    records;
  Printf.printf "  wall time:";
  List.iter (fun (name, _, s) -> Printf.printf " %s %.1f s," name s) children;
  Printf.printf " suite %.1f s\n"
    (List.fold_left (fun a (_, _, s) -> a +. s) 0.0 children);
  let all_correct =
    List.length records = List.length Spec.workloads
    && List.for_all (fun r -> Json.get "correct" r = Json.Bool true) records
  in
  if not (exit_ok && all_correct) then exit 1

let cmd_compare = function
  | [ parent; change ] ->
    let load path =
      List.map
        (fun r -> Json.str (Json.get "workload" r), r)
        (read_records path)
    in
    let parent = load parent and change = load change in
    let runs side w =
      List.filter_map (fun (k, r) -> if k = w then Some r else None) side
    in
    let value m r =
      Json.num (Json.get "value" (Json.get m (Json.get "e2e" r)))
    in
    let error_rate rs =
      let sum k =
        List.fold_left (fun a r -> a +. Json.num (Json.get k r)) 0.0 rs
      in
      sum "failed" /. Float.max 1.0 (sum "arrivals")
    in
    let failed = ref false in
    Printf.printf "  %-14s %-26s %-32s %-32s %7s  %s\n" "workload" "metric"
      "parent median [q1, q3]" "change median [q1, q3]" "won" "verdict";
    List.iter
      (fun (w, _) ->
        match runs parent w, runs change w with
        | [], _ | _, [] -> Printf.printf "  %-14s (no runs on both sides)\n" w
        | ps, cs ->
          List.iter
            (fun (m : Spec.metric) ->
              let row =
                Verdict.judge m
                  ~parent:(List.map (value m.Spec.name) ps)
                  ~change:(List.map (value m.Spec.name) cs)
              in
              let q (a, b, c) = Printf.sprintf "%.4g [%.4g, %.4g]" b a c in
              if row.Verdict.verdict = Verdict.Regression then failed := true;
              Printf.printf "  %-14s %-26s %-32s %-32s %3d/%-3d  %s\n" w
                m.Spec.name (q row.Verdict.parent_q) (q row.Verdict.change_q)
                row.Verdict.wins row.Verdict.pairs
                (Verdict.to_string row.Verdict.verdict))
            Spec.end_to_end;
          let pe = error_rate ps and ce = error_rate cs in
          if ce > pe then begin
            failed := true;
            Printf.printf "  %-14s error_rate rose: %.6f -> %.6f\n" w pe ce
          end)
      Spec.workloads;
    if !failed then exit 1
  | _ -> usage ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: rest -> cmd_run rest
  | "suite" :: rest -> cmd_suite rest
  | "compare" :: rest -> cmd_compare rest
  | _ -> usage ()
