(* Per-stage cost timers for the JIT pipeline, designed to be free when
   nobody is listening.  Instrumented sites (Compile.compile's lower /
   emit / regalloc, Simulator.prepare, Exec's layout and simulate)
   bracket the work with

     let t0 = Stage.start () in
     ... the stage ...
     Stage.record "lower" t0

   With no sink installed, [start] returns 0.0 and [record] returns unit
   without reading the clock — the hooks are branch-and-return no-ops.
   The sink is domain-local state (Domain.DLS), so each shard of the
   domain-parallel replay can stream its own stage events into its own
   tracer with no cross-domain races. *)

type sink = { on_stage : string -> float -> unit }
    (* stage name, duration ns *)

let key : sink option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let set_sink s = Domain.DLS.set key s
let sink () = Domain.DLS.get key
let enabled () = Domain.DLS.get key <> None

(* Install [s] for the duration of [f] only, restoring the previous sink
   even on exceptions (profilers nest under tracers this way). *)
let with_sink s f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key s;
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f

let start () =
  match Domain.DLS.get key with
  | None -> 0.0
  | Some _ -> Clock.now_ns ()

let record name t0 =
  match Domain.DLS.get key with
  | None -> ()
  | Some s -> s.on_stage name (Clock.now_ns () -. t0)

(* A summing sink: aggregates total ns and hit counts per stage name, for
   the JIT cost profiler's tables. *)
type agg = {
  tbl : (string, float ref * int ref) Hashtbl.t;
}

let agg_create () = { tbl = Hashtbl.create 16 }

let agg_sink a =
  {
    on_stage =
      (fun name ns ->
        match Hashtbl.find_opt a.tbl name with
        | Some (sum, n) ->
          sum := !sum +. ns;
          Stdlib.incr n
        | None -> Hashtbl.replace a.tbl name (ref ns, ref 1));
  }

let agg_ns a name =
  match Hashtbl.find_opt a.tbl name with
  | Some (sum, _) -> !sum
  | None -> 0.0

let agg_count a name =
  match Hashtbl.find_opt a.tbl name with
  | Some (_, n) -> !n
  | None -> 0

let agg_reset a = Hashtbl.reset a.tbl

let agg_names a =
  Hashtbl.fold (fun k _ acc -> k :: acc) a.tbl []
  |> List.sort String.compare
