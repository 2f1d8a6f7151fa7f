(* Fold a wall-clock tracer export into a per-name ledger.

   The tracer writes Chrome-style B/E line pairs grouped into roots (one
   per served event, plus the benchmark's own roots around its calls);
   leaf spans such as the JIT and machine stages are B/E pairs with
   nothing between them.  A span's self time is its duration minus the
   durations of its direct children, so self times over all names add up
   to the time the roots cover.  Whatever the timed region spent outside
   every root is the residual no span accounts for. *)

type entry = { mutable self_ns : float; mutable count : int }

type t = {
  names : (string, entry) Hashtbl.t;
  mutable root_ns : float;  (* total duration of root spans *)
}

type open_span = {
  o_name : string;
  o_start : float;
  mutable o_children : float;  (* total duration of direct children *)
}

let entry t name =
  match Hashtbl.find_opt t.names name with
  | Some e -> e
  | None ->
    let e = { self_ns = 0.0; count = 0 } in
    Hashtbl.replace t.names name e;
    e

let fold jsonl =
  let t = { names = Hashtbl.create 16; root_ns = 0.0 } in
  let stack = ref [] in
  let line l =
    if l <> "" then begin
      let j = Json.parse l in
      let wall =
        match Json.member "wall_ns" j with
        | Some v -> Json.num v
        | None -> raise (Json.Error "trace line without wall_ns")
      in
      match Json.str (Json.get "ph" j) with
      | "B" ->
        stack :=
          {
            o_name = Json.str (Json.get "name" j);
            o_start = wall;
            o_children = 0.0;
          }
          :: !stack
      | "E" -> (
        match !stack with
        | [] -> raise (Json.Error "span end without a begin")
        | o :: rest ->
          stack := rest;
          let dur = wall -. o.o_start in
          let e = entry t o.o_name in
          e.self_ns <- e.self_ns +. (dur -. o.o_children);
          e.count <- e.count + 1;
          (match rest with
          | parent :: _ -> parent.o_children <- parent.o_children +. dur
          | [] -> t.root_ns <- t.root_ns +. dur))
      | ph -> raise (Json.Error ("unknown span phase " ^ ph))
    end
  in
  (* Line by line without materializing the split: a traced run's export
     runs to tens of megabytes. *)
  let n = String.length jsonl in
  let rec lines from =
    if from < n then begin
      let stop =
        Option.value ~default:n (String.index_from_opt jsonl from '\n')
      in
      line (String.sub jsonl from (stop - from));
      lines (stop + 1)
    end
  in
  lines 0;
  if !stack <> [] then raise (Json.Error "unbalanced trace: spans left open");
  t

let self_ns t name =
  match Hashtbl.find_opt t.names name with Some e -> e.self_ns | None -> 0.0

let count t name =
  match Hashtbl.find_opt t.names name with Some e -> e.count | None -> 0

(* (name, self ns, count), largest self time first. *)
let rows t =
  Hashtbl.fold (fun k e acc -> (k, e.self_ns, e.count) :: acc) t.names []
  |> List.sort (fun (a, x, _) (b, y, _) ->
         match Float.compare y x with 0 -> String.compare a b | c -> c)
