(* Structured span tracing for the replay runtime.

   Spans are emitted as JSONL begin/end pairs (Chrome-trace style "ph"
   B/E), grouped into *roots*: one root per replayed trace event, keyed
   by the event's trace index.  Identity comes from a deterministic
   ordinal clock — [ord] counts lines within a root, resetting at each
   root begin — so the span structure of an event depends only on the
   runtime decisions taken for it, never on wall time or on which domain
   executed it.  Optional wall-clock fields ([wall_ns]) ride along for
   humans and are omitted entirely in deterministic mode, which is what
   makes the trace byte-identical across [--domains 1/2/4]: each kernel's
   events land on exactly one shard with the same per-kernel runtime
   state as a single-domain run, completed roots are pooled with
   {!absorb}, and {!to_jsonl} orders them by event index.

   A line looks like

     {"ev":17,"ord":2,"ph":"B","depth":1,"name":"cache_lookup",
      "attrs":{"outcome":"hit"},"wall_ns":123456.0}

   The disabled tracer is a shared singleton; every operation on it is a
   branch-and-return no-op, so instrumented code paths are free unless a
   [--trace] flag built a real tracer. *)

type value =
  | S of string
  | I of int
  | F of float
  | Bool of bool

type t = {
  enabled : bool;
  wall : bool;
  buf : Buffer.t;  (* lines of the currently open root *)
  mutable roots : (int * string) list;  (* completed roots: key, chunk *)
  mutable ord : int;
  mutable depth : int;
  mutable in_root : bool;
  mutable root_key : int;
  mutable dropped : int;  (* spans discarded outside any root *)
}

let disabled =
  {
    enabled = false;
    wall = false;
    buf = Buffer.create 1;
    roots = [];
    ord = 0;
    depth = 0;
    in_root = false;
    root_key = 0;
    dropped = 0;
  }

let create ?(wall = true) () =
  {
    enabled = true;
    wall;
    buf = Buffer.create 4096;
    roots = [];
    ord = 0;
    depth = 0;
    in_root = false;
    root_key = 0;
    dropped = 0;
  }

(* A fresh tracer with the same configuration and empty buffers: the
   per-shard tracer of the domain-parallel replay. *)
let sub t = if t.enabled then create ~wall:t.wall () else disabled

let on t = t.enabled
let wall_clock t = t.enabled && t.wall
let dropped t = t.dropped

let value_to_json = function
  | S s -> Printf.sprintf "\"%s\"" (Json.escape s)
  | I i -> string_of_int i
  | F f -> Json.float f
  | Bool b -> string_of_bool b

let emit t ~ph ~name ~depth attrs wall_ns =
  Printf.bprintf t.buf "{\"ev\":%d,\"ord\":%d,\"ph\":%S,\"depth\":%d,\"name\":\"%s\""
    t.root_key t.ord ph depth (Json.escape name);
  (match attrs with
  | [] -> ()
  | attrs ->
    Buffer.add_string t.buf ",\"attrs\":{";
    List.iteri
      (fun i (k, v) ->
        Printf.bprintf t.buf "%s\"%s\":%s"
          (if i = 0 then "" else ",")
          (Json.escape k) (value_to_json v))
      attrs;
    Buffer.add_string t.buf "}");
  (match wall_ns with
  | Some ns when t.wall -> Printf.bprintf t.buf ",\"wall_ns\":%.1f" ns
  | _ -> ());
  Buffer.add_string t.buf "}\n";
  t.ord <- t.ord + 1

let now t = if t.wall then Some (Clock.now_ns ()) else None

let root_begin t ~ev ~name attrs =
  if t.enabled then begin
    if t.in_root then begin
      (* Unbalanced use; close the previous root rather than corrupt. *)
      t.roots <- (t.root_key, Buffer.contents t.buf) :: t.roots;
      Buffer.clear t.buf
    end;
    t.in_root <- true;
    t.root_key <- ev;
    t.ord <- 0;
    t.depth <- 0;
    emit t ~ph:"B" ~name ~depth:0 attrs (now t);
    t.depth <- 1
  end

let root_end t ?(attrs = []) ~name () =
  if t.enabled && t.in_root then begin
    (* Close any spans left open by an exceptional path so every root's
       begin/end counts balance. *)
    while t.depth > 1 do
      t.depth <- t.depth - 1;
      emit t ~ph:"E" ~name:"(abandoned)" ~depth:t.depth [] (now t)
    done;
    t.depth <- 0;
    emit t ~ph:"E" ~name ~depth:0 attrs (now t);
    t.roots <- (t.root_key, Buffer.contents t.buf) :: t.roots;
    Buffer.clear t.buf;
    t.in_root <- false
  end

let span_begin t ~name attrs =
  if t.enabled then
    if t.in_root then begin
      emit t ~ph:"B" ~name ~depth:t.depth attrs (now t);
      t.depth <- t.depth + 1
    end
    else t.dropped <- t.dropped + 1

let span_end t ?(attrs = []) ~name () =
  if t.enabled && t.in_root && t.depth > 1 then begin
    t.depth <- t.depth - 1;
    emit t ~ph:"E" ~name ~depth:t.depth attrs (now t)
  end

(* A complete leaf span reported after the fact (the Stage sink's shape):
   consecutive B/E lines; in wall mode the B timestamp is reconstructed
   from the duration. *)
let leaf t ~name ~dur_ns =
  if t.enabled then
    if t.in_root then begin
      let e = now t in
      let b = Option.map (fun x -> x -. dur_ns) e in
      emit t ~ph:"B" ~name ~depth:t.depth [] b;
      emit t ~ph:"E" ~name ~depth:t.depth
        (if t.wall then [ "dur_ns", F dur_ns ] else [])
        e
    end
    else t.dropped <- t.dropped + 1

(* The Stage sink that streams pipeline-stage timings into this tracer as
   leaf spans. *)
let stage_sink t : Stage.sink option =
  if t.enabled then Some { Stage.on_stage = (fun name ns -> leaf t ~name ~dur_ns:ns) }
  else None

(* Pool a (finished) shard tracer into this one.  Roots keep their event
   keys; ordering is restored at export time. *)
let absorb ~into t =
  if into.enabled && t.enabled then begin
    into.roots <- t.roots @ into.roots;
    into.dropped <- into.dropped + t.dropped
  end

(* The full trace, one JSON object per line, roots ordered by event
   index.  Deterministic given deterministic span structure. *)
let to_jsonl t =
  if not t.enabled then ""
  else begin
    let roots =
      List.sort (fun (a, _) (b, _) -> compare (a : int) b) (List.rev t.roots)
    in
    let buf = Buffer.create 65536 in
    List.iter (fun (_, chunk) -> Buffer.add_string buf chunk) roots;
    Buffer.contents buf
  end
