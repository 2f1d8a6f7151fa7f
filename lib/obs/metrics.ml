(* The metrics registry: monotonic counters, value histograms, and gauges,
   keyed by name.  This is the single registry the whole runtime writes
   into (the former Runtime.Stats, lifted here so every layer can depend
   on it) plus two export formats: Prometheus text and JSON.

   Compatibility contract: [to_table] renders counters and histograms
   exactly as the pre-observability Stats did — gauges appear only in the
   Prometheus/JSON exports — so replay reports stay byte-identical whether
   or not anything sets a gauge. *)

type histo = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  histos : (string, histo) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  labeled : (string * string * string, float ref) Hashtbl.t;
      (* (gauge name, label key, label value) -> value: one labeled
         series per distinct label value, e.g.
         serve.answered{stream="3"} *)
}

let create () =
  {
    counters = Hashtbl.create 16;
    histos = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    labeled = Hashtbl.create 16;
  }

let incr ?(by = 1) t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.replace t.counters name (ref by)

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> !r
  | None -> 0

let observe t name v =
  match Hashtbl.find_opt t.histos name with
  | Some h ->
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    h.h_min <- Float.min h.h_min v;
    h.h_max <- Float.max h.h_max v
  | None ->
    Hashtbl.replace t.histos name
      { h_count = 1; h_sum = v; h_min = v; h_max = v }

let set_gauge t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> r := v
  | None -> Hashtbl.replace t.gauges name (ref v)

let add_gauge t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> r := !r +. v
  | None -> Hashtbl.replace t.gauges name (ref v)

let max_gauge t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> if v > !r then r := v
  | None -> Hashtbl.replace t.gauges name (ref v)

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> Some !r
  | None -> None

let set_labeled_gauge t name ~label:(k, v) value =
  match Hashtbl.find_opt t.labeled (name, k, v) with
  | Some r -> r := value
  | None -> Hashtbl.replace t.labeled (name, k, v) (ref value)

let add_labeled_gauge t name ~label:(k, v) value =
  match Hashtbl.find_opt t.labeled (name, k, v) with
  | Some r -> r := !r +. value
  | None -> Hashtbl.replace t.labeled (name, k, v) (ref value)

let labeled_gauge t name ~label:(k, v) =
  match Hashtbl.find_opt t.labeled (name, k, v) with
  | Some r -> Some !r
  | None -> None

(* All labeled series, sorted by (name, label key, label value). *)
let labeled_series t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.labeled []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

type summary = {
  s_count : int;
  s_sum : float;
  s_min : float;
  s_max : float;
  s_mean : float;
}

let summary t name =
  match Hashtbl.find_opt t.histos name with
  | None -> None
  | Some h ->
    Some
      {
        s_count = h.h_count;
        s_sum = h.h_sum;
        s_min = h.h_min;
        s_max = h.h_max;
        s_mean = h.h_sum /. float_of_int (max 1 h.h_count);
      }

let sorted_keys tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort String.compare

let counter_names t = sorted_keys t.counters
let histogram_names t = sorted_keys t.histos
let gauge_names t = sorted_keys t.gauges

let to_table t =
  let buf = Buffer.create 256 in
  let cs = counter_names t in
  if cs <> [] then begin
    Buffer.add_string buf "  counters\n";
    List.iter
      (fun name ->
        Buffer.add_string buf
          (Printf.sprintf "    %-32s %10d\n" name (counter t name)))
      cs
  end;
  let hs = histogram_names t in
  if hs <> [] then begin
    Buffer.add_string buf "  histograms";
    Buffer.add_string buf
      (Printf.sprintf "  %-22s %8s %12s %12s %12s\n" "" "count" "mean" "min"
         "max");
    List.iter
      (fun name ->
        match summary t name with
        | None -> ()
        | Some s ->
          Buffer.add_string buf
            (Printf.sprintf "    %-32s %8d %12.2f %12.2f %12.2f\n" name
               s.s_count s.s_mean s.s_min s.s_max))
      hs
  end;
  Buffer.contents buf

let reset t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.histos;
  Hashtbl.reset t.gauges;
  Hashtbl.reset t.labeled

(* Pool [src] into [dst]: counters add, histograms merge count/sum and
   take the min/max envelope, gauges add.  Pooled means are exact, so a
   report built from per-shard registries matches the single-registry
   run.  Additive pooling is right for count-like gauges (cache bytes,
   quarantines); ratio gauges (hit rates) must be recomputed by the
   caller after the merge. *)
let merge_into ~(dst : t) (src : t) =
  Hashtbl.iter (fun name r -> incr ~by:!r dst name) src.counters;
  Hashtbl.iter
    (fun name (h : histo) ->
      match Hashtbl.find_opt dst.histos name with
      | Some d ->
        d.h_count <- d.h_count + h.h_count;
        d.h_sum <- d.h_sum +. h.h_sum;
        d.h_min <- Float.min d.h_min h.h_min;
        d.h_max <- Float.max d.h_max h.h_max
      | None ->
        Hashtbl.replace dst.histos name
          {
            h_count = h.h_count;
            h_sum = h.h_sum;
            h_min = h.h_min;
            h_max = h.h_max;
          })
    src.histos;
  Hashtbl.iter (fun name r -> add_gauge dst name !r) src.gauges;
  Hashtbl.iter
    (fun (name, k, v) r -> add_labeled_gauge dst name ~label:(k, v) !r)
    src.labeled

(* An independent deep copy — the registry part of a shard checkpoint.
   Merging into an empty registry copies every section exactly (all the
   merge operations are identities on empty destinations). *)
let copy src =
  let dst = create () in
  merge_into ~dst src;
  dst

(* --- exports ----------------------------------------------------------- *)

(* Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]* — dots and dashes
   from our registry names become underscores. *)
let prom_name ~prefix name =
  let b = Buffer.create (String.length name + String.length prefix) in
  Buffer.add_string b prefix;
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

(* %.17g round-trips doubles; integral values print bare for readability. *)
let prom_float f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let to_prometheus ?(prefix = "vapor_") t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun name ->
      let pn = prom_name ~prefix name in
      Printf.bprintf buf "# TYPE %s counter\n%s %d\n" pn pn (counter t name))
    (counter_names t);
  let series = labeled_series t in
  let emit_labeled name pn =
    List.iter
      (fun ((n, k, v), value) ->
        if n = name then
          Printf.bprintf buf "%s{%s=\"%s\"} %s\n" pn (prom_name ~prefix:"" k)
            v (prom_float value))
      series
  in
  List.iter
    (fun name ->
      let pn = prom_name ~prefix name in
      match gauge t name with
      | Some v ->
        Printf.bprintf buf "# TYPE %s gauge\n%s %s\n" pn pn (prom_float v);
        emit_labeled name pn
      | None -> ())
    (gauge_names t);
  (* Labeled families with no unlabeled total still get a TYPE line. *)
  let orphan_names =
    List.filter_map
      (fun ((n, _, _), _) -> if gauge t n = None then Some n else None)
      series
    |> List.sort_uniq String.compare
  in
  List.iter
    (fun name ->
      let pn = prom_name ~prefix name in
      Printf.bprintf buf "# TYPE %s gauge\n" pn;
      emit_labeled name pn)
    orphan_names;
  List.iter
    (fun name ->
      match summary t name with
      | None -> ()
      | Some s ->
        let pn = prom_name ~prefix name in
        Printf.bprintf buf "# TYPE %s summary\n" pn;
        Printf.bprintf buf "%s_count %d\n" pn s.s_count;
        Printf.bprintf buf "%s_sum %s\n" pn (prom_float s.s_sum);
        Printf.bprintf buf "%s_min %s\n" pn (prom_float s.s_min);
        Printf.bprintf buf "%s_max %s\n" pn (prom_float s.s_max))
    (histogram_names t);
  Buffer.contents buf

let to_json t =
  let buf = Buffer.create 1024 in
  let obj last body =
    Buffer.add_string buf body;
    if not last then Buffer.add_string buf ","
  in
  ignore obj;
  Buffer.add_string buf "{\n  \"counters\": {";
  let cs = counter_names t in
  List.iteri
    (fun i name ->
      Printf.bprintf buf "%s\n    \"%s\": %d"
        (if i = 0 then "" else ",")
        (Json.escape name) (counter t name))
    cs;
  Buffer.add_string buf (if cs = [] then "},\n" else "\n  },\n");
  Buffer.add_string buf "  \"gauges\": {";
  let gs = gauge_names t in
  List.iteri
    (fun i name ->
      Printf.bprintf buf "%s\n    \"%s\": %s"
        (if i = 0 then "" else ",")
        (Json.escape name)
        (Json.float (Option.value ~default:0.0 (gauge t name))))
    gs;
  Buffer.add_string buf (if gs = [] then "},\n" else "\n  },\n");
  (* Labeled gauges nest name -> label key -> label value -> value, e.g.
     {"serve.answered": {"stream": {"0": 12.0, "1": 9.0}}}. *)
  Buffer.add_string buf "  \"labeled\": {";
  let series = labeled_series t in
  let lnames =
    List.map (fun ((n, _, _), _) -> n) series |> List.sort_uniq String.compare
  in
  List.iteri
    (fun i name ->
      Printf.bprintf buf "%s\n    \"%s\": {"
        (if i = 0 then "" else ",")
        (Json.escape name);
      let keys =
        List.filter_map
          (fun ((n, k, _), _) -> if n = name then Some k else None)
          series
        |> List.sort_uniq String.compare
      in
      List.iteri
        (fun j key ->
          Printf.bprintf buf "%s\"%s\": {"
            (if j = 0 then "" else ", ")
            (Json.escape key);
          let vals =
            List.filter_map
              (fun ((n, k, v), value) ->
                if n = name && k = key then Some (v, value) else None)
              series
          in
          List.iteri
            (fun m (v, value) ->
              Printf.bprintf buf "%s\"%s\": %s"
                (if m = 0 then "" else ", ")
                (Json.escape v) (Json.float value))
            vals;
          Buffer.add_string buf "}")
        keys;
      Buffer.add_string buf "}")
    lnames;
  Buffer.add_string buf (if lnames = [] then "},\n" else "\n  },\n");
  Buffer.add_string buf "  \"histograms\": {";
  let hs = histogram_names t in
  List.iteri
    (fun i name ->
      match summary t name with
      | None -> ()
      | Some s ->
        Printf.bprintf buf
          "%s\n    \"%s\": {\"count\": %d, \"sum\": %s, \"min\": %s, \
           \"max\": %s, \"mean\": %s}"
          (if i = 0 then "" else ",")
          (Json.escape name) s.s_count (Json.float s.s_sum)
          (Json.float s.s_min) (Json.float s.s_max) (Json.float s.s_mean))
    hs;
  Buffer.add_string buf (if hs = [] then "}\n" else "\n  }\n");
  Buffer.add_string buf "}\n";
  Buffer.contents buf
