(* A minimal JSON reader and number printer for the benchmark's own
   inputs and outputs: tracer JSONL lines, child-process result lines,
   result files and BENCHMARK.json.  No JSON library ships with the
   toolchain, and these inputs are small, flat and machine-written. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let fail pos what = raise (Error (Printf.sprintf "offset %d: %s" pos what))

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let rec skip () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip ()
      | _ -> ()
  in
  let expect c =
    skip ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail !pos (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail !pos "bad literal"
  in
  let string_ () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail !pos "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
        if !pos >= n then fail !pos "bad escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          if !pos + 4 > n then fail !pos "bad \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else Buffer.add_utf_8_uchar buf (Uchar.of_int code)
        | c -> Buffer.add_char buf c);
        go ()
      | c ->
        Buffer.add_char buf c;
        go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail start "bad number"
  in
  let rec value () =
    skip ();
    if !pos >= n then fail !pos "unexpected end";
    match s.[!pos] with
    | '{' ->
      incr pos;
      skip ();
      if !pos < n && s.[!pos] = '}' then begin
        incr pos;
        Obj []
      end
      else
        let rec members acc =
          let k = string_ () in
          expect ':';
          let v = value () in
          skip ();
          if !pos < n && s.[!pos] = ',' then begin
            incr pos;
            members ((k, v) :: acc)
          end
          else begin
            expect '}';
            Obj (List.rev ((k, v) :: acc))
          end
        in
        members []
    | '[' ->
      incr pos;
      skip ();
      if !pos < n && s.[!pos] = ']' then begin
        incr pos;
        Arr []
      end
      else
        let rec elements acc =
          let v = value () in
          skip ();
          if !pos < n && s.[!pos] = ',' then begin
            incr pos;
            elements (v :: acc)
          end
          else begin
            expect ']';
            Arr (List.rev (v :: acc))
          end
        in
        elements []
    | '"' -> Str (string_ ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  let v = value () in
  skip ();
  if !pos <> n then fail !pos "trailing characters";
  v

let member k = function
  | Obj kv -> List.assoc_opt k kv
  | _ -> None

let num = function
  | Num f -> f
  | _ -> raise (Error "expected a number")

let str = function
  | Str s -> s
  | _ -> raise (Error "expected a string")

let get k v =
  match member k v with
  | Some x -> x
  | None -> raise (Error (Printf.sprintf "missing key %S" k))

(* Every digit the float carries: the shortest of %.15g/%.17g that reads
   back to the same value.  Non-finite values have no JSON spelling. *)
let number_to_string f =
  if not (Float.is_finite f) then
    invalid_arg "Json.number_to_string: non-finite"
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf
