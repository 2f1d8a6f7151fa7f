(* On-disk, content-addressed code store.  See the .mli for the model:
   versioned binary formats with per-entry checksums, an atomically
   replaced index, private per-session staging merged by a single
   writer, and quarantine-instead-of-serve for anything that fails
   verification. *)

module B = Vapor_vecir.Bytecode
module Encode = Vapor_vecir.Encode
module Target = Vapor_targets.Target
module Compile = Vapor_jit.Compile
module Lower = Vapor_jit.Lower
module Mfun = Vapor_machine.Mfun
module Simulator = Vapor_machine.Simulator
module Md5 = Stdlib.Digest

let format_version = 1
let index_magic = "VAPORIDX"
let entry_magic = "VAPORENT"
let index_file = "index.vci"

type key = {
  sk_digest : string;
  sk_target : string;
  sk_profile : string;
}

let hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let key_to_string k =
  Printf.sprintf "%s@%s/%s"
    (let h = hex k.sk_digest in
     String.sub h 0 (min 10 (String.length h)))
    k.sk_target k.sk_profile

type status =
  | Valid
  | Quarantined

type index_row = {
  ix_key : key;
  ix_file : string;
  ix_bytes : int;
  ix_checksum : string;
  ix_tick : int;
  ix_status : status;
}

type index = {
  ix_version : int;
  ix_next_tick : int;
  ix_rows : index_row list;
}

(* --- binary codec helpers ---------------------------------------------
   Exposed as [Codec] so sibling formats (the serve layer's admission
   journal and checkpoint envelopes) share the exact framing idiom —
   length-prefixed fields, [Malformed] on any truncation — instead of
   growing a second, subtly different binary codec. *)

module Codec = struct
  exception Malformed of string

  let put_u32 b v =
    if v < 0 then raise (Malformed "negative u32");
    Buffer.add_int32_le b (Int32.of_int (v land 0xFFFFFFFF))

  let put_u64 b (v : int64) = Buffer.add_int64_le b v

  let put_str b s =
    put_u32 b (String.length s);
    Buffer.add_string b s

  let get_u32 s pos =
    if !pos + 4 > String.length s then raise (Malformed "truncated u32");
    let v = String.get_int32_le s !pos in
    pos := !pos + 4;
    let v = Int32.to_int v land 0xFFFFFFFF in
    v

  let get_u64 s pos =
    if !pos + 8 > String.length s then raise (Malformed "truncated u64");
    let v = String.get_int64_le s !pos in
    pos := !pos + 8;
    v

  let get_str s pos =
    let n = get_u32 s pos in
    if !pos + n > String.length s then raise (Malformed "truncated string");
    let r = String.sub s !pos n in
    pos := !pos + n;
    r
end

exception Malformed = Codec.Malformed

let put_u32 = Codec.put_u32
let put_str = Codec.put_str
let get_u32 = Codec.get_u32
let get_str = Codec.get_str

(* --- index codec ------------------------------------------------------- *)

let encode_index ix =
  let b = Buffer.create 1024 in
  Buffer.add_string b index_magic;
  put_u32 b ix.ix_version;
  put_u32 b ix.ix_next_tick;
  put_u32 b (List.length ix.ix_rows);
  List.iter
    (fun r ->
      Buffer.add_char b (match r.ix_status with Valid -> 'V' | Quarantined -> 'Q');
      put_str b r.ix_key.sk_digest;
      put_str b r.ix_key.sk_target;
      put_str b r.ix_key.sk_profile;
      put_str b r.ix_file;
      put_u32 b r.ix_bytes;
      put_str b r.ix_checksum;
      put_u32 b r.ix_tick)
    ix.ix_rows;
  Buffer.contents b

let decode_index s =
  try
    let pos = ref 0 in
    let n_magic = String.length index_magic in
    if String.length s < n_magic || String.sub s 0 n_magic <> index_magic then
      raise (Malformed "bad index magic");
    pos := n_magic;
    let version = get_u32 s pos in
    if version <> format_version then
      raise
        (Malformed
           (Printf.sprintf "index format version %d, expected %d" version
              format_version));
    let next_tick = get_u32 s pos in
    let n = get_u32 s pos in
    let rows = ref [] in
    for _ = 1 to n do
      if !pos >= String.length s then raise (Malformed "truncated row");
      let status =
        match s.[!pos] with
        | 'V' -> Valid
        | 'Q' -> Quarantined
        | _ -> raise (Malformed "bad row status")
      in
      incr pos;
      let sk_digest = get_str s pos in
      let sk_target = get_str s pos in
      let sk_profile = get_str s pos in
      let ix_file = get_str s pos in
      let ix_bytes = get_u32 s pos in
      let ix_checksum = get_str s pos in
      let ix_tick = get_u32 s pos in
      rows :=
        {
          ix_key = { sk_digest; sk_target; sk_profile };
          ix_file;
          ix_bytes;
          ix_checksum;
          ix_tick;
          ix_status = status;
        }
        :: !rows
    done;
    if !pos <> String.length s then raise (Malformed "trailing bytes");
    Ok { ix_version = version; ix_next_tick = next_tick; ix_rows = List.rev !rows }
  with Malformed m -> Error m

(* --- entry payload ------------------------------------------------------ *)

(* Everything needed to rebuild a [Compile.t] except the execution plan,
   which is rebuilt with [Simulator.prepare] for the probing target. *)
type payload = {
  p_enc_vk : string;
  p_mfun : Mfun.t;
  p_decisions : Lower.decision list;
  p_compile_time_us : float;
  p_bytecode_nodes : int;
  p_forced_scalar_regions : int list;
}

let payload_of_compiled ~encoded (c : Compile.t) =
  {
    p_enc_vk = encoded;
    p_mfun = c.Compile.mfun;
    p_decisions = c.Compile.decisions;
    p_compile_time_us = c.Compile.compile_time_us;
    p_bytecode_nodes = c.Compile.bytecode_nodes;
    p_forced_scalar_regions = c.Compile.forced_scalar_regions;
  }

type entry = {
  en_encoded : string;
  en_compiled : Compile.t;
}

(* The stored bytecode is not decoded: the digest check already proved it
   is the key's, and the runtime keeps the caller's own bytecode. *)
let entry_of_payload ~(target : Target.t) p =
  {
    en_encoded = p.p_enc_vk;
    en_compiled =
      {
        Compile.mfun = p.p_mfun;
        plan = Simulator.prepare ~target p.p_mfun;
        decisions = p.p_decisions;
        compile_time_us = p.p_compile_time_us;
        bytecode_nodes = p.p_bytecode_nodes;
        forced_scalar_regions = p.p_forced_scalar_regions;
      };
  }

let encode_entry key payload_bytes =
  let b = Buffer.create (String.length payload_bytes + 128) in
  Buffer.add_string b entry_magic;
  put_u32 b format_version;
  put_str b key.sk_digest;
  put_str b key.sk_target;
  put_str b key.sk_profile;
  put_str b (Md5.string payload_bytes);
  put_str b payload_bytes;
  Buffer.contents b

(* Decode and fully verify one entry file: magic, version, embedded key
   vs the probed key, payload checksum vs both the embedded and the
   index checksum, and the payload's bytecode digest vs the key's. *)
let verified_payload ~key ~index_checksum bytes : (payload, string) result =
  try
    let pos = ref 0 in
    let n_magic = String.length entry_magic in
    if String.length bytes < n_magic || String.sub bytes 0 n_magic <> entry_magic
    then raise (Malformed "bad entry magic");
    pos := n_magic;
    let version = get_u32 bytes pos in
    if version <> format_version then
      raise
        (Malformed
           (Printf.sprintf "entry format version %d, expected %d" version
              format_version));
    let sk_digest = get_str bytes pos in
    let sk_target = get_str bytes pos in
    let sk_profile = get_str bytes pos in
    if
      not
        (String.equal sk_digest key.sk_digest
        && String.equal sk_target key.sk_target
        && String.equal sk_profile key.sk_profile)
    then raise (Malformed "entry key mismatch");
    let checksum = get_str bytes pos in
    let payload_bytes = get_str bytes pos in
    if !pos <> String.length bytes then raise (Malformed "trailing bytes");
    if not (String.equal (Md5.string payload_bytes) checksum) then
      raise (Malformed "payload checksum mismatch");
    if not (String.equal checksum index_checksum) then
      raise (Malformed "index checksum mismatch");
    let p =
      try (Marshal.from_string payload_bytes 0 : payload)
      with _ -> raise (Malformed "payload does not unmarshal")
    in
    if not (String.equal (Md5.string p.p_enc_vk) key.sk_digest) then
      raise (Malformed "bytecode digest mismatch");
    Ok p
  with Malformed m -> Error m

(* --- filesystem helpers ------------------------------------------------- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if parent <> d then mkdir_p parent;
    (try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ())
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file_atomic path content =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc content;
  close_out oc;
  Sys.rename tmp path

let remove_if_exists path = if Sys.file_exists path then Sys.remove path

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* --- the store handle --------------------------------------------------- *)

type counters = {
  c_probes : int;
  c_hits : int;
  c_misses : int;
  c_verify_fails : int;
  c_publishes : int;
  c_quarantined : int;
  c_gc_evictions : int;
  c_torn_healed : int;
  c_retries : int;
}

type t = {
  t_dir : string;
  t_max_entries : int;
  t_max_bytes : int;
  t_tbl : (key, index_row) Hashtbl.t;
  mutable t_next_tick : int;
  mutable t_bytes : int;  (* valid rows only *)
  mutable t_probes : int;
  mutable t_hits : int;
  mutable t_misses : int;
  mutable t_verify_fails : int;
  mutable t_publishes : int;
  mutable t_quarantined : int;
  mutable t_gc_evictions : int;
  mutable t_torn_healed : int;
  mutable t_retries : int;
}

let dir t = t.t_dir
let objects_dir t = Filename.concat t.t_dir "objects"
let quarantine_dir t = Filename.concat t.t_dir "quarantine"
let staging_root t = Filename.concat t.t_dir "staging"
let index_path t = Filename.concat t.t_dir index_file

let file_of_key key =
  Printf.sprintf "%s-%s-%s.vce" (hex key.sk_digest) key.sk_target
    key.sk_profile

let valid_rows t =
  Hashtbl.fold
    (fun _ r acc -> if r.ix_status = Valid then r :: acc else acc)
    t.t_tbl []

let entry_count t = List.length (valid_rows t)
let byte_count t = t.t_bytes

let quarantined_count t =
  Hashtbl.fold
    (fun _ r n -> if r.ix_status = Quarantined then n + 1 else n)
    t.t_tbl 0

let compare_keys a b =
  compare (a.sk_target, a.sk_profile, a.sk_digest)
    (b.sk_target, b.sk_profile, b.sk_digest)

let rows t =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.t_tbl []
  |> List.sort (fun a b -> compare_keys a.ix_key b.ix_key)

let counters t =
  {
    c_probes = t.t_probes;
    c_hits = t.t_hits;
    c_misses = t.t_misses;
    c_verify_fails = t.t_verify_fails;
    c_publishes = t.t_publishes;
    c_quarantined = t.t_quarantined;
    c_gc_evictions = t.t_gc_evictions;
    c_torn_healed = t.t_torn_healed;
    c_retries = t.t_retries;
  }

let flush t =
  let ix =
    {
      ix_version = format_version;
      ix_next_tick = t.t_next_tick;
      ix_rows = rows t;
    }
  in
  write_file_atomic (index_path t) (encode_index ix)

(* Quarantine one row: move its file out of service and mark it.  The
   bytes stay on disk (under quarantine/) for postmortem. *)
let quarantine_row t (r : index_row) =
  if r.ix_status = Valid then begin
    let src = Filename.concat (objects_dir t) r.ix_file in
    let dst = Filename.concat (quarantine_dir t) r.ix_file in
    (try if Sys.file_exists src then Sys.rename src dst
     with Sys_error _ -> remove_if_exists src);
    Hashtbl.replace t.t_tbl r.ix_key { r with ix_status = Quarantined };
    t.t_bytes <- t.t_bytes - r.ix_bytes;
    t.t_quarantined <- t.t_quarantined + 1
  end

(* Exact on-disk length of a well-formed entry file, computable from the
   index row alone — a cheap open-time tear detector that reads no
   payload bytes. *)
let expected_entry_len (r : index_row) =
  let slen s = 4 + String.length s in
  String.length entry_magic + 4
  + slen r.ix_key.sk_digest
  + slen r.ix_key.sk_target
  + slen r.ix_key.sk_profile
  + slen r.ix_checksum + 4 + r.ix_bytes

let file_len path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> in_channel_length ic)

(* Crash recovery, run once per open: a process killed mid-publish or
   mid-merge leaves (a) a stale [index.vci.tmp] whose rename never
   happened, (b) orphaned [*.tmp] object writes, (c) whole staging dirs
   from sessions that never merged, and (d) torn entry files the index
   still lists as [Valid].  Temps and staging leftovers are deleted;
   torn or missing entries are quarantined instead of served.  Returns
   how many artifacts were healed. *)
let heal t =
  let healed = ref 0 in
  let tmp = index_path t ^ ".tmp" in
  if Sys.file_exists tmp then begin
    Sys.remove tmp;
    incr healed
  end;
  let sweep_tmps d =
    if Sys.file_exists d then
      Array.iter
        (fun f ->
          if Filename.check_suffix f ".tmp" then begin
            remove_if_exists (Filename.concat d f);
            incr healed
          end)
        (Sys.readdir d)
  in
  sweep_tmps (objects_dir t);
  sweep_tmps (quarantine_dir t);
  let root = staging_root t in
  if Sys.file_exists root then
    Array.iter
      (fun d ->
        remove_tree (Filename.concat root d);
        incr healed)
      (Sys.readdir root);
  List.iter
    (fun r ->
      let path = Filename.concat (objects_dir t) r.ix_file in
      let torn =
        (not (Sys.file_exists path))
        || (try file_len path <> expected_entry_len r with Sys_error _ -> true)
      in
      if torn then begin
        quarantine_row t r;
        incr healed
      end)
    (List.sort
       (fun a b -> compare_keys a.ix_key b.ix_key)
       (valid_rows t));
  t.t_torn_healed <- t.t_torn_healed + !healed;
  !healed

let open_store ?(create = false) ?(max_entries = max_int)
    ?(max_bytes = max_int) dir : (t, string) result =
  let fresh () =
    {
      t_dir = dir;
      t_max_entries = max 1 max_entries;
      t_max_bytes = max 1 max_bytes;
      t_tbl = Hashtbl.create 64;
      t_next_tick = 0;
      t_bytes = 0;
      t_probes = 0;
      t_hits = 0;
      t_misses = 0;
      t_verify_fails = 0;
      t_publishes = 0;
      t_quarantined = 0;
      t_gc_evictions = 0;
      t_torn_healed = 0;
      t_retries = 0;
    }
  in
  let init t =
    mkdir_p (objects_dir t);
    mkdir_p (quarantine_dir t);
    mkdir_p (staging_root t);
    flush t;
    Ok t
  in
  (* a path the filesystem refuses (a parent that is a regular file, no
     permission) is a user error like any other *)
  try
    if not (Sys.file_exists dir) then
      if create then begin
        mkdir_p dir;
        init (fresh ())
      end
      else Error (Printf.sprintf "store directory '%s' does not exist" dir)
    else if not (Sys.is_directory dir) then
      Error (Printf.sprintf "'%s' is not a directory" dir)
    else begin
      let t = fresh () in
      if Sys.file_exists (index_path t) then
        match decode_index (read_file (index_path t)) with
        | Error m ->
          Error (Printf.sprintf "'%s' is not a usable code store: %s" dir m)
        | Ok ix ->
          t.t_next_tick <- ix.ix_next_tick;
          List.iter
            (fun r ->
              Hashtbl.replace t.t_tbl r.ix_key r;
              if r.ix_status = Valid then
                t.t_bytes <- t.t_bytes + r.ix_bytes)
            ix.ix_rows;
          mkdir_p (objects_dir t);
          mkdir_p (quarantine_dir t);
          mkdir_p (staging_root t);
          if heal t > 0 then flush t;
          Ok t
      else if Array.length (Sys.readdir dir) = 0 then
        if create then init t
        else
          Error
            (Printf.sprintf "'%s' is empty (no index); not a code store" dir)
      else
        Error
          (Printf.sprintf "'%s' exists but holds no %s; not a code store" dir
             index_file)
    end
  with Sys_error msg -> Error msg

let drop_row t (r : index_row) =
  (match r.ix_status with
  | Valid ->
    remove_if_exists (Filename.concat (objects_dir t) r.ix_file);
    t.t_bytes <- t.t_bytes - r.ix_bytes
  | Quarantined ->
    remove_if_exists (Filename.concat (quarantine_dir t) r.ix_file));
  Hashtbl.remove t.t_tbl r.ix_key

let sweep_staging t =
  let root = staging_root t in
  if Sys.file_exists root then
    Array.iter
      (fun d -> remove_tree (Filename.concat root d))
      (Sys.readdir root)

let enforce_budget ?max_entries ?max_bytes t =
  let max_entries = Option.value ~default:t.t_max_entries max_entries in
  let max_bytes = Option.value ~default:t.t_max_bytes max_bytes in
  let evicted = ref 0 in
  let over () =
    let n = entry_count t in
    n > max_entries || (t.t_bytes > max_bytes && n > 1)
  in
  while over () do
    let lru =
      List.fold_left
        (fun acc r ->
          match acc with
          | Some b
            when b.ix_tick < r.ix_tick
                 || (b.ix_tick = r.ix_tick
                    && compare_keys b.ix_key r.ix_key <= 0) -> acc
          | _ -> Some r)
        None (valid_rows t)
    in
    match lru with
    | None -> assert false (* over () implies a valid row exists *)
    | Some r ->
      drop_row t r;
      incr evicted
  done;
  t.t_gc_evictions <- t.t_gc_evictions + !evicted;
  !evicted

let gc ?max_entries ?max_bytes t =
  let n = enforce_budget ?max_entries ?max_bytes t in
  sweep_staging t;
  flush t;
  n

let read_row_payload t (r : index_row) : (payload, string) result =
  let path = Filename.concat (objects_dir t) r.ix_file in
  if not (Sys.file_exists path) then Error "entry file missing"
  else
    verified_payload ~key:r.ix_key ~index_checksum:r.ix_checksum
      (read_file path)

let row_kernel_name t (r : index_row) =
  let path =
    Filename.concat
      (match r.ix_status with
      | Valid -> objects_dir t
      | Quarantined -> quarantine_dir t)
      r.ix_file
  in
  if not (Sys.file_exists path) then None
  else
    match
      verified_payload ~key:r.ix_key ~index_checksum:r.ix_checksum
        (read_file path)
    with
    | Ok p -> ( try Some (Encode.decode p.p_enc_vk).B.name with _ -> None)
    | Error _ -> None

let verify t =
  let failures =
    List.fold_left
      (fun acc r ->
        match read_row_payload t r with
        | Ok _ -> acc
        | Error m -> (r, m) :: acc)
      []
      (List.sort (fun a b -> compare_keys a.ix_key b.ix_key) (valid_rows t))
  in
  List.iter (fun (r, _) -> quarantine_row t r) failures;
  flush t;
  List.rev_map (fun (r, m) -> r.ix_key, m) failures

let clear t =
  Hashtbl.iter
    (fun _ (r : index_row) ->
      remove_if_exists (Filename.concat (objects_dir t) r.ix_file);
      remove_if_exists (Filename.concat (quarantine_dir t) r.ix_file))
    t.t_tbl;
  Hashtbl.reset t.t_tbl;
  t.t_bytes <- 0;
  sweep_staging t;
  flush t

let invalidate_target_rows t ~from_target =
  let stale =
    List.filter
      (fun r -> String.equal r.ix_key.sk_target from_target)
      (valid_rows t)
  in
  List.iter (quarantine_row t) stale;
  List.length stale

let invalidate_target t ~from_target =
  let n = invalidate_target_rows t ~from_target in
  flush t;
  n

(* --- sessions ----------------------------------------------------------- *)

type staged = {
  sg_key : key;
  sg_file : string;
  sg_bytes : int;
  sg_checksum : string;
}

type session = {
  ss_store : t;
  ss_dir : string;
  mutable ss_staged : staged list;  (* reverse publish order *)
  ss_staged_tbl : (key, staged) Hashtbl.t;
  ss_bad : (key, unit) Hashtbl.t;
  mutable ss_hit_order : key list;  (* reverse hit order *)
  mutable ss_invalidate : string list;  (* reverse defer order *)
  mutable ss_probes : int;
  mutable ss_hits : int;
  mutable ss_misses : int;
  mutable ss_verify_fails : int;
  mutable ss_publishes : int;
  mutable ss_retries : int;
}

(* Staging dir names only need to be unique within one run (the
   single-writer model serializes runs); a monotonic counter keeps
   same-id sessions from successive runs on one open handle apart. *)
let session_seq = ref 0

let session ~id t =
  incr session_seq;
  let d =
    Filename.concat (staging_root t)
      (Printf.sprintf "s%d-%d" !session_seq id)
  in
  mkdir_p d;
  {
    ss_store = t;
    ss_dir = d;
    ss_staged = [];
    ss_staged_tbl = Hashtbl.create 16;
    ss_bad = Hashtbl.create 8;
    ss_hit_order = [];
    ss_invalidate = [];
    ss_probes = 0;
    ss_hits = 0;
    ss_misses = 0;
    ss_verify_fails = 0;
    ss_publishes = 0;
    ss_retries = 0;
  }

let store s = s.ss_store

(* Transient-IO retry accounting: the tiered runtime retries a probe or
   publish that hit an injected IO fault; each extra attempt is noted
   here so the merged store (and the [store.retries] gauge) can report
   how much resilience work the run did. *)
let note_retry s = s.ss_retries <- s.ss_retries + 1

type probe_result =
  | Hit of entry
  | Miss
  | Corrupt of string

let probe ?mangle s ~(target : Target.t) key =
  s.ss_probes <- s.ss_probes + 1;
  if Hashtbl.mem s.ss_bad key then begin
    (* Found corrupt earlier this session: the entry is as good as gone. *)
    s.ss_misses <- s.ss_misses + 1;
    Miss
  end
  else
    match Hashtbl.find_opt s.ss_staged_tbl key with
    | Some sg -> (
      (* Published by this session: serve from staging (covers a body
         evicted from memory and re-requested before the merge). *)
      match
        verified_payload ~key ~index_checksum:sg.sg_checksum
          (read_file (Filename.concat s.ss_dir sg.sg_file))
      with
      | Ok p ->
        s.ss_hits <- s.ss_hits + 1;
        Hit (entry_of_payload ~target p)
      | Error m ->
        s.ss_verify_fails <- s.ss_verify_fails + 1;
        Hashtbl.replace s.ss_bad key ();
        Corrupt m)
    | None -> (
      match Hashtbl.find_opt s.ss_store.t_tbl key with
      | Some r when r.ix_status = Valid -> (
        let path = Filename.concat (objects_dir s.ss_store) r.ix_file in
        let loaded =
          if not (Sys.file_exists path) then Error "entry file missing"
          else
            let bytes = read_file path in
            let bytes =
              match mangle with Some f -> f bytes | None -> bytes
            in
            verified_payload ~key ~index_checksum:r.ix_checksum bytes
        in
        match loaded with
        | Ok p ->
          s.ss_hits <- s.ss_hits + 1;
          s.ss_hit_order <- key :: s.ss_hit_order;
          Hit (entry_of_payload ~target p)
        | Error m ->
          s.ss_verify_fails <- s.ss_verify_fails + 1;
          Hashtbl.replace s.ss_bad key ();
          Corrupt m)
      | Some _ | None ->
        s.ss_misses <- s.ss_misses + 1;
        Miss)

let publish s key ~encoded (c : Compile.t) =
  let already_persisted =
    (not (Hashtbl.mem s.ss_bad key))
    && match Hashtbl.find_opt s.ss_store.t_tbl key with
       | Some r -> r.ix_status = Valid
       | None -> false
  in
  if (not already_persisted) && not (Hashtbl.mem s.ss_staged_tbl key) then begin
    let payload_bytes = Marshal.to_string (payload_of_compiled ~encoded c) [] in
    let file = file_of_key key in
    write_file_atomic
      (Filename.concat s.ss_dir file)
      (encode_entry key payload_bytes);
    let sg =
      {
        sg_key = key;
        sg_file = file;
        sg_bytes = String.length payload_bytes;
        sg_checksum = Md5.string payload_bytes;
      }
    in
    Hashtbl.replace s.ss_staged_tbl key sg;
    s.ss_staged <- sg :: s.ss_staged;
    s.ss_publishes <- s.ss_publishes + 1
  end

let defer_invalidate s ~from_target =
  s.ss_invalidate <- from_target :: s.ss_invalidate

let merge t sessions =
  (* 1. Stale targets quarantined first (Revec invalidation). *)
  let stale_targets =
    List.concat_map (fun s -> List.rev s.ss_invalidate) sessions
    |> List.sort_uniq compare
  in
  List.iter
    (fun from_target -> ignore (invalidate_target_rows t ~from_target))
    stale_targets;
  (* 2. Entries a probe found corrupt: pull them from service. *)
  List.iter
    (fun s ->
      Hashtbl.iter
        (fun key () ->
          match Hashtbl.find_opt t.t_tbl key with
          | Some r when r.ix_status = Valid -> quarantine_row t r
          | _ -> ())
        s.ss_bad)
    sessions;
  (* 3. Install staged entries; the first publisher of a key wins (the
     payload is deterministic per key, so later copies are identical). *)
  List.iter
    (fun s ->
      List.iter
        (fun sg ->
          let fresh_needed =
            match Hashtbl.find_opt t.t_tbl sg.sg_key with
            | Some r -> r.ix_status <> Valid
            | None -> true
          in
          let src = Filename.concat s.ss_dir sg.sg_file in
          if fresh_needed && Sys.file_exists src then begin
            (match Hashtbl.find_opt t.t_tbl sg.sg_key with
            | Some old -> drop_row t old (* replace a quarantined row *)
            | None -> ());
            Sys.rename src (Filename.concat (objects_dir t) sg.sg_file);
            t.t_next_tick <- t.t_next_tick + 1;
            Hashtbl.replace t.t_tbl sg.sg_key
              {
                ix_key = sg.sg_key;
                ix_file = sg.sg_file;
                ix_bytes = sg.sg_bytes;
                ix_checksum = sg.sg_checksum;
                ix_tick = t.t_next_tick;
                ix_status = Valid;
              };
            t.t_bytes <- t.t_bytes + sg.sg_bytes
          end
          else remove_if_exists src)
        (List.rev s.ss_staged))
    sessions;
  (* 4. LRU touches for this run's hits, in per-session hit order. *)
  List.iter
    (fun s ->
      List.iter
        (fun key ->
          match Hashtbl.find_opt t.t_tbl key with
          | Some r when r.ix_status = Valid ->
            t.t_next_tick <- t.t_next_tick + 1;
            Hashtbl.replace t.t_tbl key { r with ix_tick = t.t_next_tick }
          | _ -> ())
        (List.rev s.ss_hit_order))
    sessions;
  (* 5. Counters, budgets, cleanup, and the atomic index replace. *)
  List.iter
    (fun s ->
      t.t_probes <- t.t_probes + s.ss_probes;
      t.t_hits <- t.t_hits + s.ss_hits;
      t.t_misses <- t.t_misses + s.ss_misses;
      t.t_verify_fails <- t.t_verify_fails + s.ss_verify_fails;
      t.t_publishes <- t.t_publishes + s.ss_publishes;
      t.t_retries <- t.t_retries + s.ss_retries;
      remove_tree s.ss_dir)
    sessions;
  ignore (enforce_budget t);
  flush t
