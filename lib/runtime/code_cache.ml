(* Bounded LRU cache of compiled kernel bodies, keyed by bytecode content
   digest x target x profile.  See the .mli for the model. *)

module B = Vapor_vecir.Bytecode
module Encode = Vapor_vecir.Encode
module Target = Vapor_targets.Target
module Profile = Vapor_jit.Profile
module Compile = Vapor_jit.Compile

type entry = {
  e_key : Digest.key;
  e_compiled : Compile.t;
  e_vk : B.vkernel;  (* kept for target rejuvenation *)
  e_vk_bytes : int;  (* its encoded size *)
  e_profile : Profile.t;
  e_bytes : int;
  mutable e_tick : int;  (* LRU clock value of the last use *)
}

type evict_reason =
  | Lru
  | Replaced
  | Invalidated

type t = {
  max_entries : int;
  max_bytes : int;
  st : Stats.t;
  tbl : (Digest.key, entry) Hashtbl.t;
  mutable tick : int;
  mutable bytes : int;
  mutable on_evict : evict_reason -> Digest.key -> unit;
  mutable real_compiles : int;
      (* actual Compile.compile calls, as opposed to bodies installed
         from a persistent store; a plain field (not a Stats counter) so
         warm runs keep reports byte-identical to cold ones *)
}

let create ?stats ?(max_entries = max_int) ?(max_bytes = max_int) () =
  {
    max_entries = max 1 max_entries;
    max_bytes = max 1 max_bytes;
    st = (match stats with Some s -> s | None -> Stats.create ());
    tbl = Hashtbl.create 64;
    tick = 0;
    bytes = 0;
    on_evict = (fun _ _ -> ());
    real_compiles = 0;
  }

let set_on_evict t f = t.on_evict <- f
let real_compiles t = t.real_compiles
let note_real_compile t = t.real_compiles <- t.real_compiles + 1

type outcome =
  | Hit
  | Miss

let touch t e =
  t.tick <- t.tick + 1;
  e.e_tick <- t.tick

(* Modeled resident footprint of one entry: the bytecode we retain for
   rejuvenation plus ~4 bytes per emitted machine instruction. *)
let entry_bytes ~vk_bytes (c : Compile.t) =
  vk_bytes + (4 * Array.length c.Compile.mfun.Vapor_machine.Mfun.instrs)

let remove_entry t e =
  Hashtbl.remove t.tbl e.e_key;
  t.bytes <- t.bytes - e.e_bytes

(* Evict least-recently-used entries until budgets hold.  A single entry
   larger than max_bytes is allowed to stay (there is nothing smaller to
   keep instead). *)
let enforce_budget t =
  let over () =
    Hashtbl.length t.tbl > t.max_entries
    || (t.bytes > t.max_bytes && Hashtbl.length t.tbl > 1)
  in
  while over () do
    let lru =
      Hashtbl.fold
        (fun _ e acc ->
          match acc with
          | Some b when b.e_tick <= e.e_tick -> acc
          | _ -> Some e)
        t.tbl None
    in
    match lru with
    | None -> assert false (* over () implies a non-empty table *)
    | Some e ->
      remove_entry t e;
      Stats.incr t.st "cache.evictions";
      t.on_evict Lru e.e_key
  done

let insert t key vk ~vk_bytes profile compiled =
  let e =
    {
      e_key = key;
      e_compiled = compiled;
      e_vk = vk;
      e_vk_bytes = vk_bytes;
      e_profile = profile;
      e_bytes = entry_bytes ~vk_bytes compiled;
      e_tick = 0;
    }
  in
  touch t e;
  (match Hashtbl.find_opt t.tbl key with
  | Some old ->
    remove_entry t old;
    t.on_evict Replaced old.e_key
  | None -> ());
  Hashtbl.replace t.tbl key e;
  t.bytes <- t.bytes + e.e_bytes;
  Stats.incr t.st "cache.fills";
  enforce_budget t

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
    touch t e;
    Stats.incr t.st "cache.hits";
    Some e.e_compiled
  | None ->
    Stats.incr t.st "cache.misses";
    None

let remove t key =
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
    remove_entry t e;
    true
  | None -> false

let find_or_compile ?(known_aligned = fun _ -> true) t ~(target : Target.t)
    ~(profile : Profile.t) (vk : B.vkernel) =
  let encoded = Encode.encode vk in
  let key =
    {
      Digest.k_digest = Digest.of_encoded encoded;
      k_target = target.Target.name;
      k_profile = profile.Profile.name;
    }
  in
  match find t key with
  | Some compiled -> compiled, Hit
  | None ->
    let compiled = Compile.compile ~known_aligned ~target ~profile vk in
    note_real_compile t;
    Stats.observe t.st "cache.compile_us" compiled.Compile.compile_time_us;
    insert t key vk ~vk_bytes:(String.length encoded) profile compiled;
    compiled, Miss

let invalidate_target t ~(from_target : Target.t) ~(to_target : Target.t) =
  let stale =
    Hashtbl.fold
      (fun _ e acc ->
        if String.equal e.e_key.Digest.k_target from_target.Target.name then
          e :: acc
        else acc)
      t.tbl []
  in
  let relowered =
    List.fold_left
      (fun n e ->
        remove_entry t e;
        (* The fix for the silent-drop bug: stale entries now leave a
           stats trace and fire the hook, whether or not they relower. *)
        Stats.incr t.st "cache.invalidations";
        t.on_evict Invalidated e.e_key;
        let key =
          { e.e_key with Digest.k_target = to_target.Target.name }
        in
        if Hashtbl.mem t.tbl key then n (* fresh code already present *)
        else
          match
            Compile.compile_checked ~target:to_target ~profile:e.e_profile
              e.e_vk
          with
          | Ok compiled ->
            note_real_compile t;
            insert t key e.e_vk ~vk_bytes:e.e_vk_bytes e.e_profile compiled;
            Stats.incr t.st "cache.rejuvenations";
            n + 1
          | Error _ ->
            (* Unloweable for the new target: drop the stale body; the
               tiered runtime recompiles (or interprets) on next use. *)
            n)
      0 stale
  in
  enforce_budget t;
  relowered

let entry_count t = Hashtbl.length t.tbl
let byte_count t = t.bytes
let hits t = Stats.counter t.st "cache.hits"
let misses t = Stats.counter t.st "cache.misses"
let evictions t = Stats.counter t.st "cache.evictions"
let fills t = Stats.counter t.st "cache.fills"
let rejuvenations t = Stats.counter t.st "cache.rejuvenations"
let invalidations t = Stats.counter t.st "cache.invalidations"

let hit_rate t =
  let h = hits t and m = misses t in
  if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)

let stats t = t.st

let clear t =
  Hashtbl.reset t.tbl;
  t.bytes <- 0

(* --- checkpoint snapshot ------------------------------------------------
   A deep copy of the mutable cache state.  Entry records are copied
   (their [e_tick] mutates on every touch); the compiled bodies and
   bytecode inside are immutable and shared.  [on_evict] is a live
   closure and deliberately NOT part of the snapshot — restore keeps the
   destination cache's own hook. *)

type snap = {
  sn_entries : entry list;
  sn_tick : int;
  sn_bytes : int;
  sn_real_compiles : int;
}

let snapshot t =
  {
    sn_entries =
      Hashtbl.fold (fun _ e acc -> { e with e_tick = e.e_tick } :: acc)
        t.tbl [];
    sn_tick = t.tick;
    sn_bytes = t.bytes;
    sn_real_compiles = t.real_compiles;
  }

(* Counter-silent: restoring entries must not bump fills/hits — the
   restored registry snapshot already carries the counts as of the
   checkpoint. *)
let restore t sn =
  Hashtbl.reset t.tbl;
  List.iter
    (fun e -> Hashtbl.replace t.tbl e.e_key { e with e_tick = e.e_tick })
    sn.sn_entries;
  t.tick <- sn.sn_tick;
  t.bytes <- sn.sn_bytes;
  t.real_compiles <- sn.sn_real_compiles

(* Digest-level view of a snapshot for the on-disk checkpoint artifact:
   (digest hex short, target, profile, modeled bytes, LRU tick), sorted
   for deterministic encoding. *)
let snap_rows sn =
  List.map
    (fun e ->
      ( Digest.short e.e_key.Digest.k_digest,
        e.e_key.Digest.k_target,
        e.e_key.Digest.k_profile,
        e.e_bytes,
        e.e_tick ))
    sn.sn_entries
  |> List.sort compare
