(* Bump when the artifact encoding or key construction changes shape:
   stale entries then miss instead of decoding garbage.  v4: every
   entry leads with its stage's output digest line (see [Stage]), so a
   pre-v4 store is recomputed once and rewritten. *)
let format_version = "4"

type stats = { hits : int; misses : int; stored : int; errors : int }

(* The store's mutable state (stat counters, and the lock concurrent
   writers of one key range serialize their bookkeeping under) is split
   into shards addressed by key prefix: writers whose keys land in
   different shards never contend on a lock, which matters once the
   serve daemon has many domains writing through one store.  The
   on-disk layout was already prefix-sharded (<stage>/<prefix>/<key>);
   the lock layout now matches it.  Keys are uniform hex digests, so
   the first nibble spreads load evenly. *)
let shard_count = 16

type shard = {
  mutex : Mutex.t;
  counters : (string, int ref * int ref * int ref * int ref) Hashtbl.t;
}

type t = { dir : string; shards : shard array }

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    let parent = Filename.dirname path in
    if String.length parent < String.length path then mkdir_p parent;
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let invalid_store fmt = Printf.ksprintf (fun m -> raise (Sys_error m)) fmt

(* Validate the directory up front — one clear error at startup beats a
   per-stage write failure deep inside the suite.  Probing with a real
   temp file catches read-only mounts and permission problems that a
   successful mkdir would hide. *)
let create ~dir =
  (try mkdir_p dir with
  | Unix.Unix_error (e, _, path) ->
      invalid_store "artifact store %s: cannot create %s (%s)" dir path (Unix.error_message e)
  | Sys_error m -> invalid_store "artifact store %s: %s" dir m);
  if not (Sys.file_exists dir) then invalid_store "artifact store %s: could not be created" dir;
  if not (Sys.is_directory dir) then invalid_store "artifact store %s is not a directory" dir;
  (match Filename.temp_file ~temp_dir:dir ".probe" ".tmp" with
  | probe -> ( try Sys.remove probe with Sys_error _ -> ())
  | exception Sys_error m -> invalid_store "artifact store %s is not writable (%s)" dir m);
  {
    dir;
    shards =
      Array.init shard_count (fun _ ->
          { mutex = Mutex.create (); counters = Hashtbl.create 8 });
  }

let dir t = t.dir

let digest s = Digest.to_hex (Digest.string s)

let key ~stage ~fingerprint ~inputs =
  (* The fault-plan fingerprint participates in every key: a run under
     an active fault plan reads and writes a disjoint key space, so
     injected faults can neither poison the clean cache nor be papered
     over by it — and a faulted re-run still replays its own artifacts
     byte-identically. *)
  digest
    (String.concat "\x00"
       (("provmark-artifact-v" ^ format_version)
       :: Faults.Injector.fingerprint () :: stage :: fingerprint :: inputs))

(* Generated inputs are stage artifacts whose "computation" is the
   generator itself, so the key covers everything the bytes are a pure
   function of: the generator name/version, the canonical spec string,
   and the (seed, run, format) coordinates.  The [key] plumbing folds
   in the store format version and fault-plan fingerprint as for any
   other stage. *)
let generated_input_key ~generator ~spec ~seed ~run ~format =
  key ~stage:"corpus" ~fingerprint:generator
    ~inputs:[ spec; string_of_int seed; string_of_int run; format ]

let graph_digest g =
  digest
    (Pgraph.Fingerprint.to_hex (Pgraph.Fingerprint.of_graph g)
    ^ "\x00"
    ^ Datalog.Encode.graph_to_string ~gid:"d" g)

(* Rename-invariant variant used for stage keys downstream of
   generalization: digesting the canonically relabelled rendering lets
   a re-run whose recorder handed out fresh ids replay the solve-heavy
   stages warm.  The "canon" prefix keeps the keyspace disjoint from
   [graph_digest] (which [Config.backend_fp]'s canon field separates
   again at the key level). *)
let canonical_graph_digest ?(opts = Gmatch.Match_opts.default) g =
  match if opts.Gmatch.Match_opts.canon then Pgraph.Canon.form g else None with
  | Some f ->
      digest ("canon\x00" ^ Datalog.Encode.graph_to_string ~gid:"d" (Pgraph.Canon.relabel g f))
  | None -> graph_digest g

(* <dir>/<stage>/<key prefix>/<key>.art keeps directories small without
   hashing twice; the key is already a uniform hex digest. *)
let path_of t ~stage ~key =
  let prefix = if String.length key >= 2 then String.sub key 0 2 else key in
  Filename.concat (Filename.concat (Filename.concat t.dir stage) prefix) (key ^ ".art")

(* Hex digit → shard index; non-hex (impossible for real keys, which
   are hex digests) degrades to shard 0. *)
let shard_for t key =
  let i =
    if String.length key = 0 then 0
    else
      match key.[0] with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> 10 + Char.code c - Char.code 'a'
      | 'A' .. 'F' as c -> 10 + Char.code c - Char.code 'A'
      | _ -> 0
  in
  t.shards.(i mod Array.length t.shards)

let with_shard_lock shard f =
  Mutex.lock shard.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock shard.mutex) f

let counter_of shard stage =
  match Hashtbl.find_opt shard.counters stage with
  | Some c -> c
  | None ->
      let c = (ref 0, ref 0, ref 0, ref 0) in
      Hashtbl.replace shard.counters stage c;
      c

let record_error t ~key stage =
  let shard = shard_for t key in
  with_shard_lock shard (fun () ->
      let _, _, _, errors = counter_of shard stage in
      incr errors)

(* Entries are sealed with a leading checksum line (MD5 of the payload).
   Flipped bytes or a torn write cannot be left to the JSON decoder to
   notice — garbled JSON often still parses, just to a *different*
   value, which would silently change a warm run's output.  A checksum
   mismatch is a detected miss: the stage recomputes and the rewrite
   heals the entry. *)
let seal payload = digest payload ^ "\n" ^ payload

let unseal contents =
  let n = String.length contents in
  if n < 33 || contents.[32] <> '\n' then None
  else
    let payload = String.sub contents 33 (n - 33) in
    if String.equal (String.sub contents 0 32) (digest payload) then Some payload else None

let read t ~stage ~key =
  match Faults.Injector.store_fault ~site:(Printf.sprintf "store:read:%s:%s" stage key) with
  | Some Faults.Plan.Eio ->
      (* Transient read error: degrade to a miss and recompute. *)
      record_error t ~key stage;
      None
  | fault -> (
      let path = path_of t ~stage ~key in
      match In_channel.with_open_bin path In_channel.input_all with
      | exception Sys_error _ -> None
      | contents -> (
          let contents =
            match (fault, Faults.Injector.plan ()) with
            (* At-rest corruption, applied to the sealed bytes: the
               checksum rejects the entry below. *)
            | Some Faults.Plan.Corrupt, Some plan ->
                Faults.Injector.garble plan ~site:("store:entry:" ^ key) contents
            | _ -> contents
          in
          match unseal contents with
          | Some payload -> Some payload
          | None ->
              record_error t ~key stage;
              None))

let write t ~stage ~key contents =
  let site op = Printf.sprintf "store:%s:%s:%s" op stage key in
  match Faults.Injector.store_fault ~site:(site "write") with
  | Some Faults.Plan.Eio ->
      (* Write dropped on the floor: the entry stays cold, later runs
         miss and recompute.  Caching is best-effort by contract. *)
      record_error t ~key stage
  | fault -> (
      let contents =
        let sealed = seal contents in
        match (fault, Faults.Injector.plan ()) with
        (* A torn write truncates the sealed bytes, exactly as a torn
           file would look on disk; the read side's checksum rejects
           what remains. *)
        | Some Faults.Plan.Partial_write, Some plan ->
            Faults.Injector.truncate plan ~site:(site "partial") sealed
        | _ -> sealed
      in
      let path = path_of t ~stage ~key in
      match
        mkdir_p (Filename.dirname path);
        let tmp = Filename.temp_file ~temp_dir:(Filename.dirname path) ".art" ".tmp" in
        (try
           Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc contents);
           Sys.rename tmp path
         with e ->
           (try Sys.remove tmp with Sys_error _ -> ());
           raise e)
      with
      | () ->
          let shard = shard_for t key in
          with_shard_lock shard (fun () ->
              let _, _, stored, _ = counter_of shard stage in
              incr stored)
      | exception (Sys_error _ | Unix.Unix_error _) ->
          (* A store that stops accepting writes must not take the
             pipeline down with it: count the error and move on
             uncached. *)
          record_error t ~key stage)

let record t ~stage ~key ~hit =
  let shard = shard_for t key in
  with_shard_lock shard (fun () ->
      let hits, misses, _, _ = counter_of shard stage in
      incr (if hit then hits else misses))

(* Counters merge across shards at read time: per-stage totals are what
   reports want, the sharding is purely a contention measure. *)
let stats t =
  let merged : (string, int * int * int * int) Hashtbl.t = Hashtbl.create 8 in
  Array.iter
    (fun shard ->
      with_shard_lock shard (fun () ->
          Hashtbl.iter
            (fun stage (h, m, s, e) ->
              let h0, m0, s0, e0 =
                Option.value ~default:(0, 0, 0, 0) (Hashtbl.find_opt merged stage)
              in
              Hashtbl.replace merged stage (h0 + !h, m0 + !m, s0 + !s, e0 + !e))
            shard.counters))
    t.shards;
  List.sort compare
    (Hashtbl.fold
       (fun stage (h, m, s, e) acc ->
         (stage, { hits = h; misses = m; stored = s; errors = e }) :: acc)
       merged [])

let totals t =
  List.fold_left
    (fun acc (_, s) ->
      {
        hits = acc.hits + s.hits;
        misses = acc.misses + s.misses;
        stored = acc.stored + s.stored;
        errors = acc.errors + s.errors;
      })
    { hits = 0; misses = 0; stored = 0; errors = 0 }
    (stats t)

let hit_rate s =
  let total = s.hits + s.misses in
  if total = 0 then None else Some (float_of_int s.hits /. float_of_int total)

let reset_stats t =
  Array.iter
    (fun shard -> with_shard_lock shard (fun () -> Hashtbl.reset shard.counters))
    t.shards
