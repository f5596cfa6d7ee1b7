(* The content-addressed artifact store and the staged-dataflow engine
   around it.

   The load-bearing properties: a warm re-run replays cached stage
   artifacts and produces results byte-identical to the cold run at any
   job count; editing one benchmark invalidates exactly its own
   downstream artifacts (sibling benchmarks, and even unaffected stages
   of the edited one, keep hitting); flipping a configuration knob
   re-keys only the stages that read it; and every run carries a span
   tree tagged with each stage's cache disposition. *)

module Recorder = Recorders.Recorder
module Config = Provmark.Config
module Runner = Provmark.Runner
module Result_ = Provmark.Result
module Store = Provmark.Artifact_store
module Stage = Provmark.Stage
module Span = Provmark.Trace_span
module Program = Oskernel.Program

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "provmark_store_test_%d_%d" (Unix.getpid ()) !dir_counter)

let with_store f =
  let store = Store.create ~dir:(fresh_dir ()) in
  f store

let config_with store tool = { (Config.default tool) with Config.store = Some store }

(* Everything observable about a result except wall-clock durations:
   what the byte-identical-reports guarantee quantifies over. *)
let view (r : Result_.t) =
  let graph_text tag = function
    | None -> tag ^ ":none"
    | Some g -> tag ^ ":" ^ Provmark.Transform.to_datalog ~gid:tag g
  in
  String.concat "\n"
    [
      r.Result_.benchmark;
      r.Result_.syscall;
      Recorder.tool_name r.Result_.tool;
      string_of_int r.Result_.trials;
      Result_.summary r;
      (match r.Result_.status with
      | Result_.Target g -> Provmark.Transform.to_datalog ~gid:"t" g
      | Result_.Empty -> "empty"
      | Result_.Failed e -> Result_.stage_error_to_string e);
      graph_text "bg" r.Result_.bg_general;
      graph_text "fg" r.Result_.fg_general;
    ]

(* ------------------------------------------------------------------ *)
(* Store unit behaviour                                                *)
(* ------------------------------------------------------------------ *)

let test_store_roundtrip () =
  with_store (fun store ->
      check_bool "missing is None" true (Store.read store ~stage:"s" ~key:"deadbeef" = None);
      Store.write store ~stage:"s" ~key:"deadbeef" "payload\x00with\nbinary";
      check_bool "roundtrips" true
        (Store.read store ~stage:"s" ~key:"deadbeef" = Some "payload\x00with\nbinary");
      Store.write store ~stage:"s" ~key:"deadbeef" "overwritten";
      check_bool "overwrite wins" true
        (Store.read store ~stage:"s" ~key:"deadbeef" = Some "overwritten"))

let test_store_keys () =
  let k = Store.key ~stage:"recording" ~fingerprint:"fp" ~inputs:[ "a"; "b" ] in
  check_string "deterministic" k (Store.key ~stage:"recording" ~fingerprint:"fp" ~inputs:[ "a"; "b" ]);
  let distinct =
    [
      Store.key ~stage:"comparison" ~fingerprint:"fp" ~inputs:[ "a"; "b" ];
      Store.key ~stage:"recording" ~fingerprint:"fp2" ~inputs:[ "a"; "b" ];
      Store.key ~stage:"recording" ~fingerprint:"fp" ~inputs:[ "a" ];
      Store.key ~stage:"recording" ~fingerprint:"fp" ~inputs:[ "ab" ];
      Store.key ~stage:"recording" ~fingerprint:"fp" ~inputs:[ "b"; "a" ];
    ]
  in
  List.iter (fun k' -> check_bool "sensitive to every component" false (k = k')) distinct;
  check_int "no collisions among variants" (List.length distinct)
    (List.length (List.sort_uniq compare distinct))

let test_store_stats () =
  with_store (fun store ->
      (* Keys spread over distinct shards; the stats must still merge
         into one per-stage view. *)
      Store.record store ~stage:"a" ~key:"0aaa" ~hit:true;
      Store.record store ~stage:"a" ~key:"fbbb" ~hit:false;
      Store.record store ~stage:"a" ~key:"7ccc" ~hit:true;
      Store.record store ~stage:"b" ~key:"0ddd" ~hit:false;
      Store.write store ~stage:"b" ~key:"k" "v";
      let totals = Store.totals store in
      check_int "hits" 2 totals.Store.hits;
      check_int "misses" 2 totals.Store.misses;
      check_int "stored" 1 totals.Store.stored;
      (match Store.hit_rate totals with
      | None -> Alcotest.fail "expected a hit rate"
      | Some rate -> check_bool "rate is 1/2" true (abs_float (rate -. 0.5) < 1e-9));
      Store.reset_stats store;
      check_bool "reset clears counters" true (Store.hit_rate (Store.totals store) = None))

(* Shard-lock stress: N domains write, record and read back entries
   whose keys deliberately overlap in shard prefix (the first hex digit
   selects the counter shard), so every shard's mutex and counter table
   sees genuinely concurrent use.  Every read-back must come out
   checksum-clean with its own payload — the atomic-rename write
   discipline means a reader never observes a torn entry — and the
   merged counters must equal the exact totals recorded. *)
let test_concurrent_shard_writers () =
  with_store (fun store ->
      let writers = 8 and per_writer = 48 in
      (* Same i → same first hex digit for every writer: all 8 domains
         hammer the same shard at roughly the same time, cycling
         through all 16 shards. *)
      let key w i = Printf.sprintf "%x%03d_w%d" (i mod 16) i w in
      let payload w i = Printf.sprintf "payload-%d-%d-%s" w i (String.make (i mod 61) 'x') in
      let worker w () =
        for i = 0 to per_writer - 1 do
          let k = key w i in
          Store.write store ~stage:"stress" ~key:k (payload w i);
          Store.record store ~stage:"stress" ~key:k ~hit:(i mod 2 = 0)
        done
      in
      let domains = List.init writers (fun w -> Domain.spawn (worker w)) in
      List.iter Domain.join domains;
      for w = 0 to writers - 1 do
        for i = 0 to per_writer - 1 do
          match Store.read store ~stage:"stress" ~key:(key w i) with
          | Some v -> check_string "clean read-back" (payload w i) v
          | None -> Alcotest.failf "lost or corrupt entry %s" (key w i)
        done
      done;
      let totals = Store.totals store in
      check_int "hits merged exactly" (writers * per_writer / 2) totals.Store.hits;
      check_int "misses merged exactly" (writers * per_writer / 2) totals.Store.misses;
      check_int "stores merged exactly" (writers * per_writer) totals.Store.stored;
      check_int "no write errors" 0 totals.Store.errors)

(* A toy stage exercises Stage.execute's cache protocol without the
   weight of the real pipeline. *)
let toy_runs = ref 0

let toy_stage : (int, int, string) Stage.t =
  {
    Stage.name = "toy";
    run =
      (fun _ctx n ->
        incr toy_runs;
        Ok (n * 2));
    encode = (fun r -> match r with Ok v -> string_of_int v | Error _ -> "error");
    decode =
      (fun s ->
        match int_of_string_opt s with
        | Some v -> Ok v
        | None -> failwith "corrupt toy artifact");
    digest = (fun v -> Store.digest (string_of_int v));
    shape = Stage.one;
  }

let execute_toy ?store n =
  let r, _span =
    Span.collect "test" (fun ctx ->
        Stage.execute ?store ~ctx ~fingerprint:"toyfp" ~inputs:[ string_of_int n ] toy_stage n)
  in
  match r with
  | Ok (v, d) ->
      check_string "carries the output digest" (Store.digest (string_of_int v)) d;
      v
  | Error _ -> Alcotest.fail "toy stage failed"

let test_stage_execute_hit_miss () =
  with_store (fun store ->
      toy_runs := 0;
      check_int "computes on miss" 14 (execute_toy ~store 7);
      check_int "replays on hit" 14 (execute_toy ~store 7);
      check_int "ran exactly once" 1 !toy_runs;
      check_int "distinct input misses" 16 (execute_toy ~store 8);
      check_int "ran again for new input" 2 !toy_runs;
      let totals = Store.totals store in
      check_int "one hit" 1 totals.Store.hits;
      check_int "two misses" 2 totals.Store.misses;
      (* Without a store the stage always computes and counts nothing. *)
      check_int "store off computes" 14 (execute_toy 7);
      check_int "store off ran" 3 !toy_runs;
      check_int "store off not counted" 1 (Store.totals store).Store.hits)

(* Each bad entry must be a miss that recomputes and heals: an
   undecodable payload, an entry with no digest line, one whose digest
   line is not hex, and one with the wrong number of digests. *)
let test_corrupt_artifact_recomputes () =
  with_store (fun store ->
      let key = Stage.cache_key toy_stage ~fingerprint:"toyfp" ~inputs:[ "21" ] in
      List.iter
        (fun (what, bad) ->
          ignore (execute_toy ~store 21);
          toy_runs := 0;
          Store.write store ~stage:"toy" ~key bad;
          check_int (what ^ ": falls back to compute") 42 (execute_toy ~store 21);
          check_int (what ^ ": recomputed") 1 !toy_runs;
          check_int (what ^ ": and repaired the entry") 42 (execute_toy ~store 21);
          check_int (what ^ ": repaired entry replays") 1 !toy_runs)
        [
          ("undecodable payload", Store.digest "42" ^ "\n!! not an integer !!");
          ("no digest line", "42");
          ("malformed digest", "not-a-digest\n42");
          ("digest of the wrong shape", Store.digest "42" ^ " " ^ Store.digest "42" ^ "\n42");
        ])

(* ------------------------------------------------------------------ *)
(* Monotonic clock                                                     *)
(* ------------------------------------------------------------------ *)

let test_monotonic_clock () =
  let rec go i last =
    if i < 1000 then begin
      let now = Span.now_ns () in
      check_bool "now_ns never decreases" true (Int64.compare now last >= 0);
      go (i + 1) now
    end
  in
  go 0 (Span.now_ns ());
  let a = Span.now_s () in
  let b = Span.now_s () in
  check_bool "now_s never decreases" true (b >= a)

(* ------------------------------------------------------------------ *)
(* Stable failure rendering                                            *)
(* ------------------------------------------------------------------ *)

let test_stage_error_rendering () =
  let err stage variant reason = { Result_.stage; variant; reason } in
  check_string "generalization with variant"
    "background generalization: no two trial runs produced similar graphs"
    (Result_.stage_error_to_string
       (err "generalization" (Some "background") Result_.No_consistent_pair));
  check_string "no trials" "foreground generalization: no trial graphs recorded"
    (Result_.stage_error_to_string (err "generalization" (Some "foreground") Result_.No_trials));
  check_string "transformation"
    "transformation: DOT: missing digraph header"
    (Result_.stage_error_to_string
       (err "transformation" None (Result_.Malformed_output "DOT: missing digraph header")));
  check_string "comparison"
    "comparison: background graph does not embed into the foreground graph"
    (Result_.stage_error_to_string (err "comparison" None Result_.Background_not_embeddable))

(* ------------------------------------------------------------------ *)
(* Warm re-runs: byte-identical at any -j, fully replayed              *)
(* ------------------------------------------------------------------ *)

let suite_progs = List.map Provmark.Bench_registry.find_exn [ "open"; "dup"; "fork"; "pipe" ]

(* Every artifact file under a store directory, as (stage, key). *)
let store_entries dir =
  let ls d = try Array.to_list (Sys.readdir d) with Sys_error _ -> [] in
  List.concat_map
    (fun stage ->
      List.concat_map
        (fun prefix ->
          List.filter_map
            (fun f ->
              if Filename.check_suffix f ".art" then Some (stage, Filename.chop_suffix f ".art")
              else None)
            (ls (Filename.concat (Filename.concat dir stage) prefix)))
        (ls (Filename.concat dir stage)))
    (ls dir)

let test_warm_rerun_identical_any_jobs () =
  with_store (fun store ->
      let config = config_with store Recorder.Spade in
      let cold = Provmark.Parallel_runner.run_all ~jobs:1 config suite_progs in
      (* The digests the cold run stored are the ones a recompute from
         the decoded artifacts gives. *)
      let entries = store_entries (Store.dir store) in
      check_bool "the cold run wrote every stage" true
        (List.sort_uniq compare (List.map fst entries)
        = [ "comparison"; "generalization"; "recording"; "transformation" ]);
      List.iter
        (fun (stage, key) ->
          match Store.read store ~stage ~key with
          | None -> Alcotest.failf "unreadable %s entry %s" stage key
          | Some contents ->
              check_bool
                (Printf.sprintf "%s entry %s carries its output digest" stage key)
                true
                (Provmark.Pipeline.audit_entry config ~stage contents))
        entries;
      Store.reset_stats store;
      List.iter
        (fun jobs ->
          Pgraph.Canon.clear ();
          Pgraph.Canon.reset_stats ();
          let warm = Provmark.Parallel_runner.run_all ~jobs config suite_progs in
          (* Keys come from the stored digests: a fully warm pass
             computes no canonical form and asks the cache for none. *)
          check_bool
            (Printf.sprintf "warm(j=%d) canonicalizes nothing" jobs)
            true
            (Pgraph.Canon.stats () = (0, 0));
          List.iter2
            (fun c w ->
              check_string (Printf.sprintf "warm(j=%d) equals cold" jobs) (view c) (view w))
            cold warm)
        [ 1; 2; 4 ];
      let totals = Store.totals store in
      check_int "warm runs recompute nothing" 0 totals.Store.misses;
      match Store.hit_rate totals with
      | None -> Alcotest.fail "no stage executions recorded"
      | Some rate -> check_bool "every stage execution replayed" true (rate = 1.0))

let test_warm_hit_rate_per_stage () =
  with_store (fun store ->
      let config = config_with store Recorder.Camflow in
      let _cold = Runner.run config (Provmark.Bench_registry.find_exn "open") in
      Store.reset_stats store;
      let _warm = Runner.run config (Provmark.Bench_registry.find_exn "open") in
      List.iter
        (fun stage ->
          match List.assoc_opt stage (Store.stats store) with
          | None -> Alcotest.failf "no executions recorded for %s" stage
          | Some s ->
              check_int (stage ^ " no misses") 0 s.Store.misses;
              check_bool (stage ^ " hit") true (s.Store.hits > 0))
        [ "recording"; "transformation"; "generalization"; "comparison" ])

(* ------------------------------------------------------------------ *)
(* Precise invalidation                                                *)
(* ------------------------------------------------------------------ *)

let open_bench = Provmark.Bench_registry.find_exn "open"
let dup_bench = Provmark.Bench_registry.find_exn "dup"

(* The same benchmark with one extra target syscall: same name, same
   setup (so the background variant records identically), different
   foreground behaviour. *)
let edited_open =
  {
    open_bench with
    Program.target =
      open_bench.Program.target
      @ [ Oskernel.Syscall.Creat { path = "/staging/extra_edited.txt"; ret = "edit_fd" } ];
  }

let test_edit_invalidates_only_downstream () =
  with_store (fun store ->
      let config = config_with store Recorder.Spade in
      ignore (Runner.run config open_bench);
      ignore (Runner.run config dup_bench);
      (* An untouched sibling replays fully. *)
      Store.reset_stats store;
      ignore (Runner.run config dup_bench);
      check_int "sibling misses nothing" 0 (Store.totals store).Store.misses;
      (* The edited benchmark recomputes its chain — except the
         background generalization, whose input graphs are unchanged
         (the edit only touched the foreground body). *)
      Store.reset_stats store;
      ignore (Runner.run config edited_open);
      let stat stage =
        match List.assoc_opt stage (Store.stats store) with
        | Some s -> s
        | None -> Alcotest.failf "no executions recorded for %s" stage
      in
      check_int "recording recomputed" 1 (stat "recording").Store.misses;
      check_int "transformation recomputed" 1 (stat "transformation").Store.misses;
      check_int "comparison recomputed" 1 (stat "comparison").Store.misses;
      let gen = stat "generalization" in
      check_int "foreground generalization recomputed" 1 gen.Store.misses;
      check_int "background generalization replayed" 1 gen.Store.hits)

(* The matching fingerprint is part of every generalization and
   comparison key; these strings are the ones stores already on disk
   were written under, so any change to the rendering orphans them. *)
let test_backend_fp_pinned () =
  let base = Config.default Recorder.Spade in
  let fp f = Config.backend_fp { base with Config.opts = f base.Config.opts } in
  let pin expected f = check_string expected expected (fp f) in
  pin "direct,prune=true,fallback=true,canon=true,segment=on@64" Fun.id;
  pin "direct,prune=false,fallback=true,canon=true,segment=on@64" (fun o ->
      { o with Gmatch.Match_opts.prune = false });
  pin "direct,prune=true,fallback=false,canon=true,segment=on@64" (fun o ->
      { o with Gmatch.Match_opts.fallback = false });
  pin "direct,prune=true,fallback=true,canon=false,segment=on@64" (fun o ->
      { o with Gmatch.Match_opts.canon = false });
  pin "direct,prune=true,fallback=true,canon=true,segment=off" (fun o ->
      { o with Gmatch.Match_opts.segment_min_nodes = None });
  pin "direct,prune=true,fallback=true,canon=true,segment=on@0" (fun o ->
      { o with Gmatch.Match_opts.segment_min_nodes = Some 0 });
  (* The memo never changes an answer, so it stays out of the key. *)
  pin "direct,prune=true,fallback=true,canon=true,segment=on@64" (fun o ->
      { o with Gmatch.Match_opts.memo = false });
  check_string "generalization fingerprint"
    "backend=direct,prune=true,fallback=true,canon=true,segment=on@64;filter=false;pair=smallest"
    (Config.generalization_fingerprint base);
  check_string "transformation fingerprint" "canon=true" (Config.transformation_fingerprint base);
  check_string "transformation fingerprint, canon off" "canon=false"
    (Config.transformation_fingerprint
       { base with Config.opts = { base.Config.opts with Gmatch.Match_opts.canon = false } });
  check_string "comparison fingerprint"
    "backend=incremental,prune=true,fallback=true,canon=true,segment=on@64"
    (Config.comparison_fingerprint { base with Config.backend = Gmatch.Engine.Incremental });
  (* "auto" and "vf2" are aliases of the native cascade: same key. *)
  List.iter
    (fun alias ->
      check_string alias "direct,prune=true,fallback=true,canon=true,segment=on@64"
        (Config.backend_fp
           { base with Config.backend = Result.get_ok (Gmatch.Engine.backend_of_string alias) }))
    [ "auto"; "vf2" ]

let test_knob_flip_invalidates_only_readers () =
  with_store (fun store ->
      let config tool backend = { (config_with store tool) with Config.backend } in
      ignore (Runner.run (config Recorder.Spade Gmatch.Engine.Direct) open_bench);
      Store.reset_stats store;
      (* The matching backend is read by generalization and comparison
         only: recording and transformation artifacts stay valid. *)
      ignore (Runner.run (config Recorder.Spade Gmatch.Engine.Incremental) open_bench);
      let stat stage =
        match List.assoc_opt stage (Store.stats store) with
        | Some s -> s
        | None -> Alcotest.failf "no executions recorded for %s" stage
      in
      check_int "recording replayed" 1 (stat "recording").Store.hits;
      check_int "transformation replayed" 1 (stat "transformation").Store.hits;
      check_int "generalizations recomputed" 2 (stat "generalization").Store.misses;
      check_int "comparison recomputed" 1 (stat "comparison").Store.misses;
      (* Canon off changes the kind of digest the transformation stage
         stores (plain instead of canonical), so that stage must
         recompute rather than hand canon-on digests to canon-off
         keys; the recordings do not depend on it and replay. *)
      let canon_off c =
        { c with Config.opts = { c.Config.opts with Gmatch.Match_opts.canon = false } }
      in
      let storeless =
        Runner.run
          (canon_off { (Config.default Recorder.Spade) with Config.backend = Gmatch.Engine.Direct })
          open_bench
      in
      Store.reset_stats store;
      let off = Runner.run (canon_off (config Recorder.Spade Gmatch.Engine.Direct)) open_bench in
      check_int "canon off: recording replayed" 1 (stat "recording").Store.hits;
      check_int "canon off: transformation recomputed" 1 (stat "transformation").Store.misses;
      check_int "canon off: generalizations recomputed" 2 (stat "generalization").Store.misses;
      check_int "canon off: comparison recomputed" 1 (stat "comparison").Store.misses;
      check_string "canon off equals a store-less run" (view storeless) (view off);
      Store.reset_stats store;
      let off_warm = Runner.run (canon_off (config Recorder.Spade Gmatch.Engine.Direct)) open_bench in
      check_int "canon off replays warm" 0 (Store.totals store).Store.misses;
      check_string "canon off warm equals a store-less run" (view storeless) (view off_warm))

(* ------------------------------------------------------------------ *)
(* Span trees                                                          *)
(* ------------------------------------------------------------------ *)

let stage_names = [ "recording"; "transformation"; "generalization"; "comparison" ]

let test_span_tree_and_cache_tags () =
  with_store (fun store ->
      let config = config_with store Recorder.Spade in
      let cold = Runner.run config open_bench in
      let warm = Runner.run config open_bench in
      check_string "root span" "run" cold.Result_.span.Span.name;
      check_bool "root tagged with benchmark" true
        (Span.tag cold.Result_.span "benchmark" = Some "cmdOpen");
      check_bool "has an attempt" true (Span.find_all cold.Result_.span "attempt" <> []);
      List.iter
        (fun stage ->
          let tags_of r =
            List.map (fun s -> Span.tag s "cache") (Span.find_all r.Result_.span stage)
          in
          check_bool (stage ^ " spans exist") true (tags_of cold <> []);
          check_bool (stage ^ " cold is all misses") true
            (List.for_all (( = ) (Some "miss")) (tags_of cold));
          check_bool (stage ^ " warm is all hits") true
            (List.for_all (( = ) (Some "hit")) (tags_of warm)))
        stage_names;
      (* Without a store, stages are tagged cache=off. *)
      let off = Runner.run (Config.default Recorder.Spade) open_bench in
      List.iter
        (fun stage ->
          check_bool (stage ^ " untagged without store") true
            (List.for_all
               (fun s -> Span.tag s "cache" = Some "off")
               (Span.find_all off.Result_.span stage)))
        stage_names)

let test_times_derive_from_spans () =
  let r = Runner.run (Config.default Recorder.Spade) open_bench in
  let t = Result_.times r in
  List.iter2
    (fun stage value ->
      check_bool (stage ^ " matches span sum") true
        (abs_float (Span.sum_duration_s r.Result_.span stage -. value) < 1e-12))
    stage_names
    [
      t.Result_.recording_s;
      t.Result_.transformation_s;
      t.Result_.generalization_s;
      t.Result_.comparison_s;
    ];
  check_bool "durations non-negative" true (Result_.total_time t >= 0.);
  check_bool "root covers the stages" true
    (Span.duration_s r.Result_.span >= Result_.total_time t)

let () =
  Alcotest.run "store"
    [
      ( "store",
        [
          Alcotest.test_case "read/write roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "key sensitivity" `Quick test_store_keys;
          Alcotest.test_case "stats counters" `Quick test_store_stats;
          Alcotest.test_case "stage execute hit/miss" `Quick test_stage_execute_hit_miss;
          Alcotest.test_case "corrupt artifact recomputes" `Quick test_corrupt_artifact_recomputes;
          Alcotest.test_case "concurrent shard writers" `Quick test_concurrent_shard_writers;
        ] );
      ( "clock",
        [
          Alcotest.test_case "monotonic" `Quick test_monotonic_clock;
          Alcotest.test_case "stable failure rendering" `Quick test_stage_error_rendering;
        ] );
      ( "warm",
        [
          Alcotest.test_case "byte-identical at any -j" `Quick test_warm_rerun_identical_any_jobs;
          Alcotest.test_case "every stage replays" `Quick test_warm_hit_rate_per_stage;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "edit hits only its own chain" `Quick
            test_edit_invalidates_only_downstream;
          Alcotest.test_case "knob flip hits only readers" `Quick
            test_knob_flip_invalidates_only_readers;
          Alcotest.test_case "backend fingerprint rendering pinned" `Quick test_backend_fp_pinned;
        ] );
      ( "spans",
        [
          Alcotest.test_case "tree shape and cache tags" `Quick test_span_tree_and_cache_tags;
          Alcotest.test_case "times derive from spans" `Quick test_times_derive_from_spans;
        ] );
    ]
