(* The repository benchmark.

   [bench.exe --workload W --seed S --seconds T --trace 0|1 --cli EXE
   --work DIR] runs one workload for T seconds and prints, as its last
   line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
   With [--trace 0] the metrics are the end-to-end ones, from a
   stopwatch around each operation.  With [--trace 1] they are the
   per-layer ones, taken by timing calls into each layer's
   public functions from this file, plus the public stats counters and
   the serve [stats] op.  WORKLOADS.md says why each
   workload exists and which layer metric should move which end-to-end
   metric.

   Every answer is checked against a value known without running the
   code under test: the paper's Table 2 for suite cells and serve
   benchmark requests, the generator's construction for synthetic
   benchmarks, and an independent recount for serve match witnesses.
   Each run also plants a wrong expectation into every checker it uses
   and requires the checker to reject it. *)

module J = Minijson.Json
module Span = Provmark.Trace_span
module Config = Provmark.Config
module Result = Provmark.Result
module Store = Provmark.Artifact_store
module Registry = Provmark.Bench_registry
module Graph = Pgraph.Graph
module Props = Pgraph.Props
module Provgen = Pgraph.Provgen
module Protocol = Serve.Protocol
module Client = Serve.Client

let now = Span.now_s

(* ------------------------------------------------------------------ *)
(* Statistics and process readings                                     *)

(* Linear interpolation between closest ranks (numpy's default). *)
let percentile p xs =
  match xs with
  | [] -> 0.
  | _ ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let r = p /. 100. *. float_of_int (Array.length a - 1) in
      let lo = int_of_float r in
      let hi = min (Array.length a - 1) (lo + 1) in
      a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile 50. xs
let sum = List.fold_left ( +. ) 0.

(* A field of /proc/<pid>/status, in kB. *)
let status_kb pid field =
  let text =
    In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid) In_channel.input_all
  in
  let prefix = field ^ ":" in
  match
    List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' text)
  with
  | None -> failwith (Printf.sprintf "no %s in /proc/%s/status" field pid)
  | Some line ->
      let rest = String.sub line (String.length prefix) (String.length line - String.length prefix) in
      Scanf.sscanf rest " %f" Fun.id

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let mkdir_fresh path =
  rm_rf path;
  Unix.mkdir path 0o755;
  path

(* ------------------------------------------------------------------ *)
(* Outcome bookkeeping                                                 *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  by_op : (string, float list) Hashtbl.t;
      (** latencies in seconds per operation, since the suites repeat a
          fixed set of them; provgen-scale files them by size, the serve
          loop every request under one key *)
}

let new_tally () = { attempted = 0; failed = 0; by_op = Hashtbl.create 256 }

(* The first few failures are printed; the rest are only counted. *)
let reported = ref 0

let record tally ~op ~lat verdict =
  tally.attempted <- tally.attempted + 1;
  Hashtbl.replace tally.by_op op (lat :: Option.value (Hashtbl.find_opt tally.by_op op) ~default:[]);
  match verdict with
  | Ok () -> ()
  | Error why ->
      tally.failed <- tally.failed + 1;
      if !reported < 5 then (
        incr reported;
        Printf.eprintf "perfbench: wrong or failed operation: %s\n%!" why)

let merge_into t u =
  t.attempted <- t.attempted + u.attempted;
  t.failed <- t.failed + u.failed;
  Hashtbl.iter
    (fun op l ->
      Hashtbl.replace t.by_op op (l @ Option.value (Hashtbl.find_opt t.by_op op) ~default:[]))
    u.by_op

(* Wrong answers during set-up, and failures of the run's own
   machinery (a daemon that does not shut down cleanly), make the run
   incorrect even when every timed answer held. *)
let run_errors = ref []

(* Planted-answer self-test: on one real answer, every checker must
   accept the true expectation and reject a planted wrong one, or the
   run is not [correct]. *)
let self_test_failures = ref []

let self_test name ~real ~planted =
  match (real, planted) with
  | Ok (), Error _ -> ()
  | _ -> self_test_failures := name :: !self_test_failures

(* ------------------------------------------------------------------ *)
(* Per-layer accumulation (traced runs only)                           *)

let layer : (string, float) Hashtbl.t = Hashtbl.create 64

let add name v =
  Hashtbl.replace layer name (v +. Option.value (Hashtbl.find_opt layer name) ~default:0.)

let get name = Option.value (Hashtbl.find_opt layer name) ~default:0.

(* [timed_into name f] runs [f], adding its duration in ms to [name]. *)
let timed_into name f =
  let t0 = now () in
  let v = f () in
  add name ((now () -. t0) *. 1000.);
  v

(* Every process-global cache and counter cleared. *)
let clear_caches () =
  Asp.Memo.clear ();
  Asp.Memo.reset_stats ();
  Asp.Solver.reset_stats ();
  Pgraph.Canon.clear ();
  Pgraph.Canon.reset_stats ();
  Gmatch.Planner.reset ();
  Gmatch.Engine.reset_canon_skips ();
  Gmatch.Engine.reset_segment_stats ();
  Gmatch.Incremental.reset_stats ();
  Gmatch.Incremental.reset_delta ()

(* What a fresh [provmark] process starts from: cleared caches, and a
   compacted heap, so garbage left by the previous operation is not
   collected on this one's time. *)
let fresh_process_caches () =
  Gc.compact ();
  clear_caches ()

let total counts = List.fold_left (fun acc (_, n) -> acc + n) 0 counts

(* The matching and cache layers' public counters, as (name, value). *)
let engine_counters () =
  let memo = Asp.Memo.totals () in
  let computed, canon_hits = Pgraph.Canon.stats () in
  let certified, fallbacks = Gmatch.Incremental.stats () in
  let d_cert, d_fall, _ = Gmatch.Incremental.delta_stats () in
  List.map
    (fun (k, v) -> (k, float_of_int v))
    [
      ("engine.canon_skips", Gmatch.Engine.canon_skip_total ());
      ("engine.segment_pairs", total (Gmatch.Engine.segment_pairs ()));
      ("engine.segment_solves", Gmatch.Engine.segment_solves ());
      ("engine.segment_skips", total (Gmatch.Engine.segment_skips ()));
      ("planner.decisions", Gmatch.Planner.decisions_total ());
      ("planner.mispredictions", Gmatch.Planner.mispredictions ());
      ("planner.delta_certified", d_cert);
      ("planner.delta_fallbacks", d_fall);
      ("incremental.certified", certified);
      ("incremental.fallbacks", fallbacks);
      ("canon.computed", computed);
      ("canon.cache_hits", canon_hits);
      ("memo.hits", memo.Asp.Memo.hits);
      ("memo.misses", memo.Asp.Memo.misses);
      ("memo.coalesced", Asp.Memo.coalesced ());
    ]

(* Adds the counters' growth while [f] runs. *)
let counting f =
  let before = engine_counters () in
  let v = f () in
  List.iter2 (fun (k, b) (_, a) -> add k (a -. b)) before (engine_counters ());
  v

(* ------------------------------------------------------------------ *)
(* Metric output                                                       *)

let end_to_end_units =
  [
    ("ops_per_s", "1/s");
    ("op_p50_ms", "ms");
    ("op_p90_ms", "ms");
    ("peak_rss_mb", "MB");
    ("setup_s", "s");
  ]

let with_units units metrics = List.map (fun (k, v) -> (k, List.assoc k units, v)) metrics

(* Per-layer metrics: timings are milliseconds per operation, counters
   are events per operation, so runs of different lengths compare. *)
let per_layer_units =
  List.map (fun n -> (n, "ms/op"))
    [
      "recording.ms"; "transform.ms"; "key.ms"; "store.read_ms"; "store.write_ms"; "replay.ms";
      "generalize.ms"; "compare.ms"; "engine.similar_ms"; "engine.generalization_ms";
      "engine.subgraph_ms"; "serve.benchmark_ms"; "serve.match_ms"; "unattributed.ms";
    ]
  @ [ ("transform.opus_open_ms", "ms/call"); ("store.bytes_written", "B/op") ]
  @ List.map (fun n -> (n, "count/op"))
      [
        "store.hits"; "store.misses"; "generalize.calls"; "compare.calls"; "engine.canon_skips";
        "engine.segment_pairs"; "engine.segment_solves"; "engine.segment_skips";
        "planner.decisions"; "planner.mispredictions"; "planner.delta_certified";
        "planner.delta_fallbacks"; "incremental.certified"; "incremental.fallbacks";
        "canon.computed"; "canon.cache_hits"; "memo.hits"; "memo.misses"; "memo.coalesced";
      ]
  @ [
      ("memo.hit_rate", "ratio");
      ("serve.queue_depth_max", "count");
      ("serve.rejected", "count");
      ("serve.timed_out", "count");
      ("serve.rss_growth_kb_per_kreq", "kB/kreq");
      ("trace.overhead_pct", "%");
    ]

let number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "perfbench: non-finite metric value"

let emit ~correct (t : tally) metrics =
  let fields =
    List.map
      (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct t.attempted t.failed (String.concat ", " fields)

(* ------------------------------------------------------------------ *)
(* Run structure                                                       *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  cli : string;
  work : string;
}

(* Seeds and shuffles derived from the run seed, one stream per use. *)
let rng seed = Oskernel.Prng.create ~seed:(Int64.of_int seed)

(* ------------------------------------------------------------------ *)
(* Estimators                                                          *)

(* Set-up is repeated [n] times and its median reported.  [f i] returns
   the state of set-up [i]; the last one is kept, and [discard]
   disposes of each earlier one once it is timed.  That and a heap
   compaction before each set-up are untimed, so no set-up pays for
   another. *)
let setup_median n ~discard f =
  let times = ref [] in
  let rec go i =
    Gc.compact ();
    let t0 = now () in
    let state = f i in
    times := (now () -. t0) :: !times;
    if i = n - 1 then state
    else (
      discard state;
      go (i + 1))
  in
  let state = go 0 in
  (median !times, state)

(* Runs [step] until [seconds] have elapsed (at least once). *)
let repeat_for seconds step =
  let t0 = now () in
  let rec go i =
    if i = 0 || now () -. t0 < seconds then (
      step i;
      go (i + 1))
  in
  go 0

(* Throughput and latency percentiles over [samples], latencies that
   took [wall] in all.  The suites pass each cell's fastest repeat: a
   cell replays the same deterministic work in every pass, and a shared
   host only ever adds time to it, so the minimum is the estimate of its
   cost that the host's load moves least (Chen and Revels, "Robust
   benchmarking in noisy environments", 2016; WORKLOADS.md has the
   measurements).  A slowdown of the program shows in every repeat and
   so in the minimum.  provgen-scale and serve-mixed, whose operations
   differ from one to the next, pass every operation. *)
let end_to_end ~setup_s ~peak_rss_mb ~samples ~wall =
  with_units end_to_end_units
    [
      ("ops_per_s", float_of_int (List.length samples) /. wall);
      ("op_p50_ms", percentile 50. samples *. 1000.);
      ("op_p90_ms", percentile 90. samples *. 1000.);
      ("peak_rss_mb", peak_rss_mb);
      ("setup_s", setup_s);
    ]

let op_minima (t : tally) =
  Hashtbl.fold (fun _ l acc -> List.fold_left Float.min infinity l :: acc) t.by_op []
let all_samples (t : tally) = Hashtbl.fold (fun _ l acc -> l @ acc) t.by_op []

let self_peak_rss_mb () = status_kb "self" "VmHWM" /. 1024.

(* ------------------------------------------------------------------ *)
(* Known answers                                                       *)

let is_disconnected_target g =
  List.exists
    (fun n -> (not (Graph.is_dummy n)) && Graph.incident_edges g n.Graph.node_id = [])
    (Graph.nodes g)

(* Table 2 verdict for one cell, from its status word and target. *)
let check_table2 ~tool ~syscall expected ~status ~target =
  let ok =
    match (expected, status) with
    | (Registry.Ok_plain | Registry.Ok_sc), `Ok -> true
    | Registry.Ok_dv, `Ok -> (
        match Lazy.force target with Some g -> is_disconnected_target g | None -> false)
    | (Registry.Empty_nr | Registry.Empty_sc | Registry.Empty_lp), `Empty -> true
    | _ -> false
  in
  if ok then Ok ()
  else
    Error
      (Printf.sprintf "%s %s: expected %s (Table 2)" (Recorders.Recorder.tool_name tool) syscall
         (Registry.expected_to_string expected))

let check_result ?expected tool (r : Result.t) =
  let expected =
    Option.value expected ~default:(Registry.expected tool r.Result.syscall)
  in
  let status, target =
    match r.Result.status with
    | Result.Target g -> (`Ok, lazy (Some g))
    | Result.Empty -> (`Empty, lazy None)
    | Result.Failed _ -> (`Failed, lazy None)
  in
  check_table2 ~tool ~syscall:r.Result.syscall expected ~status ~target

(* A wrong Table 2 cell for [e]: an empty verdict where one is expected
   non-empty and vice versa. *)
let planted_cell = function
  | Registry.Ok_plain | Registry.Ok_sc | Registry.Ok_dv -> Registry.Empty_nr
  | Registry.Empty_nr | Registry.Empty_sc | Registry.Empty_lp -> Registry.Ok_plain

(* ------------------------------------------------------------------ *)
(* suite-cold / suite-warm: the paper's Table 2 matrix                 *)

let tools = Recorders.Recorder.all_tools

(* The Table 2 answers are those of the default configuration, whose
   recording seed is fixed; the benchmark seed only permutes the order
   the 132 cells run in.  (At some other recording seeds one cell
   disagrees with Table 2; see WORKLOADS.md.) *)
let shuffled ~seed xs =
  let r = rng seed in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Oskernel.Prng.int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let suite_cells ~seed =
  shuffled ~seed (List.concat_map (fun tool -> List.map (fun p -> (tool, p)) Registry.all) tools)

(* One pass of the matrix through the public runner at one job, cell by
   cell in [cells] order; [on_cell] gets each result and its latency. *)
let suite_pass ~store ~cells ~on_cell =
  List.iter
    (fun (tool, prog) ->
      let config = { (Config.default tool) with Config.store = Some store } in
      let t0 = now () in
      let r = Provmark.Runner.run (Provmark.Parallel_runner.config_for config prog) prog in
      on_cell tool prog r (now () -. t0))
    cells

let stage_names = [ "recording"; "transformation"; "generalization"; "comparison" ]

(* The stage spans of each attempt, from the span tree [Runner.run]
   returns, in order.  A span tagged [cache=hit] replayed a stored
   artifact; the others computed. *)
let attempt_stages (r : Result.t) =
  List.map
    (fun (attempt : Span.t) ->
      List.filter (fun (s : Span.t) -> List.mem s.Span.name stage_names) attempt.Span.children)
    (Span.find_all r.Result.span "attempt")

let replayed (s : Span.t) = Span.tag s "cache" = Some "hit"

(* Retry [i] of a cell runs under this configuration, as [Runner]
   schedules retries: more trials, and a strided seed. *)
let attempt_config config i =
  let r = config.Config.retry in
  {
    config with
    Config.trials = config.Config.trials + (r.Config.trial_growth * i);
    seed = config.Config.seed + (r.Config.seed_stride * i);
  }

let generalize_with config graphs =
  Provmark.Generalize.generalize ~backend:config.Config.backend ~filter:config.Config.filter_graphs
    ~pair_choice:config.Config.pair_choice graphs

(* What one attempt of a cell works on: its recordings, trial graphs
   and generalized graphs.  The traced run makes them once, outside any
   timing, by calling the layers as [Pipeline.run_once] does. *)
type inputs = {
  config : Config.t;
  recs : Provmark.Recording.recorded list * Provmark.Recording.recorded list;
  trials : (Graph.t list * Graph.t list) option;  (** [None]: transformation failed *)
  generals : (Graph.t * Graph.t) option;  (** [None]: a generalization failed *)
}

let inputs_memo : (string * string * int, inputs) Hashtbl.t = Hashtbl.create 256

let inputs_for tool prog i =
  let key = (Recorders.Recorder.tool_name tool, prog.Oskernel.Program.name, i) in
  match Hashtbl.find_opt inputs_memo key with
  | Some inp -> inp
  | None ->
      let config =
        attempt_config (Provmark.Parallel_runner.config_for (Config.default tool) prog) i
      in
      let ((bg_recs, fg_recs) as recs) = Provmark.Recording.record_all config prog in
      let trials =
        match (Provmark.Transform.batch bg_recs, Provmark.Transform.batch fg_recs) with
        | t -> Some t
        | exception Provmark.Transform.Transform_error _ -> None
      in
      let generals =
        match trials with
        | None -> None
        | Some (bg, fg) -> (
            match (generalize_with config bg, generalize_with config fg) with
            | Ok b, Ok f -> Some (b.Provmark.Generalize.general, f.Provmark.Generalize.general)
            | _ -> None)
      in
      let inp = { config; recs; trials; generals } in
      Hashtbl.replace inputs_memo key inp;
      inp

(* One attempt of a cell, re-run from this file: every layer the runner
   computed in it is called again and timed, in [Pipeline.run_once]'s
   order, and the cache keys are digested where [run_once] digests
   them; layers the runner replayed from the store are skipped.  Run
   over a whole pass from cleared caches, the calls see the caches a
   fresh process would.  Returns the engine probes for [engine_probes]. *)
let probe_attempt prog inp (stages : Span.t list) =
  let config = inp.config and backend = inp.config.Config.backend in
  let computed name =
    List.filter_map
      (fun (s : Span.t) -> if s.Span.name = name then Some (not (replayed s)) else None)
      stages
  in
  let did name = List.mem true (computed name) in
  let digest graphs = List.iter (fun g -> ignore (Store.canonical_graph_digest g)) graphs in
  if did "recording" then
    timed_into "recording.ms" (fun () -> ignore (Provmark.Recording.record_all config prog));
  if did "transformation" then
    timed_into "transform.ms" (fun () ->
        let bg, fg = inp.recs in
        try ignore (Provmark.Transform.batch bg, Provmark.Transform.batch fg)
        with Provmark.Transform.Transform_error _ -> ());
  timed_into "key.ms" (fun () -> ignore (Provmark.Pipeline.program_digest prog));
  match inp.trials with
  | None -> []
  | Some (bg, fg) -> (
      let gen_probes =
        List.concat
          (List.mapi
             (fun i graphs ->
               timed_into "key.ms" (fun () -> digest graphs);
               if List.nth_opt (computed "generalization") i = Some true then (
                 add "generalize.calls" 1.;
                 timed_into "generalize.ms" (fun () -> ignore (generalize_with config graphs));
                 match graphs with
                 | t1 :: t2 :: _ ->
                     [
                       ( "engine.generalization_ms",
                         fun () -> ignore (Gmatch.Engine.generalization_matching ~backend t1 t2) );
                     ]
                 | _ -> [])
               else [])
             [ bg; fg ])
      in
      match inp.generals with
      | None -> gen_probes
      | Some (g_bg, g_fg) ->
          timed_into "key.ms" (fun () -> digest [ g_bg; g_fg ]);
          if did "comparison"
             && not
                  (timed_into "engine.similar_ms" (fun () -> Gmatch.Engine.similar ~backend g_bg g_fg))
          then (
            add "compare.calls" 1.;
            timed_into "compare.ms" (fun () ->
                ignore (Provmark.Compare.compare ~backend ~bg:g_bg ~fg:g_fg));
            gen_probes
            @ [
                ( "engine.subgraph_ms",
                  fun () -> ignore (Gmatch.Engine.subgraph_matching ~backend g_bg g_fg) );
              ])
          else gen_probes)

(* The matching engine's entry points behind generalization and
   comparison, each timed alone from cleared caches.  They are nested
   inside [generalize.ms] and [compare.ms], so they are not part of the
   self-time sum. *)
let engine_probes probes =
  List.iter
    (fun (name, f) ->
      clear_caches ();
      timed_into name f)
    probes

(* A traced pass's cells re-run layer by layer: inputs first (made once
   per run), then the probes from cleared caches in the pass's order. *)
let probe_pass results =
  let plans =
    List.map
      (fun (tool, prog, r) ->
        (prog, List.mapi (fun i stages -> (inputs_for tool prog i, stages)) (attempt_stages r)))
      results
  in
  fresh_process_caches ();
  let probes =
    List.concat_map
      (fun (prog, attempts) -> List.concat_map (fun (inp, stages) -> probe_attempt prog inp stages) attempts)
      plans
  in
  engine_probes probes

(* Every artifact file under a store directory, as (stage, key, bytes). *)
let store_entries dir =
  let entries = ref [] in
  let ls d = try Array.to_list (Sys.readdir d) with Sys_error _ -> [] in
  List.iter
    (fun stage ->
      List.iter
        (fun prefix ->
          let pdir = Filename.concat (Filename.concat dir stage) prefix in
          List.iter
            (fun f ->
              if Filename.check_suffix f ".art" then
                let size = (Unix.stat (Filename.concat pdir f)).Unix.st_size in
                entries := (stage, Filename.chop_suffix f ".art", size) :: !entries)
            (ls pdir))
        (ls (Filename.concat dir stage)))
    (ls dir);
  !entries

(* [Artifact_store.read] of every entry of a store, timed: the payloads
   and the mean time of one read, in ms. *)
let read_all store =
  let entries = store_entries (Store.dir store) in
  let t0 = now () in
  let payloads =
    List.filter_map
      (fun (stage, key, _) -> Option.map (fun p -> ((stage, key), p)) (Store.read store ~stage ~key))
      entries
  in
  (payloads, (now () -. t0) *. 1000. /. float_of_int (max 1 (List.length entries)))

(* Store I/O timed through [Artifact_store.read]/[write]: the mean cost
   of one read over the entries present, times the pass's hits, and one
   write of each entry the pass created, into a scratch store.  The
   replayed stage spans include those reads; what remains of them is
   [replay.ms], the decoding of the replayed artifacts. *)
let store_io ~work ~store ~before ~hits ~replayed_ms =
  let entries = store_entries (Store.dir store) in
  let payloads, read_each = read_all store in
  add "store.read_ms" (read_each *. hits);
  add "replay.ms" (Float.max 0. (replayed_ms -. (read_each *. hits)));
  let fresh = List.filter (fun (s, k, _) -> not (List.mem (s, k) before)) entries in
  let scratch = Store.create ~dir:(mkdir_fresh (Filename.concat work "scratch-store")) in
  timed_into "store.write_ms" (fun () ->
      List.iter
        (fun (stage, key, _) ->
          match List.assoc_opt (stage, key) payloads with
          | Some p -> Store.write scratch ~stage ~key p
          | None -> ())
        fresh);
  add "store.bytes_written" (float_of_int (List.fold_left (fun acc (_, _, b) -> acc + b) 0 fresh));
  rm_rf (Store.dir scratch)

(* The modelled OPUS database start-up ([Graphstore.Store.open_db]),
   median of a few calls — a constant of the simulation, reported apart
   from pipeline cost. *)
let opus_open_ms () =
  median
    (List.init 5 (fun _ ->
         let db = Graphstore.Store.create () in
         let t0 = now () in
         Graphstore.Store.open_db db;
         (now () -. t0) *. 1000.))

(* The planted self-test for the Table 2 checker: one real cell per
   tool, checked against the opposite verdict, must fail. *)
let suite_self_test ~store =
  let prog = Registry.find_exn "open" in
  List.iter
    (fun tool ->
      let config = { (Config.default tool) with Config.store = Some store } in
      let r = Provmark.Runner.run (Provmark.Parallel_runner.config_for config prog) prog in
      self_test "table2-cell" ~real:(check_result tool r)
        ~planted:(check_result ~expected:(planted_cell (Registry.expected tool "open")) tool r))
    tools

(* Every per-layer metric, zero for layers the workload does not reach.
   [layer] holds totals over the traced operations; [wall] is their
   summed traced time (seconds per connection, for the serve loop), and
   [self] names the layers that together make up an operation, whose
   sum [unattributed.ms] is taken from. *)
let layer_metrics ~ops ~wall ~self ~untraced ~traced =
  let v k = get k /. ops in
  let memo_total = get "memo.hits" +. get "memo.misses" in
  List.map
    (fun (k, unit) ->
      let value =
        match k with
        | "transform.opus_open_ms" -> opus_open_ms ()
        | "memo.hit_rate" -> if memo_total > 0. then get "memo.hits" /. memo_total else 0.
        | "unattributed.ms" -> (wall *. 1000. /. ops) -. sum (List.map v self)
        | "trace.overhead_pct" -> ((median traced /. median untraced) -. 1.) *. 100.
        | "serve.queue_depth_max" | "serve.rejected" | "serve.timed_out"
        | "serve.rss_growth_kb_per_kreq" ->
            get k
        | k -> v k
      in
      (k, unit, value))
    per_layer_units

let suite_self_layers =
  [
    "recording.ms"; "transform.ms"; "key.ms"; "store.read_ms"; "store.write_ms"; "replay.ms";
    "generalize.ms"; "engine.similar_ms"; "compare.ms";
  ]

(* Set-ups per run, whose median is [setup_s]: a cold set-up takes
   about 0.1 s, a warm one (a whole cold pass) about 4 s. *)
let suite_cold_setups = 21
let suite_warm_setups = 3

let suite ~warm (a : args) =
  let tally = new_tally () in
  let store_dir i = Filename.concat a.work (Printf.sprintf "store-%d" i) in
  (* Cold set-up: a fresh store, cleared caches and the checker
     self-test (one real cell per tool).  Warm set-up also fills the
     store with a whole pass, as a first [provmark batch] would. *)
  let setup_s, store =
    setup_median (if warm then suite_warm_setups else suite_cold_setups)
      ~discard:(fun store -> rm_rf (Store.dir store))
      (fun i ->
        clear_caches ();
        let store = Store.create ~dir:(mkdir_fresh (store_dir i)) in
        suite_self_test ~store;
        if warm then (
          clear_caches ();
          suite_pass ~store ~cells:(suite_cells ~seed:a.seed) ~on_cell:(fun tool _ r _ ->
              match check_result tool r with
              | Ok () -> ()
              | Error why -> run_errors := ("set-up: " ^ why) :: !run_errors));
        store)
  in
  (* Cold passes get a fresh store; warm passes replay the filled one.
     Either way the process caches start empty, as in a new
     [provmark batch] process.  All passes of a run share its order. *)
  let cells = suite_cells ~seed:a.seed in
  let pass ~traced =
    let store =
      if warm then store else Store.create ~dir:(mkdir_fresh (Filename.concat a.work "cold-store"))
    in
    fresh_process_caches ();
    Store.reset_stats store;
    let before =
      if traced then List.map (fun (s, k, _) -> (s, k)) (store_entries (Store.dir store)) else []
    in
    let local = new_tally () and results = ref [] and replayed_ms = ref 0. in
    let wall = ref 0. in
    let run () =
      suite_pass ~store ~cells ~on_cell:(fun tool prog r lat ->
          wall := !wall +. lat;
          if traced then (
            results := (tool, prog, r) :: !results;
            List.iter
              (List.iter (fun s -> if replayed s then replayed_ms := !replayed_ms +. (Span.duration_s s *. 1000.)))
              (attempt_stages r));
          let verdict = check_result tool r in
          record local ~op:(Recorders.Recorder.tool_name tool ^ " " ^ r.Result.syscall) ~lat verdict)
    in
    if traced then counting run else run ();
    if traced then (
      let totals = Store.totals store in
      let hits = float_of_int totals.Store.hits in
      add "store.hits" hits;
      add "store.misses" (float_of_int totals.Store.misses);
      store_io ~work:a.work ~store ~before ~hits ~replayed_ms:!replayed_ms;
      probe_pass (List.rev !results));
    (local, !wall)
  in
  if not a.trace then (
    repeat_for a.seconds (fun _ -> merge_into tally (fst (pass ~traced:false)));
    let samples = op_minima tally in
    (tally, end_to_end ~setup_s ~peak_rss_mb:(self_peak_rss_mb ()) ~samples ~wall:(sum samples)))
  else
    (* Untraced and traced passes alternate on identical work; the
       traced ones feed the layer table, and their runner time against
       the untraced ones' is the tracing overhead. *)
    let untraced = ref [] and traced = ref [] and traced_ops = ref 0 in
    repeat_for a.seconds (fun _ ->
        let u, uw = pass ~traced:false in
        merge_into tally u;
        untraced := uw :: !untraced;
        let t, tw = pass ~traced:true in
        merge_into tally t;
        traced := tw :: !traced;
        traced_ops := !traced_ops + t.attempted);
    ( tally,
      layer_metrics ~ops:(float_of_int !traced_ops) ~wall:(sum !traced) ~self:suite_self_layers
        ~untraced:!untraced ~traced:!traced )

(* ------------------------------------------------------------------ *)
(* provgen-scale: synthetic benchmarks at CamFlow-like scale           *)

(* One round is one synthetic benchmark at each size.  The structures
   are a fixed corpus, like the paper's suite: generator seed 1 at every
   size.  The run seed picks which trials are generated, so each round
   strips fresh transient values off the same structures.  (Comparison
   cost differs by up to a third between structures of one size, so
   drawing structures from the run seed would make the spread between
   runs that of the inputs rather than of the code.) *)
let provgen_sizes = [ 64; 96; 128 ]
let provgen_structure = 1

(* Rounds generated in set-up; a run that outlasts them cycles back,
   with every process cache cleared first, so a repeat costs what the
   first did. *)
let provgen_rounds = 8

let strip_transients g =
  let drop p = Props.remove "token" (Props.remove "t" p) in
  let g =
    List.fold_left
      (fun g n -> Graph.set_node_props g n.Graph.node_id (drop n.Graph.node_props))
      g (Graph.nodes g)
  in
  List.fold_left
    (fun g e -> Graph.set_edge_props g e.Graph.edge_id (drop e.Graph.edge_props))
    g (Graph.edges g)

(* The injected target: four [Target] nodes, each with one edge to a
   distinct background node, identical in every foreground trial. *)
type injected = { anchors : string list; target_nodes : Graph.node list; target_edges : Graph.edge list }

let injection ~seed ~nodes =
  let r = rng seed in
  let rec pick acc =
    if List.length acc = 4 then List.rev acc
    else
      let k = Oskernel.Prng.int r nodes in
      if List.mem k acc then pick acc else pick (k :: acc)
  in
  let anchors = List.map (Printf.sprintf "n%d") (pick []) in
  let target_nodes =
    List.init 4 (fun i ->
        {
          Graph.node_id = Printf.sprintf "x%d" i;
          node_label = "Target";
          node_props = Props.of_list [ ("name", Printf.sprintf "target_%d" i) ];
        })
  in
  let target_edges =
    List.mapi
      (fun i anchor ->
        {
          Graph.edge_id = Printf.sprintf "xe%d" i;
          edge_src = Printf.sprintf "x%d" i;
          edge_tgt = anchor;
          edge_label = "used";
          edge_props = Props.of_list [ ("op", Printf.sprintf "inject_%d" i) ];
        })
      anchors
  in
  { anchors; target_nodes; target_edges }

let inject inj g =
  let g =
    List.fold_left
      (fun g n -> Graph.add_node g ~id:n.Graph.node_id ~label:n.Graph.node_label ~props:n.Graph.node_props)
      g inj.target_nodes
  in
  List.fold_left
    (fun g e ->
      Graph.add_edge g ~id:e.Graph.edge_id ~src:e.Graph.edge_src ~tgt:e.Graph.edge_tgt
        ~label:e.Graph.edge_label ~props:e.Graph.edge_props)
    g inj.target_edges

type synthetic = {
  label : string;
  bg_trials : Graph.t list;
  fg_trials : Graph.t list;
  bg_expected : Graph.t;  (** trial 1 with [token] and [t] stripped *)
  fg_expected : Graph.t;
  inj : injected;
}

(* Background trials are runs [first..first+2] of the structure,
   foreground trials the next three runs plus the injected target. *)
let synthetic ~structure ~first ~nodes =
  let spec = Provgen.default_spec ~nodes in
  let inj = injection ~seed:structure ~nodes in
  let trial k = Provgen.generate ~run:(first + k) ~seed:structure spec in
  {
    label = Printf.sprintf "provgen nodes=%d seed=%d run=%d" nodes structure first;
    bg_trials = List.map trial [ 0; 1; 2 ];
    fg_trials = List.map (fun k -> inject inj (trial k)) [ 3; 4; 5 ];
    bg_expected = strip_transients (trial 0);
    fg_expected = strip_transients (inject inj (trial 0));
    inj;
  }

let sorted_ids f xs = List.sort compare (List.map f xs)

(* The comparison target must be exactly the injected target: its four
   nodes and four edges, the four anchors as dummy endpoints, cost 0. *)
let check_target (s : synthetic) (o : Provmark.Compare.outcome) =
  let g = o.Provmark.Compare.target in
  let real, dummies = List.partition (fun n -> not (Graph.is_dummy n)) (Graph.nodes g) in
  let same_node n =
    match Graph.find_node g n.Graph.node_id with
    | Some m -> m.Graph.node_label = n.Graph.node_label && Props.equal m.Graph.node_props n.Graph.node_props
    | None -> false
  in
  let same_edge e =
    match Graph.find_edge g e.Graph.edge_id with
    | Some f ->
        f.Graph.edge_src = e.Graph.edge_src && f.Graph.edge_tgt = e.Graph.edge_tgt
        && f.Graph.edge_label = e.Graph.edge_label && Props.equal f.Graph.edge_props e.Graph.edge_props
    | None -> false
  in
  if
    o.Provmark.Compare.matching_cost = 0
    && sorted_ids (fun n -> n.Graph.node_id) real
       = sorted_ids (fun n -> n.Graph.node_id) s.inj.target_nodes
    && List.for_all same_node s.inj.target_nodes
    && sorted_ids (fun n -> n.Graph.node_id) dummies = List.sort compare s.inj.anchors
    && Graph.edge_count g = List.length s.inj.target_edges
    && List.for_all same_edge s.inj.target_edges
  then Ok ()
  else
    Error
      (Printf.sprintf "%s: comparison target %s at cost %d is not the injected target" s.label
         (Graph.summary g) o.Provmark.Compare.matching_cost)

let check_general (s : synthetic) ~side expected = function
  | Error f ->
      Error (Printf.sprintf "%s: %s generalization failed: %s" s.label side
               (Provmark.Generalize.failure_to_string f))
  | Ok o ->
      if Graph.equal o.Provmark.Generalize.general expected then Ok ()
      else
        Error (Printf.sprintf "%s: %s generalized graph is not trial 1 without transients" s.label side)

let backend = Gmatch.Engine.default_backend

let generalize graphs =
  Provmark.Generalize.generalize ~backend ~filter:false ~pair_choice:Config.Smallest graphs

(* One synthetic benchmark: generalize both sides, compare, check.
   Returns the verdict, the operation's time, and the generalized pair
   for the traced run's engine probe. *)
let provgen_op (s : synthetic) ~traced =
  let call name f = if traced then timed_into name f else f () in
  fresh_process_caches ();
  let t0 = now () in
  let run () =
    let bg = call "generalize.ms" (fun () -> generalize s.bg_trials) in
    let fg = call "generalize.ms" (fun () -> generalize s.fg_trials) in
    match (bg, fg) with
    | Ok b, Ok f ->
        let c =
          call "compare.ms" (fun () ->
              Provmark.Compare.compare ~backend ~bg:b.Provmark.Generalize.general
                ~fg:f.Provmark.Generalize.general)
        in
        (bg, fg, Some c)
    | _ -> (bg, fg, None)
  in
  let bg, fg, c = if traced then counting run else run () in
  let dt = now () -. t0 in
  if traced then (
    add "generalize.calls" 2.;
    if c <> None then add "compare.calls" 1.);
  let verdict =
    Stdlib.Result.bind (check_general s ~side:"background" s.bg_expected bg) (fun () ->
        Stdlib.Result.bind (check_general s ~side:"foreground" s.fg_expected fg) (fun () ->
            match c with
            | Some (Ok o) -> check_target s o
            | Some (Error _) -> Error (s.label ^ ": background does not embed into foreground")
            | None -> Error (s.label ^ ": comparison not reached")))
  in
  (verdict, dt, bg, fg)

(* The matching engine's three entry points on one operation's inputs
   (traced runs only).  All three are nested inside [generalize.ms] and
   [compare.ms] here. *)
let engine_probe (s : synthetic) bg fg =
  match (s.bg_trials, bg, fg) with
  | t1 :: t2 :: _, Ok b, Ok f ->
      let b = b.Provmark.Generalize.general and f = f.Provmark.Generalize.general in
      engine_probes
        [
          ("engine.similar_ms", fun () -> ignore (Gmatch.Engine.similar ~backend t1 t2));
          ( "engine.generalization_ms",
            fun () -> ignore (Gmatch.Engine.generalization_matching ~backend t1 t2) );
          ("engine.subgraph_ms", fun () -> ignore (Gmatch.Engine.subgraph_matching ~backend b f));
        ]
  | _ -> ()

(* Planted wrong expectations for the synthetic checkers: trial 1
   with a node missing, and the target on other anchors. *)
let provgen_self_test (s : synthetic) =
  let wrong_general = Graph.remove_node s.bg_expected (List.hd (Graph.node_ids s.bg_expected)) in
  let _, _, bg, fg = provgen_op s ~traced:false in
  self_test "provgen-general"
    ~real:(check_general s ~side:"background" s.bg_expected bg)
    ~planted:(check_general s ~side:"background" wrong_general bg);
  let moved = { s with inj = { s.inj with anchors = List.rev_map (fun a -> a ^ "0") s.inj.anchors } } in
  let target =
    match (bg, fg) with
    | Ok b, Ok f ->
        Provmark.Compare.compare ~backend ~bg:b.Provmark.Generalize.general
          ~fg:f.Provmark.Generalize.general
    | _ -> Error Provmark.Compare.Background_not_embeddable
  in
  let check s = match target with Ok o -> check_target s o | Error _ -> Error "no target" in
  self_test "provgen-target" ~real:(check s) ~planted:(check moved)

(* Set-ups per run, whose median is [setup_s]; each takes about 0.3 s. *)
let provgen_setups = 9

let provgen (a : args) =
  let tally = new_tally () in
  let setup_s, rounds =
    setup_median provgen_setups ~discard:ignore (fun _ ->
        let r = rng a.seed in
        let rounds =
          Array.init provgen_rounds (fun _ ->
              let first = 1 + Oskernel.Prng.int r 1_000_000 in
              List.map (fun nodes -> synthetic ~structure:provgen_structure ~first ~nodes) provgen_sizes)
        in
        provgen_self_test (synthetic ~structure:a.seed ~first:1 ~nodes:32);
        rounds)
  in
  let round i = rounds.(i mod provgen_rounds) in
  let op (s : synthetic) = string_of_int (Graph.node_count (List.hd s.bg_trials)) in
  if not a.trace then (
    repeat_for a.seconds (fun i ->
        List.iter
          (fun s ->
            let verdict, lat, _, _ = provgen_op s ~traced:false in
            record tally ~op:(op s) ~lat verdict)
          (round i));
    (* Percentiles over every operation: a run has only about a dozen,
       so no percentile has ten samples beyond it (see WORKLOADS.md). *)
    let samples = all_samples tally in
    (tally, end_to_end ~setup_s ~peak_rss_mb:(self_peak_rss_mb ()) ~samples ~wall:(sum samples)))
  else
    (* Each operation runs untraced, then traced, then under the engine
       probe; only the traced run's calls feed the layer table. *)
    let untraced = ref [] and traced = ref [] in
    repeat_for a.seconds (fun i ->
        List.iter
          (fun s ->
            let verdict, du, _, _ = provgen_op s ~traced:false in
            record tally ~op:(op s) ~lat:du verdict;
            untraced := du :: !untraced;
            let verdict, dt, bg, fg = provgen_op s ~traced:true in
            record tally ~op:(op s) ~lat:dt verdict;
            traced := dt :: !traced;
            engine_probe s bg fg)
          (round i));
    ( tally,
      layer_metrics
        ~ops:(float_of_int (List.length !traced))
        ~wall:(sum !traced) ~self:[ "generalize.ms"; "compare.ms" ] ~untraced:!untraced
        ~traced:!traced )

(* ------------------------------------------------------------------ *)
(* serve-mixed: a [provmark serve] daemon under a closed loop          *)

type daemon = { pid : int; endpoint : Protocol.endpoint }

let live_daemons : daemon list ref = ref []

let request op = { Protocol.id = None; op }

(* The load's connections, and the daemon's jobs: one job per
   connection, so no request waits for the other connection's.  At one
   job each benchmark request that arrived during the other
   connection's match waited for it, and the median request's latency
   was that wait, whose share of requests drifts with the machine: two
   ten-run sets gave medians of 10.3 and 14.4 ms at throughputs within
   6% of each other. *)
let connections = min 2 (Domain.recommended_domain_count ())

let start_daemon ~cli ~work ~sock ~store =
  let log =
    Unix.openfile (Filename.concat work "serve.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--socket"; sock; "-j"; string_of_int connections; "--store"; store |]
      Unix.stdin log log
  in
  Unix.close log;
  let d = { pid; endpoint = Protocol.Unix_socket sock } in
  live_daemons := d :: !live_daemons;
  let deadline = now () +. 60. in
  let rec wait () =
    match Client.with_connection d.endpoint (fun c -> Client.call c (request Protocol.Ping)) with
    | Ok _ -> d
    | Error _ | (exception Unix.Unix_error _) ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            live_daemons := List.filter (fun x -> x != d) !live_daemons;
            failwith "serve daemon exited during start-up");
        if now () > deadline then failwith "serve daemon did not come up within 60 s";
        Unix.sleepf 0.01;
        wait ()
  in
  wait ()

(* The [shutdown] op, then the exit status must be 0; a daemon still
   running after 30 s is killed and the run marked incorrect. *)
let stop_daemon d =
  (match Client.with_connection d.endpoint (fun c -> Client.call c (request Protocol.Shutdown)) with
  | Ok _ -> ()
  | Error m -> run_errors := ("shutdown op: " ^ m) :: !run_errors
  | exception Unix.Unix_error (e, _, _) ->
      run_errors := ("shutdown op: " ^ Unix.error_message e) :: !run_errors);
  let rec reap tries =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when tries > 0 ->
        Unix.sleepf 0.02;
        reap (tries - 1)
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid);
        run_errors := "serve daemon ignored shutdown" :: !run_errors
    | _, Unix.WEXITED 0 -> ()
    | _, _ -> run_errors := "serve daemon exited nonzero after shutdown" :: !run_errors
  in
  reap 1500;
  live_daemons := List.filter (fun x -> x != d) !live_daemons

let kill_live_daemons () =
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ())
    !live_daemons;
  live_daemons := []

let bench_cells =
  Array.of_list
    (List.concat_map (fun tool -> List.map (fun name -> (tool, name)) (Registry.names ())) tools)

(* The default configuration's seed, as for the in-process suite. *)
let benchmark_op (tool, syscall) =
  let config = Config.default tool in
  Protocol.Benchmark
    {
      Protocol.tool;
      syscall;
      trials = None;
      seed = config.Config.seed;
      backend = config.Config.backend;
      result_type = "rb";
    }

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go 0

(* A benchmark response against Table 2: the status word of the
   summary line and, for a disconnected-vfork cell, the target facts. *)
let check_benchmark_response ?expected (tool, syscall) resp =
  let expected = Option.value expected ~default:(Registry.expected tool syscall) in
  match resp with
  | Error m -> Error (Printf.sprintf "%s: transport error: %s" syscall m)
  | Ok j when Client.response_status j <> "ok" ->
      Error (Printf.sprintf "%s: error response %s" syscall (J.to_string j))
  | Ok j -> (
      let out = Client.response_output j in
      let first = List.hd (String.split_on_char '\n' out) in
      match List.filter (( <> ) "") (String.split_on_char ' ' first) with
      | name :: _ :: word :: _ when name = syscall ->
          let status =
            if String.equal word "ok" then `Ok else if String.equal word "empty" then `Empty else `Failed
          in
          let target =
            lazy
              (match find_sub out "\n\n" with
              | None -> None
              | Some i -> (
                  let facts = String.sub out (i + 2) (String.length out - i - 2) in
                  try Some (Datalog.Encode.graph_of_string ~gid:"t" facts) with _ -> None))
          in
          check_table2 ~tool ~syscall expected ~status ~target
      | _ -> Error (Printf.sprintf "%s: unparsable summary line %S" syscall first))

let match_sizes = [| 128; 192; 256 |]

let match_pair ~seed ~nodes = Provgen.pair ~seed (Provgen.default_spec ~nodes)

let match_op (a, b) =
  Protocol.Match
    {
      Protocol.kind = Provmark.Match_op.Generalize;
      format = Provmark.Match_op.Provjson;
      a = Recorders.Provjson.to_string a;
      b = Recorders.Provjson.to_string b;
      m_backend = None;
    }

(* Listing-4 cost of one element: its properties without an equal
   counterpart on the image. *)
let mismatches p q =
  Props.fold (fun k v acc -> if Props.find k q = Some v then acc else acc + 1) p 0

(* The witness of a [match generalize] response, re-checked here: a
   label- and edge-preserving bijection whose recounted cost is the
   reported one and no more than the identity alignment's. *)
let check_witness (a, b) resp =
  let fail fmt = Printf.ksprintf (fun m -> Error ("match generalize: " ^ m)) fmt in
  match resp with
  | Error m -> fail "transport error: %s" m
  | Ok j when Client.response_status j <> "ok" -> fail "error response %s" (J.to_string j)
  | Ok j -> (
      let lines = String.split_on_char '\n' (Client.response_output j) in
      match lines with
      | [] -> fail "empty output"
      | head :: rest -> (
          match Scanf.sscanf_opt head "generalize: cost=%d%!" Fun.id with
          | None -> fail "unexpected verdict %S" head
          | Some reported ->
              let nodes = Hashtbl.create 256 and edges = Hashtbl.create 256 in
              let parsed =
                List.for_all
                  (fun l ->
                    l = ""
                    ||
                    match Scanf.sscanf_opt l "  %c %s -> %s%!" (fun c x y -> (c, x, y)) with
                    | Some ('n', x, y) -> Hashtbl.replace nodes x y; true
                    | Some ('e', x, y) -> Hashtbl.replace edges x y; true
                    | _ -> false)
                  rest
              in
              let image tbl x = Hashtbl.find_opt tbl x in
              let bijective tbl dom cod =
                Hashtbl.length tbl = List.length dom
                && List.length dom = List.length cod
                && List.for_all (fun x -> Hashtbl.mem tbl x) dom
                && List.sort_uniq compare (Hashtbl.fold (fun _ y acc -> y :: acc) tbl [])
                   = List.sort compare cod
              in
              let node_ok n =
                match Option.bind (image nodes n.Graph.node_id) (Graph.find_node b) with
                | Some m -> String.equal n.Graph.node_label m.Graph.node_label
                | None -> false
              in
              let edge_ok e =
                match Option.bind (image edges e.Graph.edge_id) (Graph.find_edge b) with
                | Some f ->
                    String.equal e.Graph.edge_label f.Graph.edge_label
                    && image nodes e.Graph.edge_src = Some f.Graph.edge_src
                    && image nodes e.Graph.edge_tgt = Some f.Graph.edge_tgt
                | None -> false
              in
              let cost ~node_img ~edge_img =
                List.fold_left
                  (fun acc n ->
                    match Option.bind (node_img n.Graph.node_id) (Graph.find_node b) with
                    | Some m -> acc + mismatches n.Graph.node_props m.Graph.node_props
                    | None -> acc + Props.cardinal n.Graph.node_props)
                  0 (Graph.nodes a)
                + List.fold_left
                    (fun acc e ->
                      match Option.bind (edge_img e.Graph.edge_id) (Graph.find_edge b) with
                      | Some f -> acc + mismatches e.Graph.edge_props f.Graph.edge_props
                      | None -> acc + Props.cardinal e.Graph.edge_props)
                    0 (Graph.edges a)
              in
              let recount = cost ~node_img:(image nodes) ~edge_img:(image edges) in
              let identity = cost ~node_img:Option.some ~edge_img:Option.some in
              if not parsed then fail "unparsable witness line"
              else if not (bijective nodes (Graph.node_ids a) (Graph.node_ids b)) then
                fail "node map is not a bijection"
              else if not (bijective edges (Graph.edge_ids a) (Graph.edge_ids b)) then
                fail "edge map is not a bijection"
              else if not (List.for_all node_ok (Graph.nodes a)) then fail "a node label changes"
              else if not (List.for_all edge_ok (Graph.edges a)) then fail "an edge is not preserved"
              else if recount <> reported then fail "reported cost %d, recounted %d" reported recount
              else if recount > identity then
                fail "cost %d exceeds the identity alignment's %d" recount identity
              else Ok ()))

type request_kind =
  | Bench of (Recorders.Recorder.tool * string)
  | Matching of (Graph.t * Graph.t) * Protocol.op

(* The match requests of a run, generated and serialized in set-up so
   the load process only sends, receives and checks during the loop:
   generating a 256-node pair inside the loop stalled the other
   connection's domain at every minor collection.  40-second runs on
   the reference machine send 620 to 720; a longer run wraps round,
   and the repeats may be answered from the daemon's caches. *)
let match_pool = 960

let match_inputs ~seed =
  let r = rng seed in
  Array.init match_pool (fun m ->
      let seed = 1 + Oskernel.Prng.int r 1_000_000_000 in
      let pair = match_pair ~seed ~nodes:match_sizes.(m mod Array.length match_sizes) in
      (pair, match_op pair))

(* Request [i] of a run: three benchmark requests cycling through the
   132 cells (in the run's [order]) for every [match generalize]
   request over a freshly generated pair. *)
let mix_period = 4

let nth_request ~matches ~order i =
  let m = i / mix_period in
  if i mod mix_period = mix_period - 1 then
    let pair, op = matches.(m mod Array.length matches) in
    Matching (pair, op)
  else Bench order.(((m * (mix_period - 1)) + (i mod mix_period)) mod Array.length order)

(* One request as its caller saw it. *)
type reply = { req : request_kind; lat : float; verdict : (unit, string) result }

type conn_report = {
  replies : reply list;
  depth_max : int;  (** deepest daemon queue seen by the [stats] polls *)
}

(* One caller: requests until [deadline], each sent once the reply to
   the previous one is in, numbered from [counter]; traced runs poll
   the daemon's queue depth every 8th request. *)
let caller ~on_reply ~matches ~order ~counter ~traced ~deadline endpoint () =
  Client.with_connection endpoint (fun conn ->
      let replies = ref [] and depth = ref 0 in
      while now () < deadline do
        let i = Atomic.fetch_and_add counter 1 in
        let req = nth_request ~matches ~order i in
        let op, check =
          match req with
          | Bench cell -> (benchmark_op cell, check_benchmark_response cell)
          | Matching (pair, op) -> (op, check_witness pair)
        in
        let t0 = now () in
        let resp = Client.call conn (request op) in
        let lat = now () -. t0 in
        on_reply i;
        replies := { req; lat; verdict = check resp } :: !replies;
        if traced && i mod 8 = 0 then
          match Client.call conn (request Protocol.Stats) with
          | Ok j -> (
              match J.member "queue_depth" j with
              | J.Number d -> depth := max !depth (int_of_float d)
              | _ -> ())
          | Error _ -> ()
      done;
      { replies = !replies; depth_max = !depth })

(* [connections] callers in a closed loop for [seconds]; every request
   is recorded in [tally].  Returns the replies, the loop's wall time
   and the deepest queue seen. *)
let closed_loop ?(on_reply = ignore) ~endpoint ~seed ~matches ~seconds ~counter ~traced tally =
  let order = Array.of_list (shuffled ~seed (Array.to_list bench_cells)) in
  let start = now () in
  let deadline = start +. seconds in
  let reports =
    List.map Domain.join
      (List.init connections (fun _ ->
           Domain.spawn (caller ~on_reply ~matches ~order ~counter ~traced ~deadline endpoint)))
  in
  let wall = now () -. start in
  let replies = List.concat_map (fun r -> r.replies) reports in
  List.iter (fun r -> record tally ~op:"request" ~lat:r.lat r.verdict) replies;
  (replies, wall, List.fold_left (fun acc r -> max acc r.depth_max) 0 reports)

let stats_of endpoint =
  match Client.with_connection endpoint (fun c -> Client.call c (request Protocol.Stats)) with
  | Ok j -> j
  | Error m -> failwith ("stats op: " ^ m)

(* The daemon's counters, under the per-layer metric names. *)
let daemon_counters j =
  let num path =
    let v = List.fold_left (fun j k -> J.member k j) j path in
    match v with J.Number n -> n | _ -> 0.
  in
  let decisions =
    match J.member "decisions" (J.member "planner" j) with
    | J.Object kv -> sum (List.map (function _, J.Number n -> n | _ -> 0.) kv)
    | _ -> 0.
  in
  [
    ("memo.hits", num [ "memo"; "hits" ]);
    ("memo.misses", num [ "memo"; "misses" ]);
    ("memo.coalesced", num [ "memo"; "coalesced" ]);
    ("canon.computed", num [ "canon_forms"; "computed" ]);
    ("canon.cache_hits", num [ "canon_forms"; "cache_hits" ]);
    ("engine.canon_skips", num [ "canon_skips" ]);
    ("engine.segment_skips", num [ "segment"; "quotient_skips" ]);
    ("engine.segment_pairs", num [ "segment"; "pairs" ]);
    ("engine.segment_solves", num [ "segment"; "solves" ]);
    ("incremental.certified", num [ "incremental"; "certified" ]);
    ("incremental.fallbacks", num [ "incremental"; "fallbacks" ]);
    ("planner.decisions", decisions);
    ("planner.mispredictions", num [ "planner"; "mispredictions" ]);
    ("planner.delta_certified", num [ "planner"; "delta"; "certified" ]);
    ("planner.delta_fallbacks", num [ "planner"; "delta"; "fallbacks" ]);
    ("store.hits", num [ "store"; "hits" ]);
    ("store.misses", num [ "store"; "misses" ]);
    ("serve.rejected", num [ "rejected" ]);
    ("serve.timed_out", num [ "timed_out" ]);
  ]

(* Requests served in the timed loop before the daemon's peak memory
   is read; 40-second runs on the reference machine serve 2500 to 2900. *)
let rss_after_requests = 400

let serve_self_test ~endpoint ~seed =
  Client.with_connection endpoint (fun conn ->
      let cell = bench_cells.(0) in
      let resp = Client.call conn (request (benchmark_op cell)) in
      self_test "serve-benchmark" ~real:(check_benchmark_response cell resp)
        ~planted:
          (check_benchmark_response
             ~expected:(planted_cell (Registry.expected (fst cell) (snd cell)))
             cell resp);
      let a, b = match_pair ~seed ~nodes:16 in
      let resp = Client.call conn (request (match_op (a, b))) in
      let b' = Graph.remove_edge b (List.hd (Graph.edge_ids b)) in
      self_test "serve-witness" ~real:(check_witness (a, b) resp)
        ~planted:(check_witness (a, b') resp))

(* Set-ups per run, whose median is [setup_s]. *)
let serve_setups = 3

let serve_mixed (a : args) =
  let tally = new_tally () in
  (* Set-up: generate the match requests, start a daemon on a fresh
     store and replay every cell once through it, so timed benchmark
     requests replay from the store. *)
  let store_dir i = Filename.concat a.work (Printf.sprintf "serve-store-%d" i) in
  let setup_s, (matches, daemon, store) =
    setup_median serve_setups ~discard:(fun (_, d, _) -> stop_daemon d) (fun i ->
        let matches = match_inputs ~seed:a.seed in
        let store = mkdir_fresh (store_dir i) in
        let sock = Filename.concat a.work (Printf.sprintf "d%d.sock" i) in
        let d = start_daemon ~cli:a.cli ~work:a.work ~sock ~store in
        Client.with_connection d.endpoint (fun conn ->
            Array.iter
              (fun cell ->
                match check_benchmark_response cell (Client.call conn (request (benchmark_op cell))) with
                | Ok () -> ()
                | Error why -> run_errors := ("set-up: " ^ why) :: !run_errors)
              bench_cells);
        (matches, d, store))
  in
  serve_self_test ~endpoint:daemon.endpoint ~seed:a.seed;
  let counter = Atomic.make 0 in
  let pid = string_of_int daemon.pid in
  let loop ?on_reply ~seconds ~traced () =
    closed_loop ?on_reply ~endpoint:daemon.endpoint ~seed:a.seed ~matches ~seconds ~counter ~traced
      tally
  in
  let metrics =
    if not a.trace then (
      (* The daemon's memory grows with the requests it has served, so
         its peak is read after a fixed number of them rather than at
         the end, where it would follow the run's throughput. *)
      let hwm = Atomic.make None in
      let on_reply i = if i = rss_after_requests then Atomic.set hwm (Some (status_kb pid "VmHWM")) in
      let _, wall, _ = loop ~on_reply ~seconds:a.seconds ~traced:false () in
      let peak_kb =
        match Atomic.get hwm with
        | Some kb -> kb
        | None ->
            Printf.eprintf "perfbench: fewer than %d requests; peak_rss_mb read at the end\n%!"
              rss_after_requests;
            status_kb pid "VmHWM"
      in
      end_to_end ~setup_s ~peak_rss_mb:(peak_kb /. 1024.) ~samples:(all_samples tally) ~wall)
    else
      (* The first half runs untraced, the second traced: per-kind
         latency sums, a [stats] op every 8th request, and the daemon's
         counters and VmHWM around it. *)
      let half = a.seconds /. 2. in
      let u_replies, u_wall, _ = loop ~seconds:half ~traced:false () in
      let before = daemon_counters (stats_of daemon.endpoint) in
      let hwm0 = status_kb pid "VmHWM" in
      let t_replies, t_wall, depth_max = loop ~seconds:half ~traced:true () in
      let hwm1 = status_kb pid "VmHWM" in
      let after = daemon_counters (stats_of daemon.endpoint) in
      List.iter2 (fun (k, b) (_, x) -> add k (x -. b)) before after;
      let t_ops = List.length t_replies in
      let match_pairs =
        List.filter_map
          (fun r -> match r.req with Matching (pair, _) -> Some pair | Bench _ -> None)
          t_replies
      in
      List.iter
        (fun r ->
          match r.req with
          | Bench _ -> add "serve.benchmark_ms" (r.lat *. 1000.)
          | Matching _ -> add "serve.match_ms" (r.lat *. 1000.))
        t_replies;
      add "serve.queue_depth_max" (float_of_int depth_max);
      add "serve.rss_growth_kb_per_kreq" ((hwm1 -. hwm0) /. (float_of_int t_ops /. 1000.));
      (* The daemon's store reads, timed from here on its own store
         with the daemon idle: the mean read times the traced half's
         hits.  (How long the daemon takes to decode what it read is
         not visible from outside, so [replay.ms] stays 0 here.) *)
      let _, read_each = read_all (Store.create ~dir:store) in
      add "store.read_ms" (read_each *. get "store.hits");
      (* The engine entry point behind [match generalize], timed
         in-process on two pairs the daemon just answered, from cleared
         caches, and scaled by the traced half's match count. *)
      let probe =
        List.map
          (fun (x, y) ->
            clear_caches ();
            let t0 = now () in
            ignore (Gmatch.Engine.generalization_matching ~backend x y);
            (now () -. t0) *. 1000.)
          (List.filteri (fun i _ -> i < 2) match_pairs)
      in
      if probe <> [] then
        add "engine.generalization_ms" (median probe *. float_of_int (List.length match_pairs));
      layer_metrics ~ops:(float_of_int t_ops)
        ~wall:(t_wall *. float_of_int connections)
        ~self:[ "serve.benchmark_ms"; "serve.match_ms" ]
        ~untraced:[ u_wall /. float_of_int (List.length u_replies) ]
        ~traced:[ t_wall /. float_of_int t_ops ]
  in
  stop_daemon daemon;
  (tally, metrics)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let cli = ref "" and work = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME suite-cold|suite-warm|provgen-scale|serve-mixed");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured duration");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--cli", Arg.Set_string cli, "EXE the provmark CLI (serve-mixed)");
      ("--work", Arg.Set_string work, "DIR scratch directory for stores and sockets");
    ]
    (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --cli EXE --work DIR";
  if !work = "" || not (Sys.file_exists !work) then failwith "--work must name an existing directory";
  let a =
    { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1; cli = !cli; work = !work }
  in
  at_exit kill_live_daemons;
  let tally, metrics =
    match a.workload with
    | "suite-cold" -> suite ~warm:false a
    | "suite-warm" -> suite ~warm:true a
    | "provgen-scale" -> provgen a
    | "serve-mixed" -> serve_mixed a
    | w -> failwith ("unknown workload " ^ w)
  in
  List.iter
    (fun (k, u, v) -> Printf.printf "%-34s %14.4f %s\n" k v u)
    metrics;
  (* suite-warm is where cache-key digests dominate; their share of the
     traced pass is printed on its own. *)
  (if a.trace && a.workload = "suite-warm" then
     let v k = List.fold_left (fun acc (k', _, x) -> if k = k' then x else acc) 0. metrics in
     let total = List.fold_left (fun acc k -> acc +. v k) (v "unattributed.ms") suite_self_layers in
     Printf.printf "%-34s %14.4f ms/op (%.1f%% of the traced pass)\n" "key.ms on suite-warm"
       (v "key.ms") (100. *. v "key.ms" /. total));
  (* Sample counts behind the percentiles: the suites take them over
     each cell's fastest repeat, provgen-scale and the serve loop over every
     operation.  provgen-scale's operations come in three sizes, whose
     medians are printed as what they are. *)
  let groups = Hashtbl.length tally.by_op in
  (match a.workload with
  | "suite-cold" | "suite-warm" ->
      Printf.printf "%-34s %14d (percentiles over %d cells' fastest of about %d repeats)\n"
        "operations" tally.attempted groups (tally.attempted / max 1 groups)
  | _ -> Printf.printf "%-34s %14d (percentiles over all of them)\n" "operations" tally.attempted);
  if a.workload = "provgen-scale" then
    List.iter
      (fun (op, l) ->
        Printf.printf "%-34s %14.4f ms (median of %d)\n" (op ^ "-node benchmark") (median l *. 1000.)
          (List.length l))
      (List.sort
         (fun (x, _) (y, _) -> compare (int_of_string x) (int_of_string y))
         (Hashtbl.fold (fun op l acc -> (op, l) :: acc) tally.by_op []));
  Printf.printf "%-34s %14.4f (%d of %d)\n" "fail_rate"
    (float_of_int tally.failed /. float_of_int (max 1 tally.attempted))
    tally.failed tally.attempted;
  let planted = List.rev !self_test_failures in
  Printf.printf "self-test: %s\n"
    (if planted = [] then "every checker accepted the true answer and rejected the planted one"
     else "FAILED (true answer rejected or planted one accepted) for " ^ String.concat ", " planted);
  let errors = List.rev !run_errors in
  List.iteri (fun i e -> if i < 5 then Printf.printf "run error: %s\n" e) errors;
  if List.length errors > 5 then Printf.printf "run error: ... %d more\n" (List.length errors - 5);
  emit
    ~correct:(tally.failed = 0 && planted = [] && !run_errors = [])
    tally metrics
