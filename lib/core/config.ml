type pair_choice = Smallest | Largest

type retry = {
  attempts : int;
  trial_growth : int;
  backoff_s : float;
  seed_stride : int;
}

(* The historical hardcoded escalation (3 attempts, +2 trials, +101
   seed, no backoff) becomes the default policy; test_runner pins these
   numbers, so changing them is an observable break. *)
let default_retry = { attempts = 3; trial_growth = 2; backoff_s = 0.; seed_stride = 101 }

type t = {
  tool : Recorders.Recorder.tool;
  trials : int;
  filter_graphs : bool;
  pair_choice : pair_choice;
  backend : Gmatch.Engine.backend;
  opts : Gmatch.Match_opts.t;
  seed : int;
  flakiness : float;
  spade : Recorders.Spade.config;
  opus : Recorders.Opus.config;
  camflow : Recorders.Camflow.config;
  store : Artifact_store.t option;
  retry : retry;
  deadline_s : float option;
}

let default_trials = function
  | Recorders.Recorder.Spade | Recorders.Recorder.Spade_camflow
  | Recorders.Recorder.Spade_neo4j -> 3
  | Recorders.Recorder.Opus -> 2
  | Recorders.Recorder.Camflow -> 5

let default tool =
  {
    tool;
    trials = default_trials tool;
    filter_graphs = (tool = Recorders.Recorder.Camflow);
    pair_choice = Smallest;
    backend = Gmatch.Engine.default_backend;
    opts = Gmatch.Match_opts.default;
    seed = 1;
    flakiness = 0.08;
    spade = Recorders.Spade.default_config;
    opus = Recorders.Opus.default_config;
    camflow = Recorders.Camflow.default_config;
    store = None;
    retry = default_retry;
    deadline_s = None;
  }

let tool_name t = Recorders.Recorder.tool_name t.tool

(* Fingerprints enumerate fields explicitly (no Marshal, no derived
   show): the rendering is part of the on-disk cache contract and must
   not silently change when an unrelated field is added. *)

let spade_fp (c : Recorders.Spade.config) =
  Printf.sprintf "simplify=%b,io_runs=%b,io_runs_fixed=%b,versioning=%b,success_only=%b,procfs=%b"
    c.Recorders.Spade.simplify c.Recorders.Spade.io_runs c.Recorders.Spade.io_runs_fixed
    c.Recorders.Spade.versioning c.Recorders.Spade.success_only c.Recorders.Spade.use_procfs

let opus_fp (c : Recorders.Opus.config) =
  Printf.sprintf "env=%b,io=%b" c.Recorders.Opus.record_env c.Recorders.Opus.record_io

let camflow_fp (c : Recorders.Camflow.config) =
  Printf.sprintf "reserialize=%b,track_self=%b,filters=%s" c.Recorders.Camflow.reserialize
    c.Recorders.Camflow.track_self
    (String.concat "+" c.Recorders.Camflow.filter_types)

let recording_fingerprint t =
  Printf.sprintf "tool=%s;trials=%d;seed=%d;flakiness=%h;spade{%s};opus{%s};camflow{%s}"
    (tool_name t) t.trials t.seed t.flakiness (spade_fp t.spade) (opus_fp t.opus)
    (camflow_fp t.camflow)

(* What the transformation stage's stored output digest depends on:
   canonical or plain graph digests. *)
let transformation_fingerprint t = Printf.sprintf "canon=%b" t.opts.Gmatch.Match_opts.canon

(* Pruned and unpruned ASP encodings are pinned to the same verdicts
   and optimal costs, but not to the same optimal *witness*, and the
   generalized graph depends on which witness the solver returns — so
   [opts.prune] is part of the matching fingerprint.  [opts.canon] is
   there for the same reason: the canonical fast path (and
   the canonically relabelled ASP instances behind it) preserves
   verdicts and costs but may pick a different optimal witness.
   [opts.segment_min_nodes] (whose threshold decides *which* pairs
   decompose) joins them for the same reason again: stitched
   witnesses are cost-optimal but need not coincide with the
   whole-graph solver's choice.  The native cascade needs no field of
   its own: it is what [Direct] does, a fixed function of the graphs
   (no timing steers it), and backend_to_string renders it (and its
   "vf2"/"auto" aliases) as "direct".  [opts.memo] never changes
   an answer and stays out.  The rendering is part of every stored
   key: changing it orphans the stores already on disk. *)
let backend_fp t =
  let o = t.opts in
  Printf.sprintf "%s,prune=%b,fallback=%b,canon=%b,segment=%s"
    (Gmatch.Engine.backend_to_string t.backend)
    o.Gmatch.Match_opts.prune o.Gmatch.Match_opts.fallback o.Gmatch.Match_opts.canon
    (match o.Gmatch.Match_opts.segment_min_nodes with
    | Some n -> Printf.sprintf "on@%d" n
    | None -> "off")

let generalization_fingerprint t =
  Printf.sprintf "backend=%s;filter=%b;pair=%s" (backend_fp t) t.filter_graphs
    (match t.pair_choice with Smallest -> "smallest" | Largest -> "largest")

let comparison_fingerprint t = Printf.sprintf "backend=%s" (backend_fp t)
