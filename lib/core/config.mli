(** ProvMark pipeline configuration, mirroring the original
    [config/config.ini] profiles: which capture tool to drive, how many
    trials to record, whether to pre-filter obviously incomplete graphs,
    and the per-tool recorder settings. *)

type pair_choice =
  | Smallest  (** pick the similarity class with the smallest graphs (paper default) *)
  | Largest  (** also works, per Section 3.4 *)

(** The retry policy {!Runner} applies when an attempt fails: up to
    [attempts] tries, each recording [trial_growth] more trials than
    the last (Section 3.2's answer to flaky capture runs), sleeping
    [backoff_s] seconds between attempts and perturbing the seed by
    [seed_stride] so a retry re-records rather than replaying the same
    flaky trace.  The seed perturbation also moves the recorder
    fault-injection sites, so an injected fault does not deterministically
    re-fire on every retry. *)
type retry = {
  attempts : int;  (** total attempts, including the first (>= 1) *)
  trial_growth : int;  (** extra trials added per retry *)
  backoff_s : float;  (** sleep between attempts (0 = immediate) *)
  seed_stride : int;  (** seed increment per retry *)
}

(** 3 attempts, +2 trials, +101 seed, no backoff — the historical
    hardcoded escalation. *)
val default_retry : retry

type t = {
  tool : Recorders.Recorder.tool;
  trials : int;
  filter_graphs : bool;
      (** drop obviously incomplete graphs before similarity classing;
          the original default is true for CamFlow only *)
  pair_choice : pair_choice;
  backend : Gmatch.Engine.backend;
  opts : Gmatch.Match_opts.t;
      (** matching options; [Gmatch.Match_opts.default] unless a test or
          bench selects another mode (CLI: [--no-cache], [--fallback]) *)
  seed : int;  (** base of the per-run transient-value derivation *)
  flakiness : float;  (** probability a SPADE/CamFlow run is perturbed *)
  spade : Recorders.Spade.config;
  opus : Recorders.Opus.config;
  camflow : Recorders.Camflow.config;
  store : Artifact_store.t option;
      (** when set, every pipeline stage consults the content-addressed
          artifact store before computing (CLI: [--store]/[--no-store]) *)
  retry : retry;  (** attempt escalation policy (CLI: [--retries]) *)
  deadline_s : float option;
      (** per-stage wall-clock budget (CLI: [--deadline]).  Checked
          post hoc: a stage that overruns fails with
          {!Result.Deadline_exceeded} instead of being cancelled
          mid-flight, and the failure is never cached (it depends on
          timing, not content). *)
}

(** Per-tool defaults: 3 trials for SPADE, 2 for OPUS, 5 for CamFlow
    (the appendix batch runs used more trials for CamFlow than the
    others), [filter_graphs] on for CamFlow only.  [store] is [None],
    [opts] is [Gmatch.Match_opts.default]. *)
val default : Recorders.Recorder.tool -> t

val default_trials : Recorders.Recorder.tool -> int

val tool_name : t -> string

(** {2 Cache-key fingerprints}

    Stable renderings of exactly the configuration fields each pipeline
    stage reads, used in artifact-store keys.  Splitting them per stage
    is what makes one flipped knob recompute only downstream of the
    stage that reads it: changing [backend] leaves recording and
    transformation artifacts valid; changing [seed] invalidates
    everything.  The [store] handle itself never participates. *)

(** Fields the recording stage reads: tool, trials, seed, flakiness and
    the per-tool recorder settings. *)
val recording_fingerprint : t -> string

(** The transformation stage reads no configuration field, but the
    output digest it stores does: canonical graph digests under
    [opts.canon], plain ones otherwise.  The flag is therefore its
    fingerprint (["canon=true"]/["canon=false"]), so a run with canon
    off never keys its generalizations off a canon-on digest. *)
val transformation_fingerprint : t -> string

(** The matching part of the generalization and comparison keys:
    backend plus the [prune], [fallback], [canon] and
    [segment_min_nodes] options, e.g.
    ["direct,prune=true,fallback=true,canon=true,segment=on@64"].  A
    pure function of its argument whose rendering is part of the
    on-disk cache contract. *)
val backend_fp : t -> string

(** Fields the generalization stage reads: {!backend_fp},
    [filter_graphs], [pair_choice]. *)
val generalization_fingerprint : t -> string

(** Fields the comparison stage reads: {!backend_fp}. *)
val comparison_fingerprint : t -> string
