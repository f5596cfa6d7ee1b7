(** Backend-dispatching entry points used by the ProvMark pipeline.

    [Asp] runs the paper's Listing 3/4 specifications through the
    mini-ASP solver (the reference semantics); [Direct] is the native
    backend (much faster on larger graphs).  Both compute the same
    answers — this is enforced by the property-based test suite.

    The three entry points at the bottom take the run's
    {!Match_opts.t} as [?opts] (default {!Match_opts.default}); the
    sections below say which field each fast path reads.  Nothing here
    reads process-global matching state, so concurrent calls with
    different options do not interfere. *)

type backend =
  | Asp
  | Direct
      (** the native cascade of sound bypasses, never steered by
          timing.  Similarity: canonical digest, then the
          quotient/segment plan, then {!Incremental.similar} (greedy,
          exact VF2 fallback).  Generalization and comparison:
          canonical digest, then the zero-cost canonical witness, then
          {!Incremental.delta} witness reuse on rigid transient-only
          pairs (generalization pairs the segment plan takes skip it),
          then (for generalization) the segment plan, then VF2.  Each
          path taken is logged in {!Planner}. *)
  | Incremental
      (** creation-order greedy alignment with certified optimality and
          exact fallback (the paper's Section 5.4 suggestion); always
          returns the same verdicts and optimal costs as [Direct] *)

(** [Direct]: the CLI, the serve protocol and [Config.default] all
    default to it. *)
val default_backend : backend

(** Accepts ["asp"], ["direct"], ["incremental"] and the aliases
    ["vf2"] and ["auto"] (both [Direct]) and ["inc"]. *)
val backend_of_string : string -> (backend, string) result
val backend_to_string : backend -> string

(** {2 Graceful degradation}

    When the [Asp] backend exhausts its step budget (genuinely, or
    through an injected [solver.exhaust] fault), the engine falls back
    to the VF2 matcher instead of reporting a wrong verdict, and leaves
    a degradation note behind — unless [opts.fallback] is [false] (the
    CLI's [--fallback off]).  The field participates in the pipeline's
    backend fingerprint so cached artifacts never mix fallback and
    non-fallback answers. *)

(** Process-lifetime count of step-limit degradations: one per
    degradation note (a whole-graph fallback, or a segmented solve with
    at least one degraded segment).  Monotonic; the serve daemon's
    circuit breaker trips on its rate. *)
val degraded_total : unit -> int

(** {2 Canonical-form fast path}

    When [opts.canon] is set (the default), the entry points
    below consult canonical digests before grounding anything: digest
    equality decides {!similar} outright; unequal digests make
    {!generalization_matching} return [None]; and an equal-digest pair
    whose canonical witness has zero property-mismatch cost is answered
    with that witness directly (zero cost is trivially optimal and
    makes the downstream generalization/comparison result independent
    of which optimal witness is chosen, so the bypass is byte-identical
    to solving).  Each avoided solve is counted under its pipeline
    stage tag. *)

(** [canon_skip tag] records one solver bypass for stage [tag]
    (["similarity"], ["generalization"] or ["comparison"]; other tags
    are ignored).  Exposed for {!Core}'s digest-bucketing class
    builder, which skips whole pairwise checks. *)
val canon_skip : string -> unit

(** Per-stage bypass counts since the last reset, tag-sorted, zero
    entries omitted — the same shape as [Asp.Memo.stats]. *)
val canon_skips : unit -> (string * int) list

val canon_skip_total : unit -> int
val reset_canon_skips : unit -> unit

(** {2 Segmented matching}

    Pairs with at least [opts.segment_min_nodes] nodes (default
    {!Match_opts.default_segment_min_nodes}; [None] turns the prepass
    off) are decomposed through
    {!Pgraph.Summarize} before any solver sees them: a quotient-graph
    mismatch refutes the pair outright, and otherwise the forced pairs
    are taken as-is while each ambiguous segment becomes an independent
    solve of the selected backend, stitched back into one whole-graph
    witness that is verified before being reported.  The decomposition
    is exact for similarity and generalization; comparison (subgraph
    embedding does not preserve colours in the host graph) always runs
    whole.  Like [prune] and [canon], segmentation preserves verdicts
    and optimal costs but not necessarily the identity of the optimal
    witness, so the threshold participates in [Config.backend_fp].

    A segment solve that exhausts the ASP step budget falls back to VF2
    under [opts.fallback] like a whole-graph solve would, but the merged
    result carries exactly one degradation note, emitted on the calling
    domain after all segments finish — never one per segment, and never
    on a pool worker domain (whose note buffer the submitting benchmark
    would not drain). *)

(** [set_segment_runner (Some run)] injects a parallel executor for
    segment solves ([Core]'s pool installs one over its help queue).
    [run thunks] must run every thunk to completion before returning;
    each thunk fills one slot of a result array, so completion order
    never affects the answer. *)
val set_segment_runner : ((unit -> unit) list -> unit) option -> unit

(** Pairs refuted outright by the quotient prepass, per stage tag —
    the segmented counterpart of {!canon_skips}. *)
val segment_skips : unit -> (string * int) list

(** Pairs that went through segmented solving, per stage tag. *)
val segment_pairs : unit -> (string * int) list

(** Individual segment instances solved since the last reset. *)
val segment_solves : unit -> int

(** Stitched witnesses that failed verification and were re-solved
    whole — a should-not-happen safety net, surfaced so it is visible
    if it ever fires. *)
val segment_fallbacks : unit -> int

val reset_segment_stats : unit -> unit

(** [collect_notes f] runs [f] and returns its result with the
    degradation notes recorded on the calling domain while it ran, in
    emission order and deduplicated.  A stage runs on one domain, so a
    stage's scope yields exactly that stage's notes — deterministic at
    any [-j].  Scopes nest: a job the domain runs while [f] waits on
    the pool's help queue collects its own notes and leaves [f]'s in
    place. *)
val collect_notes : (unit -> 'a) -> 'a * string list

(** Shape similarity (Section 3.4): do the two graphs admit a label- and
    structure-preserving bijection? *)
val similar : ?opts:Match_opts.t -> ?backend:backend -> Pgraph.Graph.t -> Pgraph.Graph.t -> bool

(** Optimal bijective matching between two similar graphs, minimizing
    property mismatches — the generalization-stage matching. *)
val generalization_matching :
  ?opts:Match_opts.t ->
  ?backend:backend -> Pgraph.Graph.t -> Pgraph.Graph.t -> Matching.t option

(** Optimal embedding of the first graph into the second, minimizing
    property mismatches — the comparison-stage matching (background into
    foreground). *)
val subgraph_matching :
  ?opts:Match_opts.t ->
  ?backend:backend -> Pgraph.Graph.t -> Pgraph.Graph.t -> Matching.t option
