(** Exact canonical forms for property graphs.

    [form g] computes a deterministic canonical labelling of [g]'s
    underlying directed labelled graph by colour refinement (the
    {!Fingerprint} Weisfeiler–Leman colours continued to a fixpoint)
    with individualization–refinement branching on colour-class ties.
    Two graphs are label-isomorphic (similar in the Section 3.4 sense,
    i.e. ignoring properties) {e if and only if} their canonical
    digests are equal — unlike {!Fingerprint.of_graph}, which is only
    complete in one direction.

    Soundness does not rest on the refinement hashes: the digest is
    computed from a full structural certificate (node labels and edge
    incidences under the canonical order), so a hash collision can
    slow the search down but never equate non-isomorphic graphs.

    Forms are cached process-wide (keyed on structure and identifiers,
    which the witness arrays depend on; properties are irrelevant to
    the form), and the cache is safe to share across domains. *)

type form = {
  digest : string;
      (** canonical certificate digest; equal iff the graphs are
          label-isomorphic *)
  node_order : string array;
      (** original node ids listed in canonical order — position [i]
          holds the node canonically labelled [i] *)
  edge_order : string array;  (** likewise for edges *)
}

(** {2 Who consults forms}

    This module only computes forms; whether a run uses them is the
    [canon] field of that run's [Gmatch.Match_opts.t], passed along
    with each call rather than held here.  The field participates in
    [Config.backend_fp]: the canonical fast paths preserve every
    verdict and optimal cost, but (like candidate pruning) not
    necessarily the optimal {e witness} an ASP solve returns, so cached
    artifacts never mix the modes. *)

(** [form g] is the canonical form of [g], or [None] when the
    individualization–refinement search exceeds its leaf budget (very
    symmetric graphs).  The budget decision is itself
    isomorphism-invariant: isomorphic graphs either both canonicalize
    or both give up, so callers can treat [None] as "fall back to the
    solver" without risking asymmetric answers. *)
val form : Graph.t -> form option

(** [form_with g s] is [form g], where [s] is [Fingerprint.settled g]:
    a cache miss computes the form from [s] instead of refining [g]
    again, and a hit leaves [s] unforced.  A caller that also needs the
    settled colouring itself (the segment plan) builds it once and
    passes it to both. *)
val form_with : Graph.t -> Fingerprint.settled Lazy.t -> form option

(** [digest g] is [Option.map (fun f -> f.digest) (form g)]. *)
val digest : Graph.t -> string option

(** [relabel g f] renames [g]'s elements to their canonical names
    ([n0], [n1], … / [e0], [e1], …).  Isomorphic graphs relabel to
    structurally identical graphs (properties ride along untouched),
    which is what makes solve-memo keys rename-invariant. *)
val relabel : Graph.t -> form -> Graph.t

(** Original-id → canonical-id mapping of a form (identity on ids the
    form does not know). *)
val to_canonical : form -> string -> string

(** Canonical-id → original-id mapping — the translation step applied
    to model atoms solved on a canonically relabelled instance. *)
val of_canonical : form -> string -> string

(** Drop every cached form (for benchmarks timing cold
    canonicalization). *)
val clear : unit -> unit

(** [(computed, cache_hits)] — individualization-refinement searches
    actually run vs. calls answered from the form cache, process-wide.
    Every consumer of canonical forms (digest bypass, memo rekeying,
    store digests, the planner's delta certificates) shares the one
    cache, so [computed] staying at one per distinct graph proves the
    hot path never canonicalizes twice. *)
val stats : unit -> int * int

val reset_stats : unit -> unit
