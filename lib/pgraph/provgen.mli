(** ProvGen-style synthetic provenance-graph generator.

    Produces property graphs with predictable structure at parameterized
    scale (10² to 10⁵ nodes), following Firth & Missier's ProvGen idea:
    graphs are grown from a seed as a mix of small provenance motifs
    (chains, fans, diamonds) over a typed node vocabulary, with a
    controllable density of extra cross edges and a controllable ratio
    of transient properties — the per-run noise the generalization
    stage must strip.

    {2 Determinism model}

    Generation is a {e pure function} of [(spec, seed, run)].  Every
    random decision is drawn through splitmix64 keyed on the seed and a
    per-element site string (the fault injector's PR 4 idiom), never
    from shared mutable generator state, so the value drawn for node
    [i] does not depend on how many values other nodes drew, on
    evaluation order, or on which worker domain generated the graph.
    Two runs — or a [-j1] and a [-j4] corpus materialization — produce
    byte-identical output.  A key's state is a left fold over its
    bytes, so [generate] resumes it from the fold of a shared prefix
    (["node/"], then ["node/17"], then the draw's suffix); the values
    are those of folding the whole key.

    [run] selects the trial: persistent structure and persistent
    property values depend only on [(spec, seed)], transient property
    values additionally on [run].  Generalizing across two runs of the
    same spec therefore strips exactly the transient values, mirroring
    what the recorders' per-run noise does to real benchmarks. *)

type motif = Chain | Fan | Diamond

type spec = {
  nodes : int;  (** node count; supported range 1 to 100_000 *)
  density : float;
      (** expected extra backward edges per node beyond the motif
          edges, [0.0] for motif-only graphs *)
  motif_weights : (motif * int) list;
      (** relative weights of the motif mix; zero-total falls back to
          chains *)
  node_types : (string * int) list;
      (** node-label distribution (weighted).  The default vocabulary
          is the PROV vocabulary the recorders use, so generated graphs
          serialize into the same PROV-JSON sections real CamFlow
          output occupies. *)
  edge_types : (string * int) list;  (** edge-label distribution (weighted) *)
  transient_ratio : float;
      (** probability that an element carries a transient property
          whose value differs between runs, in [0, 1] *)
}

(** [default_spec ~nodes] uses the recorders' PROV vocabulary, an even
    motif mix, density [0.3] and transient ratio [0.25]. *)
val default_spec : nodes:int -> spec

(** [validate spec] rejects out-of-range fields with a reason. *)
val validate : spec -> (unit, string) result

(** Stable one-line canonical rendering of a spec — the corpus
    manifest format, and the fingerprint under which generated inputs
    are keyed in the artifact store. *)
val spec_to_string : spec -> string

val spec_of_string : string -> (spec, string) result

(** [generate ?run ~seed spec] generates one graph ([run] defaults to
    [1]).  Nodes are [n0..n<k>], edges [e0..e<k>] in creation order;
    raises [Invalid_argument] on an invalid spec. *)
val generate : ?run:int -> seed:int -> spec -> Graph.t

(** [pair ~seed spec] is [(generate ~run:1, generate ~run:2)] — two
    trials of the same benchmark: identical structure and persistent
    properties, transient values redrawn. *)
val pair : seed:int -> spec -> Graph.t * Graph.t

(** [match_pair ~seed spec] is a matching workload like
    {!Bench_gen.match_pair} at generator scale: the run-1 graph paired
    with its run-2 trial under a random identifier permutation — similar
    by construction with a small nonzero optimal alignment cost. *)
val match_pair : seed:int -> spec -> Graph.t * Graph.t

(** {2 Expected-shape envelope}

    The generator's structural guarantees, used by the property suite:
    the edge count always lies within {!edge_bounds} and each node
    label's frequency is within a few standard deviations of its
    weight share (see the test suite for the exact tolerance). *)

(** [edge_bounds spec] is an inclusive [(low, high)] envelope for the
    edge count of any graph generated from [spec]: at least a spanning
    connectivity's worth of edges, at most the motif maximum plus the
    density draws. *)
val edge_bounds : spec -> int * int

(** {2 Corpus tiers}

    The CI-friendly ladder (openml-to-prov's corpus modes): each tier
    includes every lighter tier, so [Full] is the whole corpus.
    [Light] stays small enough for CI; [Full] tops out at 10⁵ nodes. *)

type tier = Light | Scaled | Large | Full

val tier_of_string : string -> (tier, string) result

val tier_name : tier -> string

(** [tier_specs tier] lists the [(name, spec)] entries the tier
    materializes, lighter tiers first, in a stable order. *)
val tier_specs : tier -> (string * spec) list
