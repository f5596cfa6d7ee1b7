(** Type-aggregated quotient graphs and exact pair segmentation.

    Big graphs should not hit the matching solver whole.  Following
    Moreau's aggregation by provenance types, nodes are grouped by their
    k-round Weisfeiler–Leman colour (the {!Fingerprint} refinement, a
    provenance-type signature), which yields two things:

    - a {e quotient graph} — one node per colour class, one edge per
      (source class, target class, label) bundle — small enough to
      compare structurally in linear time.  Isomorphic graphs have
      identical quotients (colour hashes are content-comparable across
      graphs and classes are emitted in colour order), so a quotient
      mismatch refutes similarity outright;

    - a {e segmentation plan} for an equal-quotient pair: nodes whose
      colour class is a singleton in both graphs are {e forced} (every
      label-isomorphism must pair them, because isomorphisms preserve
      colours), and the remaining {e ambiguous} nodes split into the
      weakly connected components of the subgraph they induce.  By
      construction no edge joins two different components, so each
      component — padded with its forced neighbours as uniquely
      relabelled {e anchor} nodes and the boundary edges to them — is an
      independent matching instance, and the global minimum cost is
      exactly the forced cost plus the sum of per-segment minima.
      Components are grouped by an isomorphism-invariant signature;
      groups with several interchangeable components are merged into one
      instance so the solver, not the planner, picks the component
      assignment.  The decomposition is exact for bijective matching
      (similarity and generalization); subgraph embedding does not
      preserve colours in the host graph, so comparison must stay
      whole-graph. *)

(** A quotient graph plus the colour classes it aggregates.  [qgraph]'s
    node ids are [q<i>] in ascending colour order with labels
    [<colour-hex>*<class-size>]; its edges aggregate original edges by
    (source class, target class, label) with the multiplicity folded
    into the label.  Two graphs related by any label-isomorphism produce
    structurally equal quotients ({!Graph.equal_structure}). *)
type quotient = {
  qgraph : Graph.t;
  classes : (int64 * string list) list;  (** colour -> sorted member ids *)
  rounds : int;  (** refinement depth the classes were computed at *)
}

(** [quotient ?rounds g] aggregates [g] by colour class.  Without
    [?rounds] the depth is [Fingerprint.stable_rounds g]; pair consumers
    must pass one common depth for both graphs (colour hashes are only
    comparable at equal rounds). *)
val quotient : ?rounds:int -> Graph.t -> quotient

(** Deterministic content digest of the quotient graph, usable as a
    cache key component or counter label. *)
val quotient_digest : quotient -> string

(** One independent matching instance cut out of a pair: the ambiguous
    component(s) of each side plus anchor copies of adjacent forced
    nodes.  An anchor keeps its original identifier but is relabelled
    [\x01anchor:<g2-id>] — the label names its forced counterpart, so
    label equality alone pins every anchor to its image — and its
    properties are emptied on both sides (the forced pair's property
    cost is accounted once, outside the segment).  [pieces] counts the
    interchangeable components merged into the instance. *)
type segment = {
  left : Graph.t;
  right : Graph.t;
  pieces : int;
  digest : string;  (** deterministic content digest of the instance pair *)
}

type plan = {
  rounds : int;  (** common refinement depth used for both graphs *)
  forced_nodes : (string * string) list;
      (** singleton-class pairs, colour-ascending: g1 id -> g2 id *)
  forced_edges : (string * string) list;
      (** unique edges between forced endpoints: g1 edge id -> g2 edge id *)
  segments : segment list;  (** digest-sorted independent instances *)
}

type outcome =
  | Mismatch
      (** provably no label-isomorphism exists (class histogram, forced
          bundle or component-signature disagreement) — sound even under
          colour-hash collisions, which only coarsen classes *)
  | Whole
      (** no productive decomposition (the largest instance is as big as
          the whole graph, or a defensive check failed): solve whole *)
  | Segmented of plan

(** [plan_settled s1 s2] decides the decomposition of the pair whose
    settled colourings are [s1] and [s2] ({!Fingerprint.settled}).
    Deterministic: a pure function of the two graphs; segment instances
    are built in sorted member/edge order and listed digest-sorted. *)
val plan_settled : Fingerprint.settled -> Fingerprint.settled -> outcome

(** [plan g1 g2] is [plan_settled] of the two graphs' settled colourings. *)
val plan : Graph.t -> Graph.t -> outcome

(** Largest left-instance node count, 0 for a fully forced plan — the
    quantity solver grounding cost now scales in. *)
val max_segment_nodes : plan -> int

(** [stitch p witnesses] merges per-segment witnesses ([(node pairs,
    edge pairs)], in [p.segments] order) with the forced pairs into one
    whole-graph [(node map, edge map)]: forced pairs first, then each
    segment's in order.  Anchor pairs repeat forced pairs and are
    dropped; every other id is an original id, so the result is directly
    a whole-pair matching. *)
val stitch :
  plan ->
  ((string * string) list * (string * string) list) list ->
  (string * string) list * (string * string) list

(** Recognizes the reserved anchor labels (exposed for tests). *)
val is_anchor_label : string -> bool
