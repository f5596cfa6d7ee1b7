(** Cheap isomorphism-invariant fingerprints for property graphs.

    Two graphs with different fingerprints cannot be similar (isomorphic
    up to properties); equal fingerprints are only a heuristic signal.
    ProvMark's generalization stage uses fingerprints to bucket trial runs
    into candidate similarity classes before invoking the exact solver,
    and the regression-testing use case uses them as a fast change
    detector. *)

type t

(** The shared Weisfeiler–Leman refinement depth used by every refined
    consumer: {!of_graph}, the exact-similarity candidate pruning in
    [Gmatch.Asp_backend] and the starting colouring of {!Canon}.

    The soundness ordering to keep in mind when choosing a depth for a
    new consumer: colours at {e every} round are isomorphism-invariant
    (any label- and incidence-preserving bijection maps each element
    to an equally coloured one), so deeper rounds are always safe for
    {e exact} isomorphism questions and only sharpen the partition.
    Round 0, by contrast, guarantees exactly label equality — which is
    all the {e approximate} (cost-minimizing) Listing 3/4 matchings
    may assume, since their hard constraints enforce nothing beyond
    label and endpoint agreement.  Exact consumers should refine
    [default_rounds] deep (or, like [Canon], continue to a fixpoint);
    approximate consumers must stay at round 0. *)
val default_rounds : int

(** [of_graph g] computes a fingerprint from label multisets and a
    [default_rounds]-deep Weisfeiler–Leman colour refinement of the
    underlying directed labelled graph.  Properties are ignored
    (similarity is shape-only, per Section 3.4). *)
val of_graph : Graph.t -> t

(** [node_colours ?rounds g] lists [(node_id, colour)] for every node,
    where colours are isomorphism-invariant equivalence-class hashes.
    [rounds = 0] (the default) colours by node label alone; each further
    round applies one Weisfeiler–Leman refinement step over incoming and
    outgoing labelled edges.  Two nodes matched by any label-respecting
    isomorphism necessarily share colours at every round; at round 0 the
    guarantee weakens to label equality — see {!default_rounds} for the
    resulting usage rule. *)
val node_colours : ?rounds:int -> Graph.t -> (string * int64) list

(** [stable_rounds g] is the smallest refinement depth at which one more
    round no longer splits a colour class (capped at the node count).
    Colour hash {e values} keep changing past the partition fixpoint, so
    two graphs are only comparable at one common round: pair consumers
    such as [Summarize] take [max (stable_rounds g1) (stable_rounds g2)]
    and evaluate {!node_colours} at that round on both graphs.  Colours
    at any round are isomorphism-invariant, so any common round is sound
    — a deeper one merely sharpens the partition. *)
val stable_rounds : Graph.t -> int

(** [edge_colours ?rounds g] lists [(edge_id, colour)] where an edge's
    colour combines its label with the round-[rounds] colours of its
    endpoints.  At round 0 this is (label, src label, tgt label), which
    is sound for all matching encodings: the hard constraints force
    matched edges to agree on label and on matched endpoints. *)
val edge_colours : ?rounds:int -> Graph.t -> (string * int64) list

val equal : t -> t -> bool
val compare : t -> t -> int

(** {2 The refinement}

    The one Weisfeiler–Leman implementation in the library: the
    functions above, {!Canon}'s fixpoint and [Summarize]'s quotients and
    segment plans all run it over the graph's own index arrays
    ([Graph.outs], [Graph.ins], [Graph.src], [Graph.tgt]).  The only
    state it adds is each edge's label hash, as seen from either end.
    A round costs O(E log E) — each edge is hashed once per direction
    and each node sorts its own neighbour multisets.  Colour arrays are
    indexed like [Graph.nodes].

    The hash values are pinned by the test suite: they feed store keys
    ([Provmark.Artifact_store.graph_digest]), canonical digests and
    witnesses, quotient digests and the solver's fault-site names, so a
    change to any of them would orphan every artifact store on disk. *)

(** Round-0 colours: each node label's hash. *)
val label_colours : Graph.t -> int64 array

(** [colours_at g rounds] are the colours after [rounds] rounds from
    {!label_colours} — [node_colours ~rounds] as an array. *)
val colours_at : Graph.t -> int -> int64 array

(** A graph with its colouring settled from {!label_colours}: [rounds]
    is {!stable_rounds}, [colours] the colours after it and [next] those
    one round further — the same partition under different hash values.
    {!Canon} branches from [next], [Summarize] groups by [colours]; a
    caller that needs both builds it once and passes it to each.
    [hashes] holds the per-edge label hashes the rounds fold in. *)
type settled = private {
  graph : Graph.t;
  hashes : edge_hashes;
  rounds : int;
  colours : int64 array;
  next : int64 array;
}

and edge_hashes

val settled : Graph.t -> settled

(** [refine s n colours] applies [n] more refinement rounds over
    [s.graph].  A round gives each node a new colour hashing its old
    one with the sorted (edge label, neighbour colour) multisets of its
    outgoing and then its incoming edges. *)
val refine : settled -> int -> int64 array -> int64 array

(** [settle s colours] refines [colours] over [s.graph] until one more
    round no longer splits a colour class (at most the node count of
    splitting rounds).  It returns [(r, at, next)]: the [r] splitting
    rounds applied, the colours after them, and the colours one round
    further.  From {!label_colours}, [r] is {!stable_rounds}. *)
val settle : settled -> int64 array -> int * int64 array * int64 array

(** The FNV-1a hash combinators the colours are built from, exposed so
    {!Canon} can individualize nodes with the same hashing and
    [Summarize] can render colours. *)
module Hash : sig
  type h = int64

  val seed : h
  val string : h -> string -> h
  val int64 : h -> h -> h

  (** Zero-padded lowercase hexadecimal, as [Printf.sprintf "%016Lx"]. *)
  val hex : h -> string
end

(** Stable hexadecimal rendering, usable as a dictionary key. *)
val to_hex : t -> string

val pp : Format.formatter -> t -> unit
