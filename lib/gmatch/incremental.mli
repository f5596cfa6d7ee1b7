(** Incremental matching — the optimization the paper suggests in
    Section 5.4: "if matched nodes are usually produced in the same
    order (according to timestamps), then it may be possible to
    incrementally match the foreground and background graphs".

    Elements are aligned greedily in creation order (recorders assign
    monotonically increasing identifiers, standing in for timestamps),
    label-compatibly.  The greedy matching is {e certified}: it is
    returned only when it verifies structurally and its property cost
    reaches an admissible lower bound — i.e. when it is provably
    optimal.  Otherwise the exact {!Vf2} search runs, so results are
    always identical to the exact backend; only the time differs. *)

(** How often the fast path succeeded since program start, as
    [(certified, fallbacks)] — exposed so benchmarks can report the hit
    rate. *)
val stats : unit -> int * int

val reset_stats : unit -> unit

val similar : Pgraph.Graph.t -> Pgraph.Graph.t -> bool

val iso_min_cost : Pgraph.Graph.t -> Pgraph.Graph.t -> Matching.t option

val sub_iso_min_cost : Pgraph.Graph.t -> Pgraph.Graph.t -> Matching.t option

(** {2 Delta re-solve}

    Witness reuse across transient-only variation — consecutive trials
    of one benchmark share a canonical structure digest and differ only
    in property values.  [delta ~sub f1 f2 g1 g2] answers such a pair
    without search when the structure is {e rigid}: Weisfeiler–Leman
    refinement at the pair's common stable depth separates every node
    and every edge, so the automorphism group is trivial and exactly
    one label-isomorphism exists between the digest-equal graphs.
    That unique bijection is [Matching.of_canon f1 f2]; it is optimal for
    any property values and byte-identical to every backend's answer,
    which is why the [Direct] backend's cascade may take this path
    without changing output.  Equal digests pin the element counts, so with [~sub:true]
    the same argument covers embeddings (injective + equal sizes =
    bijective).

    Returns [None] — never an unsound witness — when the digests
    differ, the structure is not rigid, or the rebuilt witness fails
    verification (theorem says impossible; the verifier turns a bug
    into a performance loss instead of a wrong answer).  Rigidity
    verdicts are cached per digest, so trials 2..N skip the refinement
    too; the cache is a pure performance memo and never changes an
    answer. *)
val delta :
  sub:bool ->
  Pgraph.Canon.form ->
  Pgraph.Canon.form ->
  Pgraph.Graph.t ->
  Pgraph.Graph.t ->
  Matching.t option

(** [(certified, fallbacks, cache_hits)] for the delta path.  Certified
    and fallback counts are pure functions of the pairs attempted;
    cache hits can depend on domain scheduling and are only surfaced
    where that is acceptable (serve stats, benches). *)
val delta_stats : unit -> int * int * int

(** Clear delta counters and the rigidity cache (tests, benches). *)
val reset_delta : unit -> unit
