(** Graph matching through the mini-ASP solver, using the paper's
    Listing 3 / Listing 4 specifications: the two graphs are encoded as
    Datalog facts under graph ids [1] and [2], the program is parsed,
    grounded and solved, and the [h/2] atoms of the optimal model are
    decoded back into a {!Matching.t}.

    By default the choice generators are restricted to colour-compatible
    candidate pairs computed from {!Pgraph.Fingerprint} colour classes
    (the pruned Listings variants), which shrinks the grounded [h]
    search space without changing any verdict or optimal cost.  A run
    with [prune = false] in its {!Match_opts.t} uses the verbatim paper
    encodings instead; the test suite keeps them as the paper oracle.

    Every solving entry point takes [?opts] (default
    {!Match_opts.default}) and reads three of its fields: [prune]
    picks the encoding, [canon] solves canonically relabelled
    instances (so renamed copies of a pair share one memo entry), and
    [memo] decides whether the solve goes through {!Asp.Memo} at all. *)

(** Step budget handed to the solver; raise for very large graphs. *)
val default_max_steps : int

val similar : ?opts:Match_opts.t -> ?max_steps:int -> Pgraph.Graph.t -> Pgraph.Graph.t -> bool

val iso_min_cost :
  ?opts:Match_opts.t -> ?max_steps:int -> Pgraph.Graph.t -> Pgraph.Graph.t -> Matching.t option

val sub_iso_min_cost :
  ?opts:Match_opts.t -> ?max_steps:int -> Pgraph.Graph.t -> Pgraph.Graph.t -> Matching.t option

(** {2 Step-limit-aware variants}

    The plain entry points above fold solver exhaustion into their
    answer ([Unknown] reads as "not similar" / "no matching"), which is
    the historical behaviour but conflates "proved absent" with "ran
    out of budget".  The [_checked] variants separate the two so
    {!Engine} can fall back to the VF2 backend when the solver gives up
    — including when a min-cost solve returns a model it could not
    prove optimal.  Solver exhaustion is also a fault-injection tap
    point ([solver.exhaust] in {!Faults.Plan.t}): an injected site runs
    with a zero step budget and reports [`Step_limit]. *)

val similar_checked :
  ?opts:Match_opts.t ->
  ?max_steps:int -> Pgraph.Graph.t -> Pgraph.Graph.t -> (bool, [ `Step_limit ]) result

val iso_min_cost_checked :
  ?opts:Match_opts.t ->
  ?max_steps:int -> Pgraph.Graph.t -> Pgraph.Graph.t -> (Matching.t option, [ `Step_limit ]) result

val sub_iso_min_cost_checked :
  ?opts:Match_opts.t ->
  ?max_steps:int -> Pgraph.Graph.t -> Pgraph.Graph.t -> (Matching.t option, [ `Step_limit ]) result
