(** The matching knobs of one run, as one immutable value.

    Every field keeps verdicts and optimal costs fixed; [prune], [canon]
    and [segment_min_nodes] may change which optimal {e witness} an ASP
    solve returns, and [fallback] changes answers only when the solver
    exhausts its step budget, so those four participate in
    [Config.backend_fp] and cached artifacts never mix modes.  [memo]
    never changes an answer and stays out of every key.

    The value travels with the run ([Config.t], the serve daemon's
    config, an optional [?opts] argument on each entry point), so two
    runs in one process may use different options side by side. *)

type t = {
  prune : bool;
      (** restrict the ASP choice generators to colour-compatible
          candidate pairs; [false] runs the verbatim Listings 3/4
          encodings (kept as the paper oracle) *)
  canon : bool;
      (** canonical-digest fast paths, canonically relabelled solve
          instances and rename-invariant store digests *)
  segment_min_nodes : int option;
      (** decompose pairs with at least this many nodes through
          {!Pgraph.Summarize}; [None] always solves whole *)
  fallback : bool;
      (** fall back to VF2 when the ASP solver exhausts its step
          budget (CLI: [--fallback]) *)
  memo : bool;  (** serve repeated ASP subproblems from {!Asp.Memo} (CLI: [--no-cache]) *)
}

(** Pairs strictly below this node count solve whole: the
    decomposition only pays for itself once grounding dominates. *)
val default_segment_min_nodes : int

(** Everything on, segmentation at {!default_segment_min_nodes}. *)
val default : t
