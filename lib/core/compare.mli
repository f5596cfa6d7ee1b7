(** Stage 4 — graph comparison (paper Section 3.5).

    Matches the generalized background graph to a subgraph of the
    generalized foreground graph (approximate subgraph isomorphism,
    minimizing mismatched properties) and subtracts the matched part.
    What remains is the target graph; endpoints of surviving edges that
    were subtracted are kept as dummy nodes. *)

type failure =
  | Background_not_embeddable
      (** provenance recording was not monotonic for this benchmark: the
          background structure does not appear in the foreground *)

val failure_to_string : failure -> string

type outcome = {
  target : Pgraph.Graph.t;  (** empty graph when the target activity was not detected *)
  matching_cost : int;  (** residual property mismatches of the embedding *)
}

(** [compare_with opts ~backend ~bg ~fg] runs the stage under the
    matching options [opts]. *)
val compare_with :
  Gmatch.Match_opts.t ->
  backend:Gmatch.Engine.backend ->
  bg:Pgraph.Graph.t ->
  fg:Pgraph.Graph.t ->
  (outcome, failure) result

(** {!compare_with} under [Gmatch.Match_opts.default]. *)
val compare :
  backend:Gmatch.Engine.backend ->
  bg:Pgraph.Graph.t ->
  fg:Pgraph.Graph.t ->
  (outcome, failure) result
