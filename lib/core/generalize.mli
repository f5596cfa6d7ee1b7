(** Stage 3 — graph generalization (paper Section 3.4).

    From the trial graphs of one variant, find a representative pair of
    similar graphs, align them with an optimal (property-mismatch
    minimizing) isomorphism, and keep only the property values that
    agree — discarding transient data such as timestamps, pids and
    identifiers. *)

type failure =
  | No_trials
  | No_consistent_pair
      (** every graph was only similar to itself — all runs failed *)
  | Alignment_failed of string

val failure_to_string : failure -> string

type outcome = {
  general : Pgraph.Graph.t;  (** the generalized representative *)
  class_size : int;  (** size of the similarity class the pair came from *)
  classes : int;  (** number of similarity classes among kept trials *)
  discarded : int;  (** trials dropped (filtering + singleton classes) *)
}

(** [generalize ~opts ~backend ~filter ~pair_choice graphs] implements the
    stage: optional pre-filtering of obviously incomplete graphs,
    similarity classing (with a fingerprint pre-bucketing before the
    exact solver), discarding singleton classes, choosing the
    smallest/largest eligible class, and property intersection over an
    optimal matching of the chosen pair.  [opts] (default
    [Gmatch.Match_opts.default]) reaches every engine call. *)
val generalize :
  ?opts:Gmatch.Match_opts.t ->
  backend:Gmatch.Engine.backend ->
  filter:bool ->
  pair_choice:Config.pair_choice ->
  Pgraph.Graph.t list ->
  (outcome, failure) result

(** [intersect_props g1 g2 m] keeps, for every element of [g1], only the
    properties that agree with its [m]-image in [g2] — the property
    generalization step, exposed for the multi-behaviour pipeline
    ({!Nondet}). *)
val intersect_props : Pgraph.Graph.t -> Pgraph.Graph.t -> Gmatch.Matching.t -> Pgraph.Graph.t
