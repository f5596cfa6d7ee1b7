(** Graph matchings: the output of similarity / subgraph-isomorphism
    solving — a mapping from the elements of a left graph to elements of
    a right graph, together with the property-mismatch cost of the
    paper's Listing 4 cost model. *)

type t = {
  node_map : (string * string) list;  (** left node id -> right node id *)
  edge_map : (string * string) list;  (** left edge id -> right edge id *)
  cost : int;  (** number of left properties with no equal counterpart *)
}

val empty : t

(** [find_node m id] looks up the right-hand node matched to [id]. *)
val find_node : t -> string -> string option

val find_edge : t -> string -> string option

(** [of_pairs g1 pairs cost] splits solver [h] pairs into node and edge
    components according to which identifiers are nodes of [g1]. *)
val of_pairs : Pgraph.Graph.t -> (string * string) list -> int -> t

(** [of_canon f1 f2] pairs two canonical orders positionally: node [i]
    of [f1]'s order with node [i] of [f2]'s, likewise for edges, with
    cost [0].  It is a label- and incidence-preserving bijection of
    [f1]'s graph onto [f2]'s whenever the digests are equal (raises
    [Invalid_argument] otherwise).  Property mismatch costs are {e not}
    considered; callers re-check them before using the witness where
    costs matter. *)
val of_canon : Pgraph.Canon.form -> Pgraph.Canon.form -> t

(** [is_injective m] checks both maps are injective functions. *)
val is_injective : t -> bool

(** [verify ~sub g1 g2 m] re-checks that [m] is a label- and
    structure-preserving matching of [g1] into [g2]; with [sub:false] it
    additionally checks the matching is surjective (a full isomorphism).
    Returns an error message naming the violated condition. *)
val verify : sub:bool -> Pgraph.Graph.t -> Pgraph.Graph.t -> t -> (unit, string) result

(** [verify_cost ~sub g1 g2 m] is [Ok (cost_of g1 g2 m)] when
    [verify ~sub g1 g2 m] succeeds and its error otherwise, in one pass
    over the maps with hashed id lookups. *)
val verify_cost : sub:bool -> Pgraph.Graph.t -> Pgraph.Graph.t -> t -> (int, string) result

(** Recompute the Listing-4 cost of a matching (left properties without an
    equal right counterpart). *)
val cost_of : Pgraph.Graph.t -> Pgraph.Graph.t -> t -> int

(** [zero_cost g1 g2 m] is [cost_of g1 g2 m = 0], stopping at the first
    property mismatch. *)
val zero_cost : Pgraph.Graph.t -> Pgraph.Graph.t -> t -> bool

val pp : Format.formatter -> t -> unit
