(** Property graphs [G = (V, E, src, tgt, lab, prop)] as defined in
    Section 3.3 of the paper.

    Nodes and edges carry string identifiers (disjoint sets), a label from
    the alphabet of node/edge labels, and a property dictionary.  Graphs
    are immutable; all operations return new graphs. *)

type node = {
  node_id : string;
  node_label : string;
  node_props : Props.t;
}

type edge = {
  edge_id : string;
  edge_src : string;
  edge_tgt : string;
  edge_label : string;
  edge_props : Props.t;
}

(** A frozen graph.  Nodes and edges sit in arrays sorted by id
    ([String.compare] order), and positions in them are the int indices
    the matching and refinement code works on: [src.(ei)]/[tgt.(ei)]
    are edge [ei]'s endpoint indices, [outs.(i)]/[ins.(i)] node [i]'s
    outgoing and incoming edge indices in ascending order (a self-loop
    is in both), and [index] finds an element by id.  The arrays are
    shared between a graph and the graphs derived from it: read them,
    never write them. *)
type t = private {
  nodes : node array;
  edges : edge array;
  src : int array;
  tgt : int array;
  outs : int array array;
  ins : int array array;
  index : index;
}

and index

(** {2 Building}

    Every graph is built by one validating builder, which checks each
    element as it is added and raises [Invalid_argument] naming the
    first fault: ["Pgraph.Graph.add_node: duplicate identifier <id>"]
    for a node, and for an edge ["Pgraph.Graph.add_edge: <fault> <id>"]
    with fault [duplicate identifier], else [unknown source], else
    [unknown target].  {!Builder.freeze} then sorts the elements by id
    and builds the incidence arrays in O((N + E) log (N + E)).

    In OCaml 5, [Array.make] of more than 256 words whose initial
    element is in the minor heap empties the minor heap first, which
    stops every domain; [Array.map], [Array.mapi], [Array.map2] and
    [Array.init] start from their first result, so over freshly built
    records, strings or boxed [int64]s each call forces a collection.
    [freeze] and {!map_props} start such arrays from an [Array.sub] (or
    from a static element) and fill them in place; code on the match
    path does the same. *)

module Builder : sig
  type graph := t
  type t

  val create : unit -> t
  val add_node : t -> id:string -> label:string -> props:Props.t -> unit

  val add_edge :
    t -> id:string -> src:string -> tgt:string -> label:string -> props:Props.t -> unit

  val mem_node : t -> string -> bool
  val mem_edge : t -> string -> bool
  val find_node : t -> string -> node option

  (** The graph built so far.  The builder cannot be used afterwards. *)
  val freeze : t -> graph
end

val empty : t

(** [make ~nodes ~edges] adds [nodes], then [edges], in list order, to
    a fresh builder and freezes it. *)
val make : nodes:node list -> edges:edge list -> t

val node_count : t -> int
val edge_count : t -> int

(** Total number of elements (nodes plus edges). *)
val size : t -> int

val mem_node : t -> string -> bool
val mem_edge : t -> string -> bool

val find_node : t -> string -> node option
val find_edge : t -> string -> edge option

val nodes : t -> node list
val edges : t -> edge list

val node_ids : t -> string list
val edge_ids : t -> string list

(** {2 Incidence queries}

    O(degree) per query, in edge-id order; an id that is not a node has
    no edges.  Code that walks neighbourhoods by index reads [outs] and
    [ins] directly. *)

(** Edges whose source or target is the given node. *)
val incident_edges : t -> string -> edge list

(** Edges whose source is the given node. *)
val out_edges : t -> string -> edge list

(** Edges whose target is the given node. *)
val in_edges : t -> string -> edge list

(** {2 Whole-graph operations} *)

(** [map_props ~node ~edge g] replaces every node's properties by
    [node n] and every edge's by [edge e]; ids, labels and incidences
    are shared with [g]. *)
val map_props : node:(node -> Props.t) -> edge:(edge -> Props.t) -> t -> t

(** [filter ~node ~edge g] keeps the nodes [node] accepts, and the edges
    [edge] accepts whose endpoints are both kept. *)
val filter : node:(node -> bool) -> edge:(edge -> bool) -> t -> t

(** [map_ids f g] renames every node and edge identifier through [f],
    which must be injective on the identifiers of [g]. *)
val map_ids : (string -> string) -> t -> t

(** [equal_structure a b] holds when the graphs are identical up to
    property dictionaries (same identifiers, labels and incidences). *)
val equal_structure : t -> t -> bool

(** Full equality including properties. *)
val equal : t -> t -> bool

(** Multiset of node labels, sorted. *)
val node_label_multiset : t -> string list

(** Multiset of edge labels, sorted. *)
val edge_label_multiset : t -> string list

(** [subtract_matched g ~matched_nodes ~matched_edges] removes the listed
    elements from [g], but keeps any removed node that is still an endpoint
    of a surviving edge, relabelling it as a dummy node (paper
    Section 3.5).  Dummy nodes keep their identifier, get label
    [dummy_label] and empty properties. *)
val subtract_matched :
  t -> matched_nodes:string list -> matched_edges:string list -> t

val dummy_label : string

val is_dummy : node -> bool

val pp : Format.formatter -> t -> unit

(** Deterministic human-readable summary such as ["3 nodes, 2 edges"]. *)
val summary : t -> string

(** {2 Conveniences}

    Each of these rebuilds (or copies) the whole graph: O(N + E) per
    call.  Code that makes many changes collects them and builds once.
    [add_node] and [add_edge] raise as the builder does, [set_*_props]
    on an unknown id. *)

val add_node : t -> id:string -> label:string -> props:Props.t -> t

val add_edge :
  t -> id:string -> src:string -> tgt:string -> label:string -> props:Props.t -> t

val set_node_props : t -> string -> Props.t -> t
val set_edge_props : t -> string -> Props.t -> t

(** [remove_edge g id] removes an edge; removing a missing edge is a no-op. *)
val remove_edge : t -> string -> t

(** [remove_node g id] removes a node and all its incident edges. *)
val remove_node : t -> string -> t
