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

type t

val empty : t

(** [add_node g ~id ~label ~props] adds a node.  Raises [Invalid_argument]
    if a node or edge with the same identifier already exists. *)
val add_node : t -> id:string -> label:string -> props:Props.t -> t

(** [add_edge g ~id ~src ~tgt ~label ~props] adds an edge.  Raises
    [Invalid_argument] if the identifier is taken or if either endpoint is
    not a node of the graph. *)
val add_edge :
  t -> id:string -> src:string -> tgt:string -> label:string -> props:Props.t -> t

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

    Each call scans the whole edge list: O(E) per query, in edge-id
    order.  They suit one-off lookups; code that visits every node's
    neighbours should build an adjacency index once instead (as
    {!Fingerprint.view_of} does for the refinement). *)

(** Edges whose source or target is the given node. *)
val incident_edges : t -> string -> edge list

(** Edges whose source is the given node. *)
val out_edges : t -> string -> edge list

(** Edges whose target is the given node. *)
val in_edges : t -> string -> edge list

val set_node_props : t -> string -> Props.t -> t
val set_edge_props : t -> string -> Props.t -> t

(** [remove_edge g id] removes an edge; removing a missing edge is a no-op. *)
val remove_edge : t -> string -> t

(** [remove_node g id] removes a node and all its incident edges. *)
val remove_node : t -> string -> t

(** [map_ids f g] renames every node and edge identifier through [f],
    which must be injective on the identifiers of [g]. *)
val map_ids : (string -> string) -> t -> t

(** [disjoint_union a b] unions two graphs whose identifier sets must be
    disjoint (raises [Invalid_argument] otherwise). *)
val disjoint_union : t -> t -> t

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
