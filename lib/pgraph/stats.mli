(** Descriptive statistics over property graphs, used by the demonstration
    section reports (Table 3 shapes) and by the scalability analysis. *)

type t = {
  nodes : int;
  edges : int;
  dummy_nodes : int;
  node_labels : (string * int) list;  (** label histogram, sorted by label *)
  edge_labels : (string * int) list;
  properties : int;  (** total number of property bindings *)
  connected_components : int;  (** weakly connected components *)
}

val of_graph : Graph.t -> t

(** [component_roots g] names each node's weakly connected component by
    one member's index: nodes [i] and [j] (indices into [g.nodes]) are
    connected exactly when [.(i)] and [.(j)] are equal. *)
val component_roots : Graph.t -> int array

(** [shape_line s] renders e.g. ["4n/3e (2 components)"] for table cells. *)
val shape_line : t -> string

val pp : Format.formatter -> t -> unit
