(** Conversion between property graphs and their Datalog representation
    (paper Listing 1): for graph identifier [gid],

    - node [v] with label [l] becomes [n<gid>(v, "l").]
    - edge [e = (v, w)] with label [l] becomes [e<gid>(e, v, w, "l").]
    - property [prop(x, k) = s] becomes [p<gid>(x, "k", "s").] *)

exception Decode_error of string

(** [graph_to_facts ~gid g] encodes [g] under graph identifier [gid]
    (e.g. ["g1"], ["1"], ["bg"]). *)
val graph_to_facts : gid:string -> Pgraph.Graph.t -> Fact.t list

val graph_to_base : gid:string -> Pgraph.Graph.t -> Base.t

(** [graph_to_string ~gid g] renders the fact file text. *)
val graph_to_string : gid:string -> Pgraph.Graph.t -> string

(** [graph_of_string ~gid s] parses a fact file and rebuilds the graph.
    Raises {!Decode_error} on malformed fact shapes (wrong arities,
    properties attached to unknown elements, edges with missing
    endpoints). *)
val graph_of_string : gid:string -> string -> Pgraph.Graph.t
