(** Graphviz DOT reader/writer for the subset SPADE emits: a [digraph]
    with quoted node statements and edge statements, each carrying an
    attribute list.  The node/edge [type] attribute holds the
    OPM/PROV-style label; remaining attributes are properties.  The
    reader parses a whole document held in memory. *)

type node = { n_id : string; n_attrs : (string * string) list }

type edge = { e_src : string; e_tgt : string; e_attrs : (string * string) list }

type graph = { g_name : string; g_nodes : node list; g_edges : edge list }

(** Structured parse reject: the byte offset the failure was detected
    at plus a reason.  The only exception {!of_string} raises, on any
    input — truncated, garbled, or otherwise malformed.  {!to_pgraph}
    reuses it with offset [0] for semantic rejects of hand-built
    [graph] values (no source text to point into). *)
exception Parse_error of { offset : int; reason : string }

val to_string : graph -> string

(** [of_string text] tokenizes all of [text] before parsing it, so a
    lexical error anywhere outranks an earlier grammar error.  A node
    may be declared after the edges that use it; an edge endpoint that
    is never declared rejects with the offset of the first such edge
    statement (edges in file order, source before target).  Linear in
    the number of statements. *)
val of_string : string -> graph

(** [to_pgraph g] converts to a property graph: the [type] attribute
    becomes the label (defaulting to ["Unknown"]), other attributes
    become properties, and edges get synthetic identifiers [e0], [e1],
    ... in file order. *)
val to_pgraph : graph -> Pgraph.Graph.t

(** [of_pgraph ~name g] renders a property graph; edge identifiers are
    dropped (DOT edges are anonymous). *)
val of_pgraph : name:string -> Pgraph.Graph.t -> graph
