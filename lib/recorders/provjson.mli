(** W3C PROV-JSON serialization, the format CamFlow reports provenance
    in.  Nodes are binned into the [entity] / [activity] / [agent]
    sections according to their label; the specific CamFlow type (file,
    path, task, ...) travels in the [prov:type] property.  Edges map to
    the standard relation sections with their [prov:*] endpoint keys;
    non-standard relation labels use a generic [relation] section. *)

(** Structured format reject: a reason, plus the byte offset for
    JSON-level failures ([None] for structural rejects of well-formed
    JSON, which name the offending section/node/edge in the reason
    instead).  The only exception {!of_string} and {!to_pgraph}
    raise on any input, however truncated or garbled. *)
exception Format_error of { offset : int option; reason : string }

(** Labels serialized into the [activity] section; [agent_labels] into
    [agent]; everything else is an [entity]. *)
val activity_labels : string list

val agent_labels : string list

val of_pgraph : Pgraph.Graph.t -> Minijson.Json.t

(** Raises {!Format_error} when the document does not follow the
    PROV-JSON structure produced by {!of_pgraph} (unknown sections,
    missing endpoint keys, dangling references). *)
val to_pgraph : Minijson.Json.t -> Pgraph.Graph.t

val to_string : Pgraph.Graph.t -> string

(** [of_string text] parses the whole document with
    {!Minijson.Json.of_string_located}, whose offset a JSON-level reject
    carries, then converts it with {!to_pgraph}. *)
val of_string : string -> Pgraph.Graph.t
