(** Stand-alone graph-matching operations over serialized graphs — the
    shared core of the [provmark match] subcommand and the serve
    daemon's [match] requests.

    Both front ends parse the same formats, run the same engine entry
    points and render the same verdict text, so a daemon response is
    byte-identical to the batch CLI's output for the same inputs.  The
    rendering is deterministic: the engine's witnesses are a pure
    function of the pair, the backend and the matching options passed
    in, and the mapping lines are sorted. *)

type kind =
  | Similar  (** label/structure-preserving bijection exists? *)
  | Generalize  (** optimal bijective matching, minimizing property cost *)
  | Compare  (** optimal embedding of the first graph into the second *)

val kind_of_string : string -> (kind, string) result
val kind_to_string : kind -> string

type format = Dot | Provjson

val format_of_string : string -> (format, string) result
val format_name : format -> string

(** Pick a format from a file name: [".dot"] parses as DOT, everything
    else as PROV-JSON. *)
val format_for_file : string -> format

(** Parse one serialized graph; parse failures come back as a rendered
    message instead of an exception. *)
val parse_graph : format -> string -> (Pgraph.Graph.t, string) result

(** [run kind a b] renders the verdict text: a ["similar: yes|no"]
    line, or a cost line plus sorted [n]/[e] mapping lines for the
    witness-producing kinds.  [opts] defaults to
    [Gmatch.Match_opts.default].  Runs outside any stage, so it
    discards the decision lines it leaves in {!Gmatch.Planner}'s log
    (the decision counters still count them). *)
val run :
  ?opts:Gmatch.Match_opts.t ->
  ?backend:Gmatch.Engine.backend ->
  kind ->
  Pgraph.Graph.t ->
  Pgraph.Graph.t ->
  string
