(** Parser for files of ground Datalog facts, one [pred(args).] per
    statement.  Whitespace is insignificant and ['%'] starts a comment
    running to end of line (clingo convention).  This is the format the
    regression-testing use case stores benchmark graphs in. *)

exception Parse_error of string

(** [fold_facts f init s] reads the facts of [s] in text order, calling
    [f pred args acc] on each; quoted strings arrive with their escapes
    decoded.  A lexical error anywhere in [s] is reported in preference
    to a syntax error. *)
val fold_facts : (string -> Fact.term list -> 'a -> 'a) -> 'a -> string -> 'a

(** [parse_facts s] parses every fact in [s], in text order. *)
val parse_facts : string -> Fact.t list

(** [parse_base s] is [Base.of_list (parse_facts s)]. *)
val parse_base : string -> Base.t
