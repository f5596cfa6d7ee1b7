(** Parser for files of ground Datalog facts, one [pred(args).] per
    statement.  Whitespace is insignificant and ['%'] starts a comment
    running to end of line (clingo convention).  This is the format the
    regression-testing use case stores benchmark graphs in. *)

exception Parse_error of string

(** An argument as written, before interning: a bare constant, a quoted
    string (escapes decoded) or an integer. *)
type term = Sym of string | Str of string | Int of int

(** [fold_facts f init s] reads the facts of [s] in text order, calling
    [f pred args acc] on each.  It interns nothing.  A lexical error
    anywhere in [s] is reported in preference to a syntax error. *)
val fold_facts : (string -> term list -> 'a -> 'a) -> 'a -> string -> 'a

(** [parse_facts s] parses every fact in [s], interning its terms. *)
val parse_facts : string -> Fact.t list

(** [parse_base s] is [Base.of_list (parse_facts s)]. *)
val parse_base : string -> Base.t
