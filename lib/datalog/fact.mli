(** Ground Datalog facts, the common graph representation of ProvMark
    (paper Listing 1).  A fact is [pred(arg1, ..., argn).] where each
    argument is either a symbolic constant ([n1], [e2]) or a quoted
    string constant (["File"]).

    Terms carry their own strings; {!compare_term} orders them by
    payload, so fact order depends only on the facts themselves. *)

type term =
  | Sym of string  (** symbolic constant; printed bare, unchecked *)
  | Str of string  (** string constant; printed quoted with escapes *)
  | Int of int

type t = { pred : string; args : term list }

val make : string -> term list -> t

val equal_term : term -> term -> bool

(** Orders [Sym] before [Str] before [Int], then by payload
    ([String.compare] or [Int.compare]). *)
val compare_term : term -> term -> int

val equal : t -> t -> bool
val compare : t -> t -> int

(** [term_to_string t] renders one argument in Datalog concrete syntax. *)
val term_to_string : term -> string

(** [add_quoted b s] appends [s] to [b] as a quoted string constant,
    escaping double quotes, backslashes and newlines. *)
val add_quoted : Buffer.t -> string -> unit

(** [to_string f] renders [pred(args).] without a trailing newline. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** [is_bare s] holds when [s] is a valid bare Datalog constant: a
    lowercase letter followed by letters, digits and underscores. *)
val is_bare : string -> bool

(** [sym_of_string s] returns [Sym s] when [s] is a valid bare Datalog
    constant (lowercase letter followed by letters, digits, underscores)
    and [Str s] otherwise. *)
val sym_of_string : string -> term

(** [string_of_term t] is the payload without concrete-syntax quoting. *)
val string_of_term : term -> string
