(** Ground Datalog facts, the common graph representation of ProvMark
    (paper Listing 1).  A fact is [pred(arg1, ..., argn).] where each
    argument is either a symbolic constant ([n1], [e2]) or a quoted
    string constant (["File"]).

    String payloads are interned in {!Symtab}: the constructors carry
    integer ids, so {!equal_term} and structural hashing are O(1).
    Build terms with {!sym} / {!str} / {!sym_of_string} rather than
    interning by hand. *)

type term =
  | Sym of Symtab.id  (** symbolic constant; printed bare *)
  | Str of Symtab.id  (** string constant; printed quoted with escapes *)
  | Int of int

type t = { pred : string; args : term list }

val make : string -> term list -> t

(** [sym s] interns [s] as a symbolic constant (no bareness check —
    callers such as parsers that already validated the spelling). *)
val sym : string -> term

(** [str s] interns [s] as a quoted string constant. *)
val str : string -> term

val equal_term : term -> term -> bool

(** Orders terms by their underlying strings (via the symtab), so the
    order is independent of interning order. *)
val compare_term : term -> term -> int

val equal : t -> t -> bool
val compare : t -> t -> int

(** [term_to_string t] renders one argument in Datalog concrete syntax. *)
val term_to_string : term -> string

(** [to_string f] renders [pred(args).] without a trailing newline. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** [is_bare s] holds when [s] is a valid bare Datalog constant: a
    lowercase letter followed by letters, digits and underscores. *)
val is_bare : string -> bool

(** [sym_of_string s] returns [sym s] when [s] is a valid bare Datalog
    constant (lowercase letter followed by letters, digits, underscores)
    and [str s] otherwise. *)
val sym_of_string : string -> term

(** [string_of_term t] is the payload without concrete-syntax quoting. *)
val string_of_term : term -> string
