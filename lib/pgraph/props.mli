(** Key-value property dictionaries attached to nodes and edges.

    Properties are partial functions from string keys to string values,
    following the property-graph model of the paper (Section 3.3): for a
    node or edge [x], [prop(x, k)] (if defined) is the value for key [k]. *)

type t

val empty : t

val is_empty : t -> bool

(** [of_list kvs] builds a dictionary from an association list.  Later
    bindings for the same key override earlier ones. *)
val of_list : (string * string) list -> t

(** [to_list p] returns the bindings sorted by key. *)
val to_list : t -> (string * string) list

val add : string -> string -> t -> t

val remove : string -> t -> t

val find : string -> t -> string option

val mem : string -> t -> bool

val cardinal : t -> int

val keys : t -> string list

val equal : t -> t -> bool

val compare : t -> t -> int

(** [intersect p q] keeps only the bindings present with equal values in
    both dictionaries.  This is the operation used by graph generalization
    to discard transient property values. *)
val intersect : t -> t -> t

(** [mismatch_cost p q] counts keys of [p] that are absent from [q] or
    bound to a different value — the cost model of the paper's Listing 4. *)
val mismatch_cost : t -> t -> int

(** [mismatch_free p q] is [mismatch_cost p q = 0], stopping at the
    first key of [p] that [q] lacks or binds differently. *)
val mismatch_free : t -> t -> bool

(** [symmetric_mismatch p q] is [mismatch_cost p q + mismatch_cost q p]. *)
val symmetric_mismatch : t -> t -> int

val union_preferring_left : t -> t -> t

val fold : (string -> string -> 'a -> 'a) -> t -> 'a -> 'a

val iter : (string -> string -> unit) -> t -> unit

val filter : (string -> string -> bool) -> t -> t

val pp : Format.formatter -> t -> unit
