(** The native backend's decision log.

    [Engine.Direct] answers every instance through a fixed cascade of
    sound bypasses (see {!Engine}); nothing in it depends on timing.
    This module only records which path answered each solve that
    reached a solver or a delta certificate, so traces and the serve
    [stats] op can say why an answer came out as it did. *)

(** The paths a logged [Direct] solve can take. *)
type path =
  | Delta  (** {!Incremental.delta}: the provably unique witness reused *)
  | Incr  (** {!Incremental.similar}: greedy alignment, exact VF2 fallback *)
  | Vf2  (** the whole-graph VF2 solve *)
  | Seg  (** the quotient/segment plan *)

(** [note ~task path] counts one decision and appends the line
    [<task>=<path>] to the calling domain's decision log. *)
val note : task:string -> path -> unit

(** Drain this domain's decision log (oldest first) — [Stage.compute]
    turns the lines into [planner.N] span tags. *)
val drain_decisions : unit -> string list

(** Decisions per path since the last [reset], in declaration order. *)
val decision_counts : unit -> (string * int) list

val decisions_total : unit -> int

(** Always [0]: nothing is predicted any more, so nothing is
    mispredicted.  Kept for callers that still report the count. *)
val mispredictions : unit -> int

(** Clear the counters and this domain's decision log. *)
val reset : unit -> unit
