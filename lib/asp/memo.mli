(** Memoization of ground-and-solve calls, keyed by a canonical digest
    of (program, fact base, solver parameters).

    The generalization stage re-solves identical matching subproblems
    across trials and benchmarks; the memo table answers repeats without
    grounding or search.  The table is safe to share across the domains
    of the parallel suite runner, and caching never changes answers —
    the key covers everything the solver's outcome depends on (this is
    enforced by the cache-consistency test suite).

    Concurrent solves of the same key are coalesced (single-flight):
    one leader computes while later arrivals block until the outcome is
    broadcast.  Keys are built from canonically relabelled instances
    when the caller's matching options enable canonicalization, so
    concurrent requests for renamed variants of one pair — the serve
    daemon's hot case — collapse to a single solve; each caller still
    maps the shared canonical witness back through its own relabelling.
    A run without caching (the CLI's [--no-cache]) never comes here: it
    solves without a memo tag. *)

type stats = { hits : int; misses : int }

(** Canonical cache key.  [facts] are rendered in sorted order, so the
    key is invariant under fact insertion order. *)
val key :
  program:string -> facts:Datalog.Base.t -> max_steps:int -> find_optimal:bool -> string

(** [find_or_compute ~tag ~key compute] returns the cached outcome for
    [key], or runs [compute] and caches its result.  [tag] buckets the
    hit/miss counters per pipeline stage ("similarity",
    "generalization", "comparison").

    When another domain is already computing [key], the call blocks
    until that leader finishes and returns the broadcast outcome
    instead of recomputing; such a call counts under {!coalesced} (and,
    once served from the freshly filled table, as a hit).  A leader
    whose [compute] raises wakes the waiters — the first to wake
    retries as the new leader — and caches nothing. *)
val find_or_compute : tag:string -> key:string -> (unit -> Solver.outcome) -> Solver.outcome

(** Number of calls that joined another domain's in-flight solve
    instead of computing, since the last {!reset_stats} — the
    single-flight savings the serve daemon reports. *)
val coalesced : unit -> int

(** Drop all cached outcomes (counters are kept). *)
val clear : unit -> unit

val reset_stats : unit -> unit

(** Per-tag counters, sorted by tag name. *)
val stats : unit -> (string * stats) list

(** Counters summed over all tags. *)
val totals : unit -> stats

(** Number of cached entries. *)
val size : unit -> int
