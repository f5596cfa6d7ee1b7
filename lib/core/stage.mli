(** One typed step of the benchmark pipeline.

    A [('a, 'b, 'd) t] maps a stage input to either an output or a
    structured {!Result.stage_error}; {!execute} wraps the step with a
    trace span and, when a store is supplied, content-addressed
    caching.  Failures are first-class values here — they are encoded
    into the store exactly like successes, so a deterministic failure
    (e.g. a non-embeddable background) also replays warm instead of
    re-running the solver just to fail again.

    ['d] is the stage's output digest: what its downstream consumers
    key on.  It is computed once, on the miss that writes the entry,
    and carried inside the entry, so a replay returns it without
    re-deriving it from the decoded output (for graphs that would mean
    canonicalizing every one of them again). *)

(** How an output digest of type ['d] is written as the entry's digest
    line: a list of hex digests, parsed back with [parse] ([None] when
    the list has the wrong shape). *)
type 'd shape = { render : 'd -> string list; parse : string list -> 'd option }

val one : string shape
val pair : (string * string) shape

(** For a stage no downstream consumer keys on: the digest line is
    empty. *)
val none : unit shape

type ('a, 'b, 'd) t = {
  name : string;
      (** "recording" / "transformation" / "generalization" /
          "comparison" — also the span name and the store subdirectory *)
  run : Trace_span.ctx -> 'a -> ('b, Result.stage_error) result;
  encode : ('b, Result.stage_error) result -> string;
  decode : string -> ('b, Result.stage_error) result;
      (** may raise on corrupt input; {!execute} treats that as a miss *)
  digest : 'b -> 'd;
      (** the output digest downstream stages key on; must be a pure
          function of the output *)
  shape : 'd shape;
}

(** The artifact-store key for one execution of [stage]:
    [fingerprint] is the stage's configuration fingerprint (see
    {!Config.recording_fingerprint} etc.), [inputs] the digests of the
    upstream artifacts it consumes.  Chaining input digests is what
    gives precise invalidation: an edited benchmark changes the program
    digest, which changes this stage's key and every downstream key,
    while unrelated benchmarks keep hitting. *)
val cache_key : ('a, 'b, 'd) t -> fingerprint:string -> inputs:string list -> string

(** [execute ?store ?deadline_s ~ctx ~fingerprint ~inputs stage input]
    runs the stage inside a child span of [ctx] named [stage.name] and
    returns its output together with the output digest.

    The span is tagged ["cache"] = ["off"] (no store), ["hit"] (artifact
    replayed, [stage.run] and [stage.digest] never called) or ["miss"]
    (computed, then stored).  On compute, nonzero deltas of the solver
    effort counters (ASP decisions/propagations, matching-memo
    hits/misses, incremental matcher certified/fallback counts) are
    attached as additional tags, and the digest of a successful output
    is taken in a ["digest"] child span.  Exceptions escaping
    [stage.run] (other than [Stack_overflow] and [Out_of_memory]) are
    converted to [Error] with {!Result.Stage_exception}.

    A store entry holds the digest line and the encoded artifact, both
    under the store's checksum seal.  An entry whose digest line is
    missing, is not hex, or does not fit [stage.shape] is a miss, like
    an entry that fails to decode, and the recompute rewrites it.

    When [deadline_s] is given and a computed stage overruns it (checked
    post hoc on the monotonic clock; nothing is cancelled mid-flight),
    the result is replaced by [Error] with {!Result.Deadline_exceeded}
    carrying the configured budget string, the span gains a
    ["deadline"] = ["exceeded"] tag, and nothing is written to the
    store — deadline verdicts are timing-dependent and must not replay
    on a machine that would have met the budget.  The output digest is
    taken after the check, so it never counts against the budget.
    Cache hits are exempt (replay is not the work being budgeted). *)
val execute :
  ?store:Artifact_store.t ->
  ?deadline_s:float ->
  ctx:Trace_span.ctx ->
  fingerprint:string ->
  inputs:string list ->
  ('a, 'b, 'd) t ->
  'a ->
  ('b * 'd, Result.stage_error) result

(** [audit stage contents] checks one stored entry (as
    {!Artifact_store.read} returns it): [true] when it parses and the
    digest it carries equals [stage.digest] of its decoded output, or
    it holds a failure; [false] otherwise. *)
val audit : ('a, 'b, 'd) t -> string -> bool
