(** The [provmark serve] daemon: a warm, concurrent benchmark service.

    One daemon process holds the expensive state the batch CLI rebuilds
    on every invocation — the ASP solve memo, the canonical-form cache,
    the artifact store and a pool of worker domains — and answers
    benchmark/match requests from many concurrent clients over the
    line-delimited JSON protocol of {!Protocol}.

    {b Concurrency model.}  A single event-loop domain owns every
    socket: it accepts connections, reads request lines, performs
    admission control and writes response lines.  Compute requests are
    dispatched to the worker pool; a finished job posts its rendered
    response to a completion queue and wakes the loop through a
    self-pipe, so responses are written only by the loop domain and
    per-connection output never interleaves.  [stats], [ping] and
    [shutdown] are answered inline.  Every socket read/write (and the
    self-pipe wakeup) retries on [EINTR] — signal delivery never tears
    a line.

    {b Admission control.}  At most [queue_bound] compute requests are
    in flight at once; a request over the bound is rejected immediately
    with a structured [queue-full] (429) error — carrying a
    machine-readable retry hint ([retry_after_s], [queue_depth]) —
    rather than queued without limit.  [queue_bound = 0] rejects every
    compute request — useful for testing the rejection path
    deterministically.

    {b Connection lifecycle.}  Connections that stall are not allowed
    to pin daemon state forever:

    - {e Idle/read timeout} ([limits.idle_timeout_s], monotonic clock):
      a connection with no compute in flight that neither completes a
      request line nor drains its responses for that long is answered
      with a structured [timeout] (408) error and closed (slow-loris
      half-lines included).  A client waiting on a slow solve is never
      timed out.
    - {e Line-length cap} ([limits.max_line_bytes]): a request line
      over the cap draws a structured [bad-request] (400) error and the
      connection closes after the error line is flushed.
    - {e Connection cap} ([limits.max_conns]): a connection over the
      cap is sent one [overloaded] (503) line — with a retry hint — and
      closed, and the daemon stops accepting for a short backoff window
      (the kernel backlog absorbs the burst).
    - A client hanging up mid-request neither crashes the daemon nor
      leaks its in-flight slot; the orphaned completion is dropped.

    {b Per-request deadlines.}  [limits.deadline_s] bounds each
    request's compute: benchmark requests ride the pipeline's existing
    stage-deadline machinery (output and exit code byte-identical to
    [provmark run --deadline]); match requests that overrun draw a
    structured [deadline-exceeded] (504) error.

    {b Graceful shutdown.}  A [shutdown] request, SIGTERM or SIGINT
    starts a bounded drain: no new connections or compute are accepted
    ([shutting-down] 503 for late requests), in-flight work gets
    [limits.drain_s] seconds to finish and flush, then stragglers are
    force-closed.  [run] returns normally in every case, so the CLI
    exits 0 on a signal-initiated drain.

    {b Circuit breaker.}  The loop watches ASP step-limit degradations
    ({!Gmatch.Engine.degraded_total}); [limits.breaker_threshold] of
    them within a [limits.breaker_cooldown_s] window trips the breaker,
    and for the cooldown that follows, ASP-backend requests are shunted
    to the direct (VF2) backend — their runs are tagged
    [("breaker", "shunt")] in the trace.  Trip/shunt counters and the
    breaker state are reported by the [stats] op.

    {b Warm-state guarantees.}  Workers share the process-wide solve
    memo (with single-flight coalescing: concurrent requests reducing
    to the same rename-invariant key collapse to one solve), the canon
    cache and the sharded artifact store, so a repeated — or renamed —
    request is answered from cache without re-solving.  Responses stay
    byte-identical to the batch CLI's stdout for the same inputs at any
    pool size and any client interleaving, because both front ends
    render through the same {!Provmark.Report} / {!Provmark.Match_op}
    functions and every benchmark's transient values derive only from
    its request seed.

    Each connection gets a client id ([c1], [c2], …) carried into the
    per-run {!Provmark.Session}, so every run's root trace span is
    tagged with the client that asked for it. *)

(** Connection-lifecycle and overload-control knobs. *)
type limits = {
  idle_timeout_s : float option;
      (** close a connection idle (no line completed, no compute in
          flight, responses undrained) this long; [None] disables *)
  max_line_bytes : int;  (** reject request lines over this many bytes *)
  max_conns : int;  (** connection cap; over-cap accepts get 503 + close *)
  drain_s : float;  (** shutdown drain budget before force-closing *)
  deadline_s : float option;  (** per-request compute deadline; [None] disables *)
  breaker_threshold : int;
      (** ASP degradations within one cooldown window that trip the breaker *)
  breaker_cooldown_s : float;
      (** how long a tripped breaker shunts ASP requests to VF2 (also
          the failure-counting window) *)
}

(** 30 s idle timeout, 1 MiB lines, 128 connections, 5 s drain, no
    deadline, breaker at 5 degradations / 30 s cooldown. *)
val default_limits : limits

type config = {
  endpoint : Protocol.endpoint;
  jobs : int;  (** worker-pool size (at least 1) *)
  queue_bound : int;  (** max in-flight compute requests *)
  store : Provmark.Artifact_store.t option;
      (** shared artifact store handed to every benchmark config *)
  trace : string option;
      (** write the span tree of every completed run here on shutdown *)
  limits : limits;
  opts : Gmatch.Match_opts.t;
      (** matching options of every request this daemon serves (CLI:
          [--no-cache], [--fallback]) *)
}

val default_queue_bound : int

(** [run config] listens on [config.endpoint] and serves until a
    [shutdown] request, SIGTERM or SIGINT arrives, then drains
    in-flight work within [config.limits.drain_s], flushes responses,
    closes every socket (unlinking a Unix socket path) and returns the
    number of compute requests served.  [on_ready] fires once the
    listening socket is bound — tests use it to know when to connect.
    SIGPIPE is ignored and SIGTERM/SIGINT are rebound for the duration
    (previous handlers are restored on return); a client hanging up
    mid-response must not kill the daemon. *)
val run : ?on_ready:(unit -> unit) -> config -> int
