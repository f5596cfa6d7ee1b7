(** One client's run context, threaded through {!Runner} and
    {!Pipeline}.

    The batch CLI used to be the implicit session: one global config,
    results printed as they arrived, the process exiting at the end.
    A session makes that state an explicit value so many of them can
    coexist in one process — the serve daemon creates one per
    connection over the shared warm resources (ASP memo, canonical-form
    cache, artifact store), while the batch CLI creates exactly one.

    A session owns nothing shared: the memo, canon cache and store are
    server-lifetime resources with their own locking discipline.  What
    it does carry is per-run: the configuration, the client identity
    (tagged onto every run's root trace span, so one client's spans are
    separable from another's in a merged trace), and the result sink
    results are pushed through as they complete. *)

type sink = Result.t -> unit

type t = {
  config : Config.t;
  client : string option;
      (** client identity ("c1", "c2", …) for trace spans; [None] for
          the batch CLI, whose single session needs no tag *)
  tags : (string * string) list;
      (** extra root-span tags the front end wants on every run of
          this session — the serve daemon marks breaker-shunted
          requests with [("breaker", "shunt")] *)
  sink : sink option;
      (** called with each completed result, on the domain that
          finished it (like {!Parallel_runner}'s [on_result], it must
          be thread-safe when runs are concurrent) *)
}

val create :
  ?client:string -> ?tags:(string * string) list -> ?sink:sink -> Config.t -> t

(** A session with no client tag and no sink — how the [Config.t]-based
    entry points wrap themselves. *)
val of_config : Config.t -> t

val config : t -> Config.t

(** The span tags this session contributes to a run's root span:
    [("client", c)] when a client is set, followed by [tags]. *)
val span_tags : t -> (string * string) list

(** Push a result through the sink, if any. *)
val emit : t -> Result.t -> unit
