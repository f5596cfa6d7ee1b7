(** Minimal blocking client for the serve daemon's wire protocol —
    the engine behind [provmark request], perfbench's serve-mixed load
    and the service tests.

    All reads and writes retry on [EINTR]: a signal delivered mid-call
    (the daemon side installs SIGTERM/SIGINT handlers, and clients may
    share the process) never tears a request or drops a response. *)

type t

(** Connect to a running daemon.  Raises [Unix.Unix_error] when nothing
    listens on the endpoint. *)
val connect : Protocol.endpoint -> t

(** [call t request] sends one request line and blocks for its response
    line.  [Error] carries a transport-level failure (connection closed
    before a response, or a response that is not valid JSON) — protocol
    errors come back as [Ok] objects with ["status": "error"]. *)
val call : t -> Protocol.request -> (Minijson.Json.t, string) result

val close : t -> unit

(** [with_connection endpoint f] connects, runs [f], and closes even
    when [f] raises. *)
val with_connection : Protocol.endpoint -> (t -> 'a) -> 'a

(** {2 Response accessors} *)

val response_status : Minijson.Json.t -> string
val response_output : Minijson.Json.t -> string
val response_exit : Minijson.Json.t -> int

(** The stable error label of an error response ([None] on ok). *)
val response_error : Minijson.Json.t -> string option

(** The machine-readable retry hint of a 429/503 response: seconds
    before a retry is worth attempting, and the queue depth that
    caused an admission rejection. *)
val response_retry_after : Minijson.Json.t -> float option

val response_queue_depth : Minijson.Json.t -> int option

(** {2 Chaos driver}

    The client half of the socket fault tap: deterministic wire-level
    abuse for [provmark request --faults] and the serve tests' chaos
    gauntlet. *)

type chaos_outcome =
  | Response of Minijson.Json.t
      (** a response line arrived — the normal answer, or the daemon's
          structured timeout after a stalled send *)
  | No_response of string
      (** the fault forecloses a response (deliberate mid-request
          disconnect), or the transport failed; the payload says why *)

(** [chaos_call ~site endpoint request] sends [request] over a fresh
    connection with the wire behaviour the process-wide fault plan
    ({!Faults.Injector}) prescribes for [site]: a stalled half-line, a
    torn line, a mid-request hangup, dribbled short writes — or a
    clean send when no socket fault fires.  Torn and short-write
    requests must yield responses byte-identical to a clean call; a
    stalled request collects the daemon's timeout error; a disconnect
    returns [No_response]. *)
val chaos_call :
  site:string -> Protocol.endpoint -> Protocol.request -> chaos_outcome
