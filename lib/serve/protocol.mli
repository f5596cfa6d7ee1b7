(** The serve daemon's wire protocol: line-delimited JSON over a Unix
    or TCP socket.

    Each request is one JSON object on one line; each response is one
    JSON object on one line.  Requests carry an optional ["id"] the
    response echoes, so a client may pipeline requests and correlate
    out-of-order completions (the daemon executes compute requests
    concurrently).

    Requests:
    {v
    {"id":"r1","op":"benchmark","tool":"spg","syscall":"open",
     "seed":1,"trials":3,"backend":"asp","result_type":"rb"}
    {"id":"r2","op":"match","kind":"similar","format":"dot",
     "a":"digraph {...}","b":"digraph {...}"}
    {"op":"stats"}   {"op":"ping"}   {"op":"shutdown"}
    v}

    Responses:
    {v
    {"id":"r1","status":"ok","exit":0,"output":"open  spade  ok (3n/2e)\n..."}
    {"id":"r2","status":"error","error":"queue-full","code":429,
     "exit":1,"message":"request queue is full (8 in flight)"}
    v}

    ["output"] carries exactly the bytes the batch CLI would print to
    stdout for the same inputs ([provmark run] / [provmark match]);
    ["exit"] is the {!Provmark.Exit_code} the batch CLI would have
    exited with, so a scripted client can relay it. *)

(** Where the daemon listens / the client connects. *)
type endpoint = Unix_socket of string | Tcp of string * int

(** [PATH] for a Unix socket; [HOST:PORT] for TCP ([localhost]/empty
    host means the loopback address). *)
val endpoint_of_string : string -> (endpoint, string) result

val endpoint_to_string : endpoint -> string
val sockaddr : endpoint -> Unix.sockaddr

type benchmark = {
  tool : Recorders.Recorder.tool;
  syscall : string;
  trials : int option;  (** positive when present; the parser rejects [<= 0] *)
  seed : int;
  backend : Gmatch.Engine.backend;
  result_type : string;  (** ["rb"] or ["rg"]; ["rh"] is CLI-only *)
}

type match_req = {
  kind : Provmark.Match_op.kind;
  format : Provmark.Match_op.format;
  a : string;  (** first graph, serialized *)
  b : string;  (** second graph, serialized *)
  m_backend : Gmatch.Engine.backend option;
}

type op = Benchmark of benchmark | Match of match_req | Stats | Ping | Shutdown

type request = { id : string option; op : op }

(** Structured error vocabulary.  [code] is the HTTP-flavoured status
    embedded in the response (400/404/408/429/500/503/504); [exit]
    reuses {!Provmark.Exit_code} where the batch CLI has an
    equivalent. *)
type error_kind =
  | Bad_request  (** malformed line, or a request line over the byte cap (400) *)
  | Unknown_benchmark  (** syscall not in the registry (404) *)
  | Queue_full  (** admission control: too many requests in flight (429) *)
  | Overloaded  (** connection cap reached; sent once, then the socket closes (503) *)
  | Timeout  (** idle/read timeout: the connection stalled mid-line (408) *)
  | Deadline  (** the request overran the daemon's per-request deadline (504) *)
  | Shutting_down  (** drain in progress; no new compute accepted (503) *)
  | Internal  (** a compute raised; the daemon survives and reports (500) *)

val error_label : error_kind -> string
val error_code : error_kind -> int

(** The exit code a scripted client should relay: {!Provmark.Exit_code}
    for the CLI-equivalent errors ([Deadline] maps to the quarantine
    code, the transient-pressure kinds to [Unavailable]), 1 for
    [Internal]. *)
val error_exit : error_kind -> int

(** Parse one request line.  Errors render as a message for a
    [Bad_request] response. *)
val request_of_line : string -> (request, string) result

(** Render a request (the client side). *)
val request_to_json : request -> Minijson.Json.t

(** Success response.  [extra] appends op-specific structured fields
    (the [stats] payload). *)
val ok_response :
  ?extra:(string * Minijson.Json.t) list ->
  id:string option ->
  exit:int ->
  output:string ->
  unit ->
  Minijson.Json.t

(** Error response.  [extra] appends machine-readable fields — the
    429/503 responses carry a retry hint built with {!retry_hint}. *)
val error_response :
  ?extra:(string * Minijson.Json.t) list ->
  id:string option ->
  error_kind ->
  message:string ->
  Minijson.Json.t

(** [retry_hint ?queue_depth retry_after_s] renders the machine-readable
    backoff hint carried by [queue-full] and [overloaded] responses:
    [retry_after_s] (seconds before a retry is worth attempting) plus
    the current [queue_depth] when admission control is the cause. *)
val retry_hint :
  ?queue_depth:int -> float -> (string * Minijson.Json.t) list

(** One response line, newline-terminated. *)
val response_line : Minijson.Json.t -> string

(** [newline_in buf start stop] is the index of the first ['\n'] in
    [buf] from [start] up to, not including, [stop]. *)
val newline_in : Bytes.t -> int -> int -> int option
