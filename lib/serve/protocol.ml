module Json = Minijson.Json

type endpoint = Unix_socket of string | Tcp of string * int

(* [HOST:PORT] is TCP only when PORT parses as an integer, so Unix
   socket paths containing colons still work. *)
let endpoint_of_string s =
  match String.rindex_opt s ':' with
  | Some i when i < String.length s - 1 -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some port when port > 0 && port < 65536 -> Ok (Tcp (host, port))
      | Some port -> Error (Printf.sprintf "port %d out of range" port)
      | None -> if s = "" then Error "empty endpoint" else Ok (Unix_socket s))
  | _ -> if s = "" then Error "empty endpoint" else Ok (Unix_socket s)

let endpoint_to_string = function
  | Unix_socket path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let sockaddr = function
  | Unix_socket path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
      let addr =
        if host = "" || host = "localhost" then Unix.inet_addr_loopback
        else Unix.inet_addr_of_string host
      in
      Unix.ADDR_INET (addr, port)

type benchmark = {
  tool : Recorders.Recorder.tool;
  syscall : string;
  trials : int option;
  seed : int;
  backend : Gmatch.Engine.backend;
  result_type : string;
}

type match_req = {
  kind : Provmark.Match_op.kind;
  format : Provmark.Match_op.format;
  a : string;
  b : string;
  m_backend : Gmatch.Engine.backend option;
}

type op = Benchmark of benchmark | Match of match_req | Stats | Ping | Shutdown

type request = { id : string option; op : op }

type error_kind =
  | Bad_request
  | Unknown_benchmark
  | Queue_full
  | Overloaded
  | Timeout
  | Deadline
  | Shutting_down
  | Internal

let error_label = function
  | Bad_request -> "bad-request"
  | Unknown_benchmark -> Provmark.Exit_code.label Provmark.Exit_code.Unknown_benchmark
  | Queue_full -> "queue-full"
  | Overloaded -> "overloaded"
  | Timeout -> "timeout"
  | Deadline -> "deadline-exceeded"
  | Shutting_down -> "shutting-down"
  | Internal -> "internal"

let error_code = function
  | Bad_request -> 400
  | Unknown_benchmark -> 404
  | Timeout -> 408
  | Queue_full -> 429
  | Internal -> 500
  | Overloaded | Shutting_down -> 503
  | Deadline -> 504

let error_exit = function
  | Bad_request -> Provmark.Exit_code.to_int Provmark.Exit_code.Invalid_config
  | Unknown_benchmark -> Provmark.Exit_code.to_int Provmark.Exit_code.Unknown_benchmark
  (* A request cut short by a deadline lands where the batch CLI lands
     when a stage overruns its budget: quarantined. *)
  | Deadline -> Provmark.Exit_code.to_int Provmark.Exit_code.Quarantined
  (* Transient service pressure: retry later. *)
  | Queue_full | Overloaded | Timeout | Shutting_down ->
      Provmark.Exit_code.to_int Provmark.Exit_code.Unavailable
  | Internal -> 1

(* Field readers that turn shape mistakes into parse errors instead of
   exceptions: the daemon must answer a malformed line with a
   [Bad_request] response, never die on it. *)
let str_field obj name =
  match Json.member name obj with
  | Json.String s -> Ok s
  | Json.Null -> Error (Printf.sprintf "missing field %S" name)
  | _ -> Error (Printf.sprintf "field %S must be a string" name)

let opt_str_field obj name =
  match Json.member name obj with
  | Json.String s -> Ok (Some s)
  | Json.Null -> Ok None
  | _ -> Error (Printf.sprintf "field %S must be a string" name)

let opt_int_field obj name =
  match Json.member name obj with
  | Json.Number f when Float.is_integer f -> Ok (Some (int_of_float f))
  | Json.Null -> Ok None
  | _ -> Error (Printf.sprintf "field %S must be an integer" name)

let ( let* ) = Result.bind

let benchmark_of_json obj =
  let* tool_s = str_field obj "tool" in
  let* tool = Recorders.Recorder.tool_of_string tool_s in
  let* syscall = str_field obj "syscall" in
  let* trials =
    match opt_int_field obj "trials" with
    | Ok (Some n) when n <= 0 -> Error (Printf.sprintf "field \"trials\" must be positive (got %d)" n)
    | r -> r
  in
  let* seed = opt_int_field obj "seed" in
  let* backend_s = opt_str_field obj "backend" in
  let* backend =
    match backend_s with
    | None -> Ok Gmatch.Engine.default_backend
    | Some s -> Gmatch.Engine.backend_of_string s
  in
  let* result_type =
    match opt_str_field obj "result_type" with
    | Ok (Some ("rb" | "rg") as s) -> Ok (Option.get s)
    | Ok None -> Ok "rb"
    | Ok (Some s) -> Error (Printf.sprintf "unknown result_type %S (expected rb or rg)" s)
    | Error _ as e -> e
  in
  Ok
    (Benchmark
       (* Default seed matches the batch CLI's [--seed] default. *)
       { tool; syscall; trials; seed = Option.value seed ~default:1; backend; result_type })

let match_of_json obj =
  let* kind_s = str_field obj "kind" in
  let* kind = Provmark.Match_op.kind_of_string kind_s in
  let* format_s = opt_str_field obj "format" in
  let* format =
    match format_s with
    | None -> Ok Provmark.Match_op.Dot
    | Some s -> Provmark.Match_op.format_of_string s
  in
  let* a = str_field obj "a" in
  let* b = str_field obj "b" in
  let* backend_s = opt_str_field obj "backend" in
  let* m_backend =
    match backend_s with
    | None -> Ok None
    | Some s -> Result.map Option.some (Gmatch.Engine.backend_of_string s)
  in
  Ok (Match { kind; format; a; b; m_backend })

let request_of_line line =
  match Json.of_string line with
  | exception Json.Parse_error msg -> Error (Printf.sprintf "malformed JSON: %s" msg)
  | Json.Object _ as obj ->
      let* id = opt_str_field obj "id" in
      let* op_s = str_field obj "op" in
      let* op =
        match op_s with
        | "benchmark" -> benchmark_of_json obj
        | "match" -> match_of_json obj
        | "stats" -> Ok Stats
        | "ping" -> Ok Ping
        | "shutdown" -> Ok Shutdown
        | s -> Error (Printf.sprintf "unknown op %S" s)
      in
      Ok { id; op }
  | _ -> Error "request must be a JSON object"

let tool_wire_name tool =
  (* The CLI's short profile names; [tool_of_string] accepts them all. *)
  match tool with
  | Recorders.Recorder.Spade -> "spg"
  | Recorders.Recorder.Opus -> "opu"
  | Recorders.Recorder.Camflow -> "cam"
  | Recorders.Recorder.Spade_camflow -> "spc"
  | Recorders.Recorder.Spade_neo4j -> "spn"

let request_to_json { id; op } =
  let id_field = match id with None -> [] | Some id -> [ ("id", Json.String id) ] in
  let fields =
    match op with
    | Benchmark b ->
        [ ("op", Json.String "benchmark");
          ("tool", Json.String (tool_wire_name b.tool));
          ("syscall", Json.String b.syscall) ]
        @ (match b.trials with
          | None -> []
          | Some t -> [ ("trials", Json.Number (float_of_int t)) ])
        @ [ ("seed", Json.Number (float_of_int b.seed));
            ("backend", Json.String (Gmatch.Engine.backend_to_string b.backend));
            ("result_type", Json.String b.result_type) ]
    | Match m ->
        [ ("op", Json.String "match");
          ("kind", Json.String (Provmark.Match_op.kind_to_string m.kind));
          ("format", Json.String (Provmark.Match_op.format_name m.format));
          ("a", Json.String m.a);
          ("b", Json.String m.b) ]
        @
        (match m.m_backend with
        | None -> []
        | Some backend ->
            [ ("backend", Json.String (Gmatch.Engine.backend_to_string backend)) ])
    | Stats -> [ ("op", Json.String "stats") ]
    | Ping -> [ ("op", Json.String "ping") ]
    | Shutdown -> [ ("op", Json.String "shutdown") ]
  in
  Json.Object (id_field @ fields)

let id_field = function None -> [] | Some id -> [ ("id", Json.String id) ]

let ok_response ?(extra = []) ~id ~exit ~output () =
  Json.Object
    (id_field id
    @ [ ("status", Json.String "ok");
        ("exit", Json.Number (float_of_int exit));
        ("output", Json.String output) ]
    @ extra)

let error_response ?(extra = []) ~id kind ~message =
  Json.Object
    (id_field id
    @ [ ("status", Json.String "error");
        ("error", Json.String (error_label kind));
        ("code", Json.Number (float_of_int (error_code kind)));
        ("exit", Json.Number (float_of_int (error_exit kind)));
        ("message", Json.String message) ]
    @ extra)

let retry_hint ?queue_depth retry_after_s =
  ("retry_after_s", Json.Number retry_after_s)
  :: (match queue_depth with
     | None -> []
     | Some d -> [ ("queue_depth", Json.Number (float_of_int d)) ])

let response_line json = Json.to_string json ^ "\n"

let rec newline_bytewise buf i stop =
  if i >= stop then None
  else if Char.equal (Bytes.get buf i) '\n' then Some i
  else newline_bytewise buf (i + 1) stop

(* Eight bytes at a time: a word XOR ['\n' x 8] has a zero byte exactly
   where the word holds a newline, and [(w - 0x01..01) land lnot w land
   0x80..80] is nonzero exactly when [w] has a zero byte.  The word
   that hits, and the tail shorter than a word, are scanned byte by
   byte. *)
let rec newline_in buf start stop =
  if start + 8 > stop then newline_bytewise buf start stop
  else
    let w = Int64.logxor (Bytes.get_int64_le buf start) 0x0a0a0a0a0a0a0a0aL in
    if
      Int64.equal
        (Int64.logand (Int64.logand (Int64.sub w 0x0101010101010101L) (Int64.lognot w))
           0x8080808080808080L)
        0L
    then newline_in buf (start + 8) stop
    else newline_bytewise buf start (start + 8)
