module Json = Minijson.Json
module Exit_code = Provmark.Exit_code
module Session = Provmark.Session
module Pool = Provmark.Pool

type limits = {
  idle_timeout_s : float option;
  max_line_bytes : int;
  max_conns : int;
  drain_s : float;
  deadline_s : float option;
  breaker_threshold : int;
  breaker_cooldown_s : float;
}

let default_limits =
  {
    idle_timeout_s = Some 30.;
    max_line_bytes = 1 lsl 20;
    max_conns = 128;
    drain_s = 5.;
    deadline_s = None;
    breaker_threshold = 5;
    breaker_cooldown_s = 30.;
  }

type config = {
  endpoint : Protocol.endpoint;
  jobs : int;
  queue_bound : int;
  store : Provmark.Artifact_store.t option;
  trace : string option;
  limits : limits;
  opts : Gmatch.Match_opts.t;
}

let default_queue_bound = 64

(* How long the loop stops watching the listen socket after rejecting
   an accept at the connection cap: pending connections wait in the
   kernel backlog instead of being rejected in a hot loop. *)
let accept_backoff_s = 0.05

(* Retry hints carried by the admission-control errors. *)
let queue_full_retry_s = 0.1
let overloaded_retry_s = 0.5

let now () = Provmark.Trace_span.now_s ()

(* A signal during connection I/O or the self-pipe wakeup must not
   drop bytes: every blocking-ish syscall retries on EINTR (the select
   loop has its own EINTR path that re-checks timers). *)
let rec retry_eintr f =
  match f () with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

(* Per-connection state, owned by the event-loop domain.  [wbuf] holds
   response bytes not yet accepted by the socket; [alive] lets a worker
   completion for a since-closed connection be dropped instead of
   written to a stale fd; [closing] flushes [wbuf] and then closes (the
   fate of timed-out and oversized-line connections); [inflight]
   suspends the idle timer while a compute the client is waiting for is
   still running. *)
type conn = {
  fd : Unix.file_descr;
  client : string;
  rbuf : Buffer.t;
  mutable wbuf : string;
  mutable alive : bool;
  mutable closing : bool;
  mutable inflight : int;
  mutable last_activity : float;
}

(* What a worker posts back to the loop: a rendered response line, or
   a request line it decoded for the loop to admit. *)
type completion = Reply of string | Decoded of (Protocol.request, string) result

type t = {
  cfg : config;
  pool : Pool.t;
  listen_fd : Unix.file_descr;
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  (* The one buffer every connection's socket reads land in. *)
  rdbuf : Bytes.t;
  (* Completion queue: workers post under [done_mutex] and write one
     byte to [pipe_w]; the loop drains both.  Everything else below is
     touched only by the loop domain and needs no lock, except the
     [Atomic.t] fields workers and signal handlers touch. *)
  done_mutex : Mutex.t;
  done_q : (conn * completion) Queue.t;
  mutable conns : conn list;
  mutable in_flight : int;
  mutable served : int;
  mutable rejected : int;
  mutable shutting_down : bool;
  mutable drain_deadline : float option;
  mutable accept_pause_until : float;
  (* Robustness counters (loop-owned unless atomic). *)
  mutable timed_out : int;
  mutable oversized : int;
  mutable conn_rejected : int;
  deadline_errors : int Atomic.t;
  (* Circuit breaker: repeated ASP step-limit degradations trip ASP
     requests straight to the VF2 backend for a cooldown window.  The
     loop observes {!Gmatch.Engine.degraded_total} deltas as
     completions drain, so the state needs no lock. *)
  mutable breaker_seen : int;
  mutable breaker_failures : int;
  mutable breaker_window_start : float;
  mutable breaker_open_until : float;
  mutable breaker_trips : int;
  mutable breaker_shunted : int;
  (* Set from the SIGTERM/SIGINT handler; the loop turns it into a
     bounded drain. *)
  stop : bool Atomic.t;
  (* Completed results, appended by workers for the shutdown trace
     when [--trace] is set, and left empty otherwise. *)
  results_mutex : Mutex.t;
  mutable results : Provmark.Result.t list;
}

let breaker_open t = now () < t.breaker_open_until

(* ------------------------------------------------------------------ *)
(* Request execution (worker domains)                                  *)
(* ------------------------------------------------------------------ *)

let benchmark_config t (b : Protocol.benchmark) =
  let base = Provmark.Config.default b.tool in
  {
    base with
    Provmark.Config.trials = Option.value b.trials ~default:base.Provmark.Config.trials;
    backend = b.backend;
    opts = t.cfg.opts;
    seed = b.seed;
    store = t.cfg.store;
    (* The per-request deadline rides the pipeline's own per-stage
       deadline machinery: an overrunning benchmark is retried and
       quarantined exactly as the batch CLI would, so its output stays
       byte-identical to [provmark run --deadline]. *)
    deadline_s = t.cfg.limits.deadline_s;
  }

let exec_benchmark t ~client ~shunted (b : Protocol.benchmark) =
  (* Only the trace file reads the results; without one, keeping them
     would grow the heap with every request served. *)
  let sink r =
    if Option.is_some t.cfg.trace then begin
      Mutex.lock t.results_mutex;
      t.results <- r :: t.results;
      Mutex.unlock t.results_mutex
    end
  in
  let tags = if shunted then [ ("breaker", "shunt") ] else [] in
  let session = Session.create ~client ~tags ~sink (benchmark_config t b) in
  match Provmark.Runner.run_syscall_session session b.syscall with
  | Error known ->
      Error
        ( Protocol.Unknown_benchmark,
          Printf.sprintf "unknown syscall benchmark %S (known benchmarks: %s)" b.syscall
            (String.concat " " known) )
  | Ok r ->
      let output =
        Provmark.Report.run_output ~result_type:b.result_type r
        ^ Provmark.Report.suite_epilogue [ r ]
      in
      Ok (output, Exit_code.to_int (Exit_code.of_results [ r ]))

(* Match requests have no pipeline stages, so the per-request deadline
   is enforced post hoc on the monotonic clock, in the same spirit as
   {!Provmark.Stage}: a result computed past the budget is discarded
   and answered with the structured deadline error. *)
let exec_match t (m : Protocol.match_req) =
  let start = now () in
  let result =
    match Provmark.Match_op.parse_graph m.format m.a with
    | Error e -> Error (Protocol.Bad_request, "graph a: " ^ e)
    | Ok ga -> (
        match Provmark.Match_op.parse_graph m.format m.b with
        | Error e -> Error (Protocol.Bad_request, "graph b: " ^ e)
        | Ok gb ->
            Ok
              ( Provmark.Match_op.run ~opts:t.cfg.opts ?backend:m.m_backend m.kind ga gb,
                Exit_code.to_int Exit_code.Ok ))
  in
  match t.cfg.limits.deadline_s with
  | Some budget when now () -. start > budget ->
      Atomic.incr t.deadline_errors;
      Error
        ( Protocol.Deadline,
          Printf.sprintf "deadline exceeded: request overran its %gs budget" budget )
  | _ -> result

(* Hands a completion from a worker to the loop. *)
let post t conn completion =
  Mutex.lock t.done_mutex;
  Queue.add (conn, completion) t.done_q;
  Mutex.unlock t.done_mutex;
  (* Wake the loop; the pipe is non-blocking and the queue is drained
     in full per wakeup, so a momentarily full pipe is still safe. *)
  try ignore (retry_eintr (fun () -> Unix.write t.pipe_w (Bytes.make 1 '!') 0 1))
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EBADF | Unix.EPIPE), _, _) -> ()

(* Runs on a worker domain: compute, render, post the finished line to
   the loop.  Every exception becomes an [internal] error response —
   a bad request must never take a worker (or the daemon) down. *)
let exec_compute t conn id ~shunted op =
  let response =
    match
      match op with
      | Protocol.Benchmark b -> exec_benchmark t ~client:conn.client ~shunted b
      | Protocol.Match m -> exec_match t m
      | Protocol.Stats | Protocol.Ping | Protocol.Shutdown -> assert false
    with
    | Ok (output, exit) -> Protocol.ok_response ~id ~exit ~output ()
    | Error (kind, message) -> Protocol.error_response ~id kind ~message
    | exception ((Stack_overflow | Out_of_memory) as e) -> raise e
    | exception e ->
        Protocol.error_response ~id Protocol.Internal ~message:(Printexc.to_string e)
  in
  post t conn (Reply (Protocol.response_line response))

(* ------------------------------------------------------------------ *)
(* Inline requests (event-loop domain)                                 *)
(* ------------------------------------------------------------------ *)

let memo_totals () =
  List.fold_left
    (fun (h, m) (_, s) -> (h + s.Asp.Memo.hits, m + s.Asp.Memo.misses))
    (0, 0) (Asp.Memo.stats ())

let stats_response t ~id =
  let num n = Json.Number (float_of_int n) in
  let memo_hits, memo_misses = memo_totals () in
  let seg_total counts = List.fold_left (fun acc (_, n) -> acc + n) 0 counts in
  let store_fields =
    match t.cfg.store with
    | None -> []
    | Some store ->
        let s = Provmark.Artifact_store.totals store in
        [ ( "store",
            Json.Object
              [ ("hits", num s.Provmark.Artifact_store.hits);
                ("misses", num s.Provmark.Artifact_store.misses) ] ) ]
  in
  let extra =
    [ ("queue_depth", num t.in_flight);
      ("queue_bound", num t.cfg.queue_bound);
      ("served", num t.served);
      ("rejected", num t.rejected);
      ("conns", num (List.length t.conns));
      ("max_conns", num t.cfg.limits.max_conns);
      ("conn_rejected", num t.conn_rejected);
      ("timed_out", num t.timed_out);
      ("oversized", num t.oversized);
      ("deadline_errors", num (Atomic.get t.deadline_errors));
      ( "breaker",
        Json.Object
          [ ("state", Json.String (if breaker_open t then "open" else "closed"));
            ("trips", num t.breaker_trips);
            ("failures", num t.breaker_failures);
            ("shunted", num t.breaker_shunted);
            ( "cooldown_remaining_s",
              Json.Number (Float.max 0. (t.breaker_open_until -. now ())) ) ] );
      ("jobs", num (Pool.size t.pool));
      ( "memo",
        Json.Object
          [ ("hits", num memo_hits);
            ("misses", num memo_misses);
            ("coalesced", num (Asp.Memo.coalesced ())) ] );
      ("canon_skips", num (Gmatch.Engine.canon_skip_total ()));
      (* Canonicalizations actually run vs cache hits: [computed]
         staying at one per distinct graph is the live proof that the
         hot path (engine bypass, memo rekeying, store digests, the
         planner's delta certificates) never canonicalizes twice. *)
      (let computed, hits = Pgraph.Canon.stats () in
       ("canon_forms", Json.Object [ ("computed", num computed); ("cache_hits", num hits) ]));
      ( "segment",
        Json.Object
          [ ("quotient_skips", num (seg_total (Gmatch.Engine.segment_skips ())));
            ("pairs", num (seg_total (Gmatch.Engine.segment_pairs ())));
            ("solves", num (Gmatch.Engine.segment_solves ()));
            ("fallbacks", num (Gmatch.Engine.segment_fallbacks ())) ] );
      (let certified, fallback = Gmatch.Incremental.stats () in
       ("incremental", Json.Object [ ("certified", num certified); ("fallbacks", num fallback) ]));
      (* The native cascade's decision log is server-lifetime, like the
         memo: decisions per path and the delta path's reuse counters. *)
      (let d_cert, d_fall, d_hits = Gmatch.Incremental.delta_stats () in
       ( "planner",
         Json.Object
           [ ( "decisions",
               Json.Object
                 (List.map (fun (name, n) -> (name, num n)) (Gmatch.Planner.decision_counts ())) );
             ( "delta",
               Json.Object
                 [ ("certified", num d_cert); ("fallbacks", num d_fall); ("cache_hits", num d_hits) ]
             ) ] )) ]
    @ store_fields
  in
  (* [output] is the human-readable block the batch CLI prints, from
     the same renderer, so `provmark request stats` can show it as-is. *)
  Protocol.ok_response ~extra ~id ~exit:0 ~output:(Provmark.Report.stats_lines ()) ()

(* ------------------------------------------------------------------ *)
(* Event loop                                                          *)
(* ------------------------------------------------------------------ *)

let send conn line = if conn.alive then conn.wbuf <- conn.wbuf ^ line

let respond conn json = send conn (Protocol.response_line json)

(* Both shutdown paths — the cooperative protocol op and the
   SIGTERM/SIGINT handler — start the same bounded drain: stop
   accepting, refuse new compute, flush what's in flight, and
   force-close stragglers once the drain deadline passes. *)
let begin_shutdown t =
  if not t.shutting_down then begin
    t.shutting_down <- true;
    t.drain_deadline <- Some (now () +. t.cfg.limits.drain_s)
  end

(* Trip the breaker after [breaker_threshold] degradations inside one
   [breaker_cooldown_s]-long window; a trip shunts ASP requests to VF2
   until the cooldown passes, then the breaker closes and counts
   afresh. *)
let observe_breaker t =
  let total = Gmatch.Engine.degraded_total () in
  let delta = total - t.breaker_seen in
  if delta > 0 then begin
    t.breaker_seen <- total;
    if not (breaker_open t) then begin
      let n = now () in
      if n -. t.breaker_window_start > t.cfg.limits.breaker_cooldown_s then begin
        t.breaker_failures <- 0;
        t.breaker_window_start <- n
      end;
      t.breaker_failures <- t.breaker_failures + delta;
      if t.breaker_failures >= t.cfg.limits.breaker_threshold then begin
        t.breaker_trips <- t.breaker_trips + 1;
        t.breaker_open_until <- n +. t.cfg.limits.breaker_cooldown_s;
        t.breaker_failures <- 0
      end
    end
  end

(* A compute request holds a queue slot from admission until its
   response drains; a line decoded on a worker holds one from dispatch. *)
let reserve t conn =
  t.in_flight <- t.in_flight + 1;
  conn.inflight <- conn.inflight + 1

let release t conn =
  t.in_flight <- t.in_flight - 1;
  conn.inflight <- max 0 (conn.inflight - 1)

(* Admission of a decoded request line.  [reserved] says the line was
   decoded on a worker under a slot taken at dispatch: a compute
   request runs in it, anything else gives it back first. *)
let admit t conn ~reserved request =
  let give_back () = if reserved then release t conn in
  match request with
  | Error message ->
      give_back ();
      respond conn (Protocol.error_response ~id:None Protocol.Bad_request ~message)
  | Ok { Protocol.id; op } -> (
      match op with
      | Protocol.Ping ->
          give_back ();
          respond conn (Protocol.ok_response ~id ~exit:0 ~output:"pong" ())
      | Protocol.Stats ->
          give_back ();
          respond conn (stats_response t ~id)
      | Protocol.Shutdown ->
          give_back ();
          begin_shutdown t;
          respond conn (Protocol.ok_response ~id ~exit:0 ~output:"shutting down" ())
      | Protocol.Benchmark _ | Protocol.Match _ ->
          if t.shutting_down then begin
            give_back ();
            respond conn
              (Protocol.error_response ~id Protocol.Shutting_down
                 ~message:"daemon is shutting down")
          end
          else if (not reserved) && t.in_flight >= t.cfg.queue_bound then begin
            t.rejected <- t.rejected + 1;
            respond conn
              (Protocol.error_response
                 ~extra:(Protocol.retry_hint ~queue_depth:t.in_flight queue_full_retry_s)
                 ~id Protocol.Queue_full
                 ~message:
                   (Printf.sprintf "request queue is full (%d in flight)" t.in_flight))
          end
          else begin
            (* An open breaker routes ASP work straight to the VF2
               backend instead of burning a step budget that is
               currently being exhausted. *)
            let shunted, op =
              if breaker_open t then
                match op with
                | Protocol.Benchmark b when b.backend = Gmatch.Engine.Asp ->
                    (true, Protocol.Benchmark { b with backend = Gmatch.Engine.Direct })
                | Protocol.Match m when m.m_backend = Some Gmatch.Engine.Asp ->
                    (true, Protocol.Match { m with m_backend = Some Gmatch.Engine.Direct })
                | op -> (false, op)
              else (false, op)
            in
            if shunted then t.breaker_shunted <- t.breaker_shunted + 1;
            if not reserved then reserve t conn;
            t.served <- t.served + 1;
            ignore (Pool.async t.pool (fun () -> exec_compute t conn id ~shunted op))
          end)

(* Lines longer than this carry a graph payload — a 256-node [match]
   request is about 185 KB, which the loop frames in about 0.06 ms and
   a worker decodes in about 0.4 ms (2 shared vCPUs) — so a worker
   decodes them under a slot taken now, and the loop stays free for
   other connections.  Without a free slot the loop decodes the
   line itself, so the queue-full answer can carry the request's id. *)
let decode_on_worker_bytes = 16_384

let handle_request t conn line =
  if
    String.length line > decode_on_worker_bytes
    && (not t.shutting_down)
    && t.in_flight < t.cfg.queue_bound
  then begin
    reserve t conn;
    let decode () =
      match Protocol.request_of_line line with
      | r -> r
      | exception e -> Error (Printexc.to_string e)
    in
    ignore (Pool.async t.pool (fun () -> post t conn (Decoded (decode ()))))
  end
  else admit t conn ~reserved:false (Protocol.request_of_line line)

(* Handle each complete line in the first [n] bytes of [buf], the
   first one prefixed by the connection's buffered partial line; a
   trailing partial line is buffered.  Only the new bytes are scanned. *)
let consume_lines t conn buf n =
  let rec go start =
    match Protocol.newline_in buf start n with
    | None -> Buffer.add_subbytes conn.rbuf buf start (n - start)
    | Some nl ->
        let line =
          if Buffer.length conn.rbuf = 0 then Bytes.sub_string buf start (nl - start)
          else begin
            Buffer.add_subbytes conn.rbuf buf start (nl - start);
            let line = Buffer.contents conn.rbuf in
            Buffer.clear conn.rbuf;
            line
          end
        in
        if String.trim line <> "" then handle_request t conn line;
        go (nl + 1)
  in
  go 0

let close_conn t conn =
  conn.alive <- false;
  t.conns <- List.filter (fun c -> c != conn) t.conns;
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

let read_chunk t conn =
  match retry_eintr (fun () -> Unix.read conn.fd t.rdbuf 0 (Bytes.length t.rdbuf)) with
  | 0 -> close_conn t conn
  | n ->
      conn.last_activity <- now ();
      consume_lines t conn t.rdbuf n;
      (* A partial line larger than the cap will never become a valid
         request: answer with a 400-family error and flush-then-close
         instead of buffering it without bound. *)
      if Buffer.length conn.rbuf > t.cfg.limits.max_line_bytes then begin
        t.oversized <- t.oversized + 1;
        Buffer.clear conn.rbuf;
        respond conn
          (Protocol.error_response ~id:None Protocol.Bad_request
             ~message:
               (Printf.sprintf "request line exceeds %d bytes" t.cfg.limits.max_line_bytes));
        conn.closing <- true
      end
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> close_conn t conn
  | exception Unix.Unix_error (Unix.EAGAIN, _, _) -> ()

let write_chunk t conn =
  let len = String.length conn.wbuf in
  match retry_eintr (fun () -> Unix.write_substring conn.fd conn.wbuf 0 len) with
  | n ->
      conn.wbuf <- (if n = len then "" else String.sub conn.wbuf n (len - n));
      if n > 0 then conn.last_activity <- now ();
      if conn.closing && conn.wbuf = "" then close_conn t conn
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> close_conn t conn
  | exception Unix.Unix_error (Unix.EAGAIN, _, _) -> ()

let drain_completions t =
  (* Clear the wakeup byte(s) first, then the queue: a worker that
     posts between the two steps leaves its byte for the next select. *)
  let buf = Bytes.create 256 in
  (try ignore (retry_eintr (fun () -> Unix.read t.pipe_r buf 0 (Bytes.length buf)))
   with Unix.Unix_error (Unix.EAGAIN, _, _) -> ());
  let pending = ref [] in
  Mutex.lock t.done_mutex;
  Queue.iter (fun entry -> pending := entry :: !pending) t.done_q;
  Queue.clear t.done_q;
  Mutex.unlock t.done_mutex;
  List.iter
    (fun (conn, completion) ->
      match completion with
      | Reply line ->
          release t conn;
          conn.last_activity <- now ();
          send conn line
      | Decoded request -> admit t conn ~reserved:true request)
    (List.rev !pending);
  if !pending <> [] then observe_breaker t

(* The connection cap is enforced at accept: a connection over the cap
   gets one structured overloaded (503) line with a retry hint and is
   closed, and the listen socket is left unwatched for a short backoff
   so a connect storm drains from the kernel backlog instead of
   spinning the loop. *)
let accept_conn t counter =
  match retry_eintr (fun () -> Unix.accept t.listen_fd) with
  | fd, _ ->
      Unix.set_nonblock fd;
      if List.length t.conns >= t.cfg.limits.max_conns then begin
        t.conn_rejected <- t.conn_rejected + 1;
        t.accept_pause_until <- now () +. accept_backoff_s;
        let line =
          Protocol.response_line
            (Protocol.error_response
               ~extra:(Protocol.retry_hint overloaded_retry_s)
               ~id:None Protocol.Overloaded
               ~message:
                 (Printf.sprintf "connection cap reached (%d)" t.cfg.limits.max_conns))
        in
        (try ignore (Unix.write_substring fd line 0 (String.length line))
         with Unix.Unix_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ()
      end
      else begin
        incr counter;
        t.conns <-
          { fd; client = Printf.sprintf "c%d" !counter; rbuf = Buffer.create 256; wbuf = "";
            alive = true; closing = false; inflight = 0; last_activity = now () }
          :: t.conns
      end
  | exception Unix.Unix_error (Unix.EAGAIN, _, _) -> ()

let select_retry reads writes timeout =
  match Unix.select reads writes [] timeout with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])

(* A connection is idle-timeout eligible only when no compute is in
   flight on its behalf: a stalled half-line (slow loris), a silent
   keep-alive, and a client that stopped draining responses all
   qualify; a client waiting on a slow solve does not. *)
let idle_deadline t conn =
  match t.cfg.limits.idle_timeout_s with
  | Some idle when conn.alive && conn.inflight = 0 -> Some (conn.last_activity +. idle)
  | _ -> None

let enforce_idle_timeouts t =
  let n = now () in
  List.iter
    (fun conn ->
      match idle_deadline t conn with
      | Some deadline when n >= deadline ->
          if conn.closing || conn.wbuf <> "" then
            (* Either the goodbye line was never collected or the
               client stopped draining its responses; nothing more can
               be said to it. *)
            close_conn t conn
          else begin
            (* Answer the stall with a structured timeout, then close
               once the line is flushed (or one more idle period
               passes). *)
            t.timed_out <- t.timed_out + 1;
            Buffer.clear conn.rbuf;
            respond conn
              (Protocol.error_response ~id:None Protocol.Timeout
                 ~message:
                   (Printf.sprintf "connection idle for %gs; closing"
                      (Option.value t.cfg.limits.idle_timeout_s ~default:0.)));
            conn.closing <- true;
            (* Only the pending error line may leave; stop reading. *)
            conn.last_activity <- n
          end
      | _ -> ())
    t.conns

let loop t =
  let counter = ref 0 in
  let finished () =
    t.shutting_down && t.in_flight = 0
    && List.for_all (fun c -> c.wbuf = "") t.conns
  in
  let drain_overrun () =
    t.shutting_down
    && match t.drain_deadline with Some d -> now () >= d | None -> false
  in
  while not (finished () || drain_overrun ()) do
    if Atomic.get t.stop then begin_shutdown t;
    let n = now () in
    let accepting = (not t.shutting_down) && n >= t.accept_pause_until in
    let reads =
      (if accepting then [ t.listen_fd ] else [])
      @ [ t.pipe_r ]
      @ List.filter_map
          (fun c -> if c.alive && not c.closing then Some c.fd else None)
          t.conns
    in
    let writes = List.filter_map (fun c -> if c.wbuf = "" then None else Some c.fd) t.conns in
    (* Wake for the earliest timer: a pending idle timeout, the drain
       deadline, or the end of an accept backoff. *)
    let timers =
      List.filter_map (idle_deadline t) t.conns
      @ (match t.drain_deadline with Some d -> [ d ] | None -> [])
      @ (if (not t.shutting_down) && n < t.accept_pause_until then [ t.accept_pause_until ]
         else [])
    in
    let timeout =
      match timers with
      | [] -> -1.0
      | ts -> Float.max 0.001 (List.fold_left Float.min infinity ts -. n)
    in
    let readable, writable, _ = select_retry reads writes timeout in
    (* Completed responses leave before new requests are read and
       handled, so a finished reply never waits behind that work. *)
    if List.mem t.pipe_r readable then begin
      drain_completions t;
      List.iter (fun conn -> if conn.alive && conn.wbuf <> "" then write_chunk t conn) t.conns
    end;
    if accepting && List.mem t.listen_fd readable then accept_conn t counter;
    List.iter
      (fun conn ->
        if conn.alive && (not conn.closing) && List.mem conn.fd readable then read_chunk t conn)
      t.conns;
    List.iter
      (fun conn -> if conn.alive && conn.wbuf <> "" && List.mem conn.fd writable then write_chunk t conn)
      t.conns;
    enforce_idle_timeouts t
  done;
  (* Drain deadline passed with work or output still pending: force-
     close the stragglers.  Their in-flight computes finish on the
     pool (completions for dead connections are dropped) and the
     process still exits cleanly. *)
  List.iter (fun conn -> close_conn t conn) t.conns

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let write_trace t =
  match t.cfg.trace with
  | None -> ()
  | Some file ->
      Mutex.lock t.results_mutex;
      let results = List.rev t.results in
      Mutex.unlock t.results_mutex;
      let json =
        Json.Array (List.map (fun r -> Provmark.Trace_span.to_json r.Provmark.Result.span) results)
      in
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc (Json.to_string ~pretty:true json);
          Out_channel.output_char oc '\n')

(* Help-queue executor for segment solves, same shape as the batch
   runner's: the submitter runs the first piece and steals the rest. *)
let segment_runner pool thunks =
  match thunks with
  | [] -> ()
  | first :: rest ->
      let promises = List.map (fun th -> Pool.async ~help:true pool th) rest in
      first ();
      List.iter (fun p -> Pool.await_or_help pool p) promises

let run ?(on_ready = fun () -> ()) cfg =
  let previous_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> None
  in
  let listen_fd =
    match cfg.endpoint with
    | Protocol.Unix_socket path ->
        (if Sys.file_exists path then try Unix.unlink path with Unix.Unix_error _ -> ());
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind fd (Protocol.sockaddr cfg.endpoint);
        fd
    | Protocol.Tcp _ ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Protocol.sockaddr cfg.endpoint);
        fd
  in
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  let pipe_r, pipe_w = Unix.pipe () in
  Unix.set_nonblock pipe_r;
  Unix.set_nonblock pipe_w;
  let pool = Pool.create ~size:(max 1 cfg.jobs) in
  Provmark.Pipeline.set_pair_pool (Some pool);
  Gmatch.Engine.set_segment_runner (Some (segment_runner pool));
  let t =
    {
      cfg;
      pool;
      listen_fd;
      pipe_r;
      pipe_w;
      rdbuf = Bytes.create 65536;
      done_mutex = Mutex.create ();
      done_q = Queue.create ();
      conns = [];
      in_flight = 0;
      served = 0;
      rejected = 0;
      shutting_down = false;
      drain_deadline = None;
      accept_pause_until = 0.;
      timed_out = 0;
      oversized = 0;
      conn_rejected = 0;
      deadline_errors = Atomic.make 0;
      breaker_seen = Gmatch.Engine.degraded_total ();
      breaker_failures = 0;
      breaker_window_start = now ();
      breaker_open_until = 0.;
      breaker_trips = 0;
      breaker_shunted = 0;
      stop = Atomic.make false;
      results_mutex = Mutex.create ();
      results = [];
    }
  in
  (* SIGTERM and SIGINT become a graceful bounded drain: the handler
     only flags and wakes the loop (both async-signal-light
     operations); the loop does the rest and [run] returns normally,
     so the CLI exits 0. *)
  let wake () =
    try ignore (Unix.write t.pipe_w (Bytes.make 1 '!') 0 1)
    with Unix.Unix_error _ -> ()
  in
  let previous_signals =
    List.filter_map
      (fun s ->
        match
          Sys.signal s
            (Sys.Signal_handle
               (fun _ ->
                 Atomic.set t.stop true;
                 wake ()))
        with
        | prev -> Some (s, prev)
        | exception Invalid_argument _ -> None)
      [ Sys.sigterm; Sys.sigint ]
  in
  on_ready ();
  Fun.protect
    ~finally:(fun () ->
      Provmark.Pipeline.set_pair_pool None;
      Gmatch.Engine.set_segment_runner None;
      Pool.shutdown pool;
      List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns;
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ listen_fd; pipe_r; pipe_w ];
      (match cfg.endpoint with
      | Protocol.Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
      | Protocol.Tcp _ -> ());
      List.iter
        (fun (s, behavior) -> try ignore (Sys.signal s behavior) with Invalid_argument _ -> ())
        previous_signals;
      (match previous_sigpipe with
      | Some behavior -> ignore (Sys.signal Sys.sigpipe behavior)
      | None -> ()))
    (fun () ->
      loop t;
      write_trace t;
      t.served)
