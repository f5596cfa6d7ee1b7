(* The serve daemon and its warm-state guarantees.

   The load-bearing properties: many concurrent clients get responses
   byte-identical to the batch CLI's output for the same inputs; a warm
   daemon answers repeated or renamed match requests from the solve
   memo / canon cache without re-solving; concurrent same-key solves
   coalesce into a single in-flight compute; admission control
   rejects over-bound requests with a structured queue-full error
   instead of queueing without limit; wire faults from chaos clients
   never alter a response that claims ok; and a stream of requests
   with fresh strings leaves no memory behind once the capped caches
   are cleared. *)

open Pgraph
module Protocol = Serve.Protocol
module Daemon = Serve.Daemon
module Client = Serve.Client
module Json = Minijson.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let sock_counter = ref 0

let fresh_sock () =
  incr sock_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "provmark_serve_%d_%d.sock" (Unix.getpid ()) !sock_counter)

let shutdown_req = { Protocol.id = None; op = Protocol.Shutdown }

(* Start a daemon on a fresh Unix socket, wait until it listens, run
   [f endpoint] (also passing the daemon's domain so signal tests can
   join it), then shut it down (if [f] did not already) and join the
   loop domain so global engine state is restored before the next
   test. *)
let with_daemon_full ?(jobs = 4) ?(queue_bound = Daemon.default_queue_bound)
    ?(limits = Daemon.default_limits) f =
  let endpoint = Protocol.Unix_socket (fresh_sock ()) in
  let ready_mutex = Mutex.create () in
  let ready_cond = Condition.create () in
  let ready = ref false in
  let on_ready () =
    Mutex.lock ready_mutex;
    ready := true;
    Condition.signal ready_cond;
    Mutex.unlock ready_mutex
  in
  let daemon =
    Domain.spawn (fun () ->
        Daemon.run ~on_ready
          {
            Daemon.endpoint;
            jobs;
            queue_bound;
            store = None;
            trace = None;
            limits;
            opts = Gmatch.Match_opts.default;
          })
  in
  Mutex.lock ready_mutex;
  while not !ready do
    Condition.wait ready_cond ready_mutex
  done;
  Mutex.unlock ready_mutex;
  Fun.protect
    ~finally:(fun () ->
      (try Client.with_connection endpoint (fun c -> ignore (Client.call c shutdown_req))
       with Unix.Unix_error _ -> ());
      ignore (Domain.join daemon))
    (fun () -> f endpoint daemon)

let with_daemon ?jobs ?queue_bound ?limits f =
  with_daemon_full ?jobs ?queue_bound ?limits (fun endpoint _daemon -> f endpoint)

let call_ok endpoint req =
  Client.with_connection endpoint (fun c ->
      match Client.call c req with
      | Ok response -> response
      | Error msg -> Alcotest.failf "transport error: %s" msg)

let int_member path json =
  let v = List.fold_left (fun j name -> Json.member name j) json path in
  match v with
  | Json.Number f -> int_of_float f
  | _ -> Alcotest.failf "missing numeric member %s" (String.concat "." path)

(* ------------------------------------------------------------------ *)
(* Concurrent clients, byte-identical responses                        *)
(* ------------------------------------------------------------------ *)

let bench_request ?id syscall =
  {
    Protocol.id;
    op =
      Protocol.Benchmark
        {
          tool = Recorders.Recorder.Spade;
          syscall;
          trials = None;
          seed = 1;
          backend = Gmatch.Engine.default_backend;
          result_type = "rb";
        };
  }

(* What the batch CLI prints for `run spg <syscall> --seed 1 --no-store`:
   the daemon embeds its responses through the same renderers, so this
   is the byte-exact expectation. *)
let expected_bench syscall =
  let config =
    {
      (Provmark.Config.default Recorders.Recorder.Spade) with
      Provmark.Config.seed = 1;
      backend = Gmatch.Engine.default_backend;
    }
  in
  match Provmark.Runner.run_syscall config syscall with
  | Error _ -> Alcotest.failf "unknown benchmark %s" syscall
  | Ok r ->
      Provmark.Report.run_output ~result_type:"rb" r ^ Provmark.Report.suite_epilogue [ r ]

let test_concurrent_clients_byte_identical () =
  let syscalls =
    match Provmark.Bench_registry.names () with
    | a :: b :: c :: d :: e :: f :: g :: h :: _ -> [ a; b; c; d; e; f; g; h ]
    | names -> names
  in
  check_int "eight concurrent clients" 8 (List.length syscalls);
  let responses =
    with_daemon ~jobs:4 (fun endpoint ->
        (* One client domain per request, all in flight at once. *)
        let clients =
          List.map
            (fun syscall ->
              Domain.spawn (fun () -> call_ok endpoint (bench_request ~id:syscall syscall)))
            syscalls
        in
        List.map Domain.join clients)
  in
  (* Expected outputs computed after the daemon shut down, on the plain
     sequential path. *)
  List.iter2
    (fun syscall response ->
      check_string "status" "ok" (Client.response_status response);
      (match Json.member "id" response with
      | Json.String id -> check_string "id echo" syscall id
      | _ -> Alcotest.fail "missing id");
      check_string
        (Printf.sprintf "output for %s" syscall)
        (expected_bench syscall)
        (Client.response_output response))
    syscalls responses

(* ------------------------------------------------------------------ *)
(* Warm daemon: repeated and renamed match requests don't re-solve     *)
(* ------------------------------------------------------------------ *)

let props = Props.of_list

let base_graph () =
  let g =
    Graph.add_node Graph.empty ~id:"p1" ~label:"Process" ~props:(props [ ("pid", "100") ])
  in
  let g = Graph.add_node g ~id:"f1" ~label:"Artifact" ~props:(props [ ("path", "/tmp/x") ]) in
  let g = Graph.add_node g ~id:"f2" ~label:"Artifact" ~props:(props [ ("path", "/tmp/y") ]) in
  let g = Graph.add_edge g ~id:"u1" ~src:"p1" ~tgt:"f1" ~label:"Used" ~props:(props [ ("t", "1") ]) in
  Graph.add_edge g ~id:"u2" ~src:"p1" ~tgt:"f2" ~label:"Used" ~props:(props [ ("t", "2") ])

let dot_of g = Recorders.Dot.to_string (Recorders.Dot.of_pgraph ~name:"g" g)

(* A pair that must actually be solved: same shape, one transient
   property differs, so the canonical-digest bypass cannot answer it
   and the ASP backend grounds a task and consults the memo. *)
let solve_pair prefix =
  let a = Helpers.rename_with_prefix prefix (base_graph ()) in
  let b =
    Graph.set_edge_props
      (Helpers.rename_with_prefix (prefix ^ "r") (base_graph ()))
      (prefix ^ "ru1")
      (props [ ("t", "9") ])
  in
  (dot_of a, dot_of b)

let match_request (a, b) =
  {
    Protocol.id = None;
    op =
      Protocol.Match
        {
          kind = Provmark.Match_op.Generalize;
          format = Provmark.Match_op.Dot;
          a;
          b;
          m_backend = Some Gmatch.Engine.Asp;
        };
  }

let test_warm_renamed_match_no_resolve () =
  Asp.Memo.clear ();
  Asp.Memo.reset_stats ();
  with_daemon ~jobs:4 (fun endpoint ->
      let stats () = call_ok endpoint { Protocol.id = None; op = Protocol.Stats } in
      let first = call_ok endpoint (match_request (solve_pair "a")) in
      check_string "first status" "ok" (Client.response_status first);
      let cold = stats () in
      let cold_misses = int_member [ "memo"; "misses" ] cold in
      check_bool "first request solved" true (cold_misses > 0);
      (* Repeated request: same pair, answered from the memo. *)
      let repeat = call_ok endpoint (match_request (solve_pair "a")) in
      check_string "repeat output" (Client.response_output first)
        (Client.response_output repeat);
      (* Renamed variant: fresh identifiers, same rename-invariant
         keys — still no new solve. *)
      let renamed = call_ok endpoint (match_request (solve_pair "zz")) in
      check_string "renamed status" "ok" (Client.response_status renamed);
      let warm = stats () in
      check_int "no re-solve" cold_misses (int_member [ "memo"; "misses" ] warm);
      check_bool "served from cache" true
        (int_member [ "memo"; "hits" ] warm + int_member [ "memo"; "coalesced" ] warm > 0);
      (* K concurrent renamed variants: worst case they coalesce on the
         in-flight solve, best case they hit the table — either way the
         miss count must not move. *)
      let k = 6 in
      let clients =
        List.init k (fun i ->
            Domain.spawn (fun () ->
                call_ok endpoint (match_request (solve_pair (Printf.sprintf "c%d_" i)))))
      in
      let responses = List.map Domain.join clients in
      List.iter
        (fun r -> check_string "concurrent status" "ok" (Client.response_status r))
        responses;
      let final = stats () in
      check_int "concurrent renamed requests never re-solve" cold_misses
        (int_member [ "memo"; "misses" ] final))

(* ------------------------------------------------------------------ *)
(* Soak: fresh transient strings do not accumulate                     *)
(* ------------------------------------------------------------------ *)

(* Request [k]'s pair: a small generated match pair whose identifiers
   and a per-node stamp property are fresh to this request, as every
   recorded trial's timestamps, ids and paths are. *)
let soak_pair k =
  let a, b = Provmark.Bench_gen.match_pair ~nodes:6 ~seed:k in
  let fresh g =
    let g =
      List.fold_left
        (fun g (n : Graph.node) ->
          Graph.set_node_props g n.Graph.node_id
            (Props.add "stamp" (Printf.sprintf "t%d.%s" k n.Graph.node_id) n.Graph.node_props))
        g (Graph.nodes g)
    in
    Helpers.rename_with_prefix (Printf.sprintf "k%d_" k) g
  in
  (dot_of (fresh a), dot_of (fresh b))

(* Live major-heap words once the capped caches are emptied: what the
   process keeps no matter how many requests it has served. *)
let retained_words () =
  Asp.Memo.clear ();
  Pgraph.Canon.clear ();
  Gmatch.Incremental.reset_delta ();
  Gc.compact ();
  (Gc.stat ()).Gc.live_words

let test_soak_retains_nothing_per_request () =
  let batch = 60 and slack = 4_000 in
  with_daemon ~jobs:2 (fun endpoint ->
      let run_batch first =
        for k = first to first + batch - 1 do
          let r = call_ok endpoint (match_request (soak_pair k)) in
          check_string "soak status" "ok" (Client.response_status r)
        done;
        retained_words ()
      in
      let after_one = run_batch 0 in
      let after_two = run_batch batch in
      if after_two > after_one + slack then
        Alcotest.failf "live words grew from %d to %d over %d fresh requests (slack %d)" after_one
          after_two batch slack)

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

let test_queue_full_rejection () =
  (* queue_bound = 0 rejects every compute request deterministically. *)
  with_daemon ~jobs:1 ~queue_bound:0 (fun endpoint ->
      let response = call_ok endpoint (bench_request "open") in
      check_string "status" "error" (Client.response_status response);
      check_string "label" "queue-full"
        (match Json.member "error" response with Json.String s -> s | _ -> "?");
      check_int "code" 429 (int_member [ "code" ] response);
      (* The 429 carries a machine-readable retry hint the client
         round-trips: seconds to back off, plus the queue depth that
         caused the rejection. *)
      check_bool "retry hint present" true (Client.response_retry_after response <> None);
      check_bool "queue depth present" true (Client.response_queue_depth response = Some 0);
      (* Control-plane requests are not subject to admission control. *)
      let ping = call_ok endpoint { Protocol.id = None; op = Protocol.Ping } in
      check_string "ping still ok" "ok" (Client.response_status ping);
      let rejected = int_member [ "rejected" ] (call_ok endpoint { Protocol.id = None; op = Protocol.Stats }) in
      check_int "rejection counted" 1 rejected)

(* Unparseable lines and well-formed requests with invalid fields alike
   get a bad-request answer; a non-positive trial count would otherwise
   be grown by the retry policy into a count nobody asked for. *)
let test_malformed_request () =
  with_daemon ~jobs:1 (fun endpoint ->
      List.iter
        (fun line ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              Unix.connect fd (Protocol.sockaddr endpoint);
              let line = line ^ "\n" in
              ignore (Unix.write_substring fd line 0 (String.length line));
              let buf = Bytes.create 4096 in
              let n = Unix.read fd buf 0 (Bytes.length buf) in
              let response = Json.of_string (Bytes.sub_string buf 0 n) in
              check_string "status" "error" (Client.response_status response);
              check_int "code" 400 (int_member [ "code" ] response)))
        [
          "this is not json";
          {|{"op":"benchmark","tool":"spg","syscall":"open","trials":0}|};
          {|{"op":"benchmark","tool":"spg","syscall":"open","trials":-3}|};
        ])

(* ------------------------------------------------------------------ *)
(* Connection lifecycle: timeouts, caps, disconnects, drain            *)
(* ------------------------------------------------------------------ *)

let with_raw_conn endpoint f =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Protocol.sockaddr endpoint);
      f fd)

(* Everything the daemon says before closing the socket. *)
let read_until_eof fd =
  let buf = Bytes.create 65536 in
  let out = Buffer.create 256 in
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> Buffer.contents out
    | n ->
        Buffer.add_subbytes out buf 0 n;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let first_line s = match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s

let stats_req = { Protocol.id = None; op = Protocol.Stats }

(* "auto" names the native cascade that [direct] now is: a request
   naming it must be answered byte for byte like one naming "direct",
   on a pair the canonical bypasses cannot answer and on a ProvGen pair
   the segment plan takes. *)
let test_auto_alias_answers_as_direct () =
  let raw_line endpoint line =
    with_raw_conn endpoint (fun fd ->
        ignore (Unix.write_substring fd line 0 (String.length line));
        let buf = Bytes.create 65536 and out = Buffer.create 4096 in
        let rec go () =
          if not (String.contains (Buffer.contents out) '\n') then
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> ()
            | n ->
                Buffer.add_subbytes out buf 0 n;
                go ()
        in
        go ();
        first_line (Buffer.contents out))
  in
  let line_for backend pair =
    match Protocol.request_to_json { (match_request pair) with Protocol.id = Some "m" } with
    | Json.Object fields ->
        Protocol.response_line
          (Json.Object
             (List.map
                (fun (k, v) -> if k = "backend" then (k, Json.String backend) else (k, v))
                fields))
    | _ -> Alcotest.fail "a request is a JSON object"
  in
  let provgen =
    let a, b = Provgen.pair ~seed:11 (Provgen.default_spec ~nodes:128) in
    (dot_of a, dot_of b)
  in
  with_daemon ~jobs:2 (fun endpoint ->
      List.iter
        (fun pair ->
          let direct = raw_line endpoint (line_for "direct" pair) in
          check_string "direct answers" "ok" (Client.response_status (Json.of_string direct));
          check_string "auto answers as direct" direct (raw_line endpoint (line_for "auto" pair)))
        [ solve_pair "al"; provgen ])

let test_slow_loris_timeout () =
  let limits = { Daemon.default_limits with Daemon.idle_timeout_s = Some 0.2 } in
  with_daemon ~jobs:1 ~limits (fun endpoint ->
      with_raw_conn endpoint (fun fd ->
          (* Half a request line, then silence: the daemon must answer
             with a structured 408 and close — not hold the socket
             forever, not cut it without a word. *)
          ignore (Unix.write_substring fd "{\"op\":\"pi" 0 9);
          let said = read_until_eof fd in
          check_bool "daemon said something before closing" true (said <> "");
          let response = Json.of_string (first_line said) in
          check_string "status" "error" (Client.response_status response);
          check_string "label" "timeout"
            (match Json.member "error" response with Json.String s -> s | _ -> "?");
          check_int "code" 408 (int_member [ "code" ] response));
      let stats = call_ok endpoint stats_req in
      check_bool "timeout counted" true (int_member [ "timed_out" ] stats >= 1))

(* Lines past the daemon's decode-on-worker size take the other route
   to admission; each outcome must read as it does from a short line:
   a 256-node PROV-JSON match answered byte for byte like
   [Match_op.run], a long malformed line and a long ping answered by
   the loop, and every slot given back. *)
let test_long_lines_decoded_on_worker () =
  with_daemon ~jobs:2 (fun endpoint ->
      let a, b = Provgen.pair ~seed:41 (Provgen.default_spec ~nodes:256) in
      let wire g = Recorders.Provjson.to_string g in
      let parse text =
        match Provmark.Match_op.parse_graph Provmark.Match_op.Provjson text with
        | Ok g -> g
        | Error m -> Alcotest.fail m
      in
      let expected =
        Provmark.Match_op.run Provmark.Match_op.Generalize (parse (wire a)) (parse (wire b))
      in
      let request =
        {
          Protocol.id = Some "big";
          op =
            Protocol.Match
              {
                kind = Provmark.Match_op.Generalize;
                format = Provmark.Match_op.Provjson;
                a = wire a;
                b = wire b;
                m_backend = None;
              };
        }
      in
      let response = call_ok endpoint request in
      check_string "match status" "ok" (Client.response_status response);
      check_string "match output" expected (Client.response_output response);
      let raw line =
        with_raw_conn endpoint (fun fd ->
            let line = line ^ "\n" in
            ignore (Unix.write_substring fd line 0 (String.length line));
            let buf = Bytes.create 65536 in
            let n = Unix.read fd buf 0 (Bytes.length buf) in
            Json.of_string (Bytes.sub_string buf 0 n))
      in
      let malformed = raw ("[" ^ String.make 20_000 ' ' ^ "nonsense") in
      check_int "long malformed line" 400 (int_member [ "code" ] malformed);
      let long_id = String.make 20_000 'p' in
      let ping = raw (Printf.sprintf {|{"op":"ping","id":"%s"}|} long_id) in
      check_string "long ping" "pong" (Client.response_output ping);
      check_bool "long ping keeps its id" true (Json.member "id" ping = Json.String long_id);
      let stats = call_ok endpoint stats_req in
      check_int "one compute served" 1 (int_member [ "served" ] stats);
      check_int "no slot left held" 0 (int_member [ "queue_depth" ] stats))

let test_oversized_line_rejected () =
  let limits = { Daemon.default_limits with Daemon.max_line_bytes = 1024 } in
  with_daemon ~jobs:1 ~limits (fun endpoint ->
      with_raw_conn endpoint (fun fd ->
          (* 4 KiB with no newline in sight: the buffer cap must cut
             this off with a 400 rather than buffer without limit. *)
          let blob = String.make 4096 'x' in
          ignore (Unix.write_substring fd blob 0 (String.length blob));
          let said = read_until_eof fd in
          let response = Json.of_string (first_line said) in
          check_string "status" "error" (Client.response_status response);
          check_int "code" 400 (int_member [ "code" ] response);
          let message =
            match Json.member "message" response with Json.String s -> s | _ -> ""
          in
          check_bool "message names the cap" true
            (String.length message > 0
            && String.lowercase_ascii message |> fun m ->
               String.length m >= 7 && String.sub m 0 7 = "request"));
      let stats = call_ok endpoint stats_req in
      check_bool "oversize counted" true (int_member [ "oversized" ] stats >= 1))

let test_max_conns_overload () =
  let limits = { Daemon.default_limits with Daemon.max_conns = 1 } in
  with_daemon ~jobs:1 ~limits (fun endpoint ->
      (* Hold the one allowed connection open... *)
      Client.with_connection endpoint (fun held ->
          (* ...then the next accept draws one 503 line and a close. *)
          with_raw_conn endpoint (fun fd ->
              let said = read_until_eof fd in
              let response = Json.of_string (first_line said) in
              check_string "status" "error" (Client.response_status response);
              check_string "label" "overloaded"
                (match Json.member "error" response with Json.String s -> s | _ -> "?");
              check_int "code" 503 (int_member [ "code" ] response);
              check_bool "retry hint present" true
                (Client.response_retry_after response <> None));
          (* The held connection is unharmed and the rejection counted. *)
          let stats =
            match Client.call held stats_req with
            | Ok r -> r
            | Error msg -> Alcotest.failf "held connection broken: %s" msg
          in
          check_bool "rejection counted" true (int_member [ "conn_rejected" ] stats >= 1)))

let test_mid_request_disconnect () =
  with_daemon ~jobs:2 (fun endpoint ->
      (* A full request, then an immediate hangup: the daemon computes
         into a dead socket.  It must neither crash nor leak the
         in-flight slot. *)
      with_raw_conn endpoint (fun fd ->
          let line = Protocol.response_line (Protocol.request_to_json (bench_request "open")) in
          ignore (Unix.write_substring fd line 0 (String.length line)));
      (* The orphaned compute drains: queue depth returns to 0. *)
      let rec wait_drained n =
        let stats = call_ok endpoint stats_req in
        if int_member [ "queue_depth" ] stats = 0 then ()
        else if n = 0 then Alcotest.fail "orphaned request never drained"
        else begin
          Unix.sleepf 0.05;
          wait_drained (n - 1)
        end
      in
      wait_drained 100;
      (* Concurrent clients are untouched by the corpse: responses are
         still byte-identical to the batch CLI. *)
      let syscalls = [ "open"; "read" ] in
      let clients =
        List.map
          (fun syscall -> Domain.spawn (fun () -> call_ok endpoint (bench_request syscall)))
          syscalls
      in
      let responses = List.map Domain.join clients in
      List.iter2
        (fun syscall response ->
          check_string "status" "ok" (Client.response_status response);
          check_string
            (Printf.sprintf "output for %s" syscall)
            (expected_bench syscall)
            (Client.response_output response))
        syscalls responses)

let test_match_deadline () =
  (* A zero budget makes every match request overrun deterministically:
     the daemon must answer with the structured 504 and the batch CLI's
     quarantine exit code, not hang or 500. *)
  let limits = { Daemon.default_limits with Daemon.deadline_s = Some 0. } in
  with_daemon ~jobs:1 ~limits (fun endpoint ->
      let response = call_ok endpoint (match_request (solve_pair "dl")) in
      check_string "status" "error" (Client.response_status response);
      check_string "label" "deadline-exceeded"
        (match Json.member "error" response with Json.String s -> s | _ -> "?");
      check_int "code" 504 (int_member [ "code" ] response);
      check_int "exit" (Provmark.Exit_code.to_int Provmark.Exit_code.Quarantined)
        (Client.response_exit response);
      let stats = call_ok endpoint stats_req in
      check_bool "deadline counted" true (int_member [ "deadline_errors" ] stats >= 1))

let test_sigterm_drains () =
  let drain_s = 5.0 in
  with_daemon_full ~jobs:2
    ~limits:{ Daemon.default_limits with Daemon.drain_s }
    (fun endpoint daemon ->
      (* Put a request in flight, then deliver SIGTERM to our own
         process (the daemon's handler owns the signal for now). *)
      let client = Domain.spawn (fun () -> call_ok endpoint (bench_request "open")) in
      let rec wait_busy n =
        let stats = call_ok endpoint stats_req in
        if int_member [ "queue_depth" ] stats + int_member [ "served" ] stats > 0 then ()
        else if n = 0 then Alcotest.fail "request never started"
        else begin
          Unix.sleepf 0.02;
          wait_busy (n - 1)
        end
      in
      wait_busy 250;
      let signalled = Provmark.Trace_span.now_s () in
      Unix.kill (Unix.getpid ()) Sys.sigterm;
      (* The in-flight request still completes and flushes... *)
      let response = Domain.join client in
      check_string "in-flight request completed" "ok" (Client.response_status response);
      (* ...and the daemon itself drains and returns within its budget:
         [run] counts the request it served on the way out. *)
      let served = Domain.join daemon in
      let drain_wall = Provmark.Trace_span.now_s () -. signalled in
      check_bool "drained and returned" true (served >= 1);
      check_bool
        (Printf.sprintf "drained within budget (%.2fs)" drain_wall)
        true (drain_wall <= drain_s +. 2.0))

(* ------------------------------------------------------------------ *)
(* Chaos gauntlet: fixed-seed socket faults from concurrent clients    *)
(* ------------------------------------------------------------------ *)

let test_chaos_gauntlet () =
  let plan =
    match
      Faults.Plan.of_string
        "seed=11,socket.stall=0.1,socket.torn=0.2,socket.disconnect=0.1,socket.shortwrite=0.2"
    with
    | Ok p -> p
    | Error msg -> Alcotest.failf "socket plan: %s" msg
  in
  let syscalls =
    match Provmark.Bench_registry.names () with
    | a :: b :: c :: d :: _ -> [| a; b; c; d |]
    | _ -> Alcotest.fail "registry too small"
  in
  let clients = 4 and per_client = 4 in
  let limits = { Daemon.default_limits with Daemon.idle_timeout_s = Some 1.0 } in
  (* The plan goes up before the reference pass: the daemon's workers
     share this process, see the plan and append its (deterministic)
     fault-outcomes epilogue to every report, so the reference must be
     rendered under the same plan to stay byte-comparable.  Socket
     faults are wire-only, so the plain reference calls are untouched. *)
  Faults.Injector.set_plan (Some plan);
  Fun.protect
    ~finally:(fun () -> Faults.Injector.set_plan None)
    (fun () ->
      with_daemon_full ~jobs:4 ~limits (fun endpoint _daemon ->
          let reference =
            Array.map
              (fun sc ->
                let r = call_ok endpoint (bench_request sc) in
                check_string ("reference status for " ^ sc) "ok" (Client.response_status r);
                Client.response_output r)
              syscalls
          in
          let outcomes =
            List.init clients (fun c ->
                Domain.spawn (fun () ->
                    List.init per_client (fun i ->
                        let k = (c + i) mod Array.length syscalls in
                        ( k,
                          Client.chaos_call ~site:(Printf.sprintf "c%d/r%d" c i) endpoint
                            (bench_request syscalls.(k)) ))))
            |> List.concat_map Domain.join
          in
          (* A response that claims ok must be byte-identical to the
             clean reference; the only error a fault may cause is the
             idle timeout a stalled send earns. *)
          let ok = ref 0 in
          List.iter
            (fun (k, outcome) ->
              match outcome with
              | Client.Response r when String.equal (Client.response_status r) "ok" ->
                  check_string ("faulted response for " ^ syscalls.(k)) reference.(k)
                    (Client.response_output r);
                  incr ok
              | Client.Response r when Client.response_error r = Some "timeout" -> ()
              | Client.Response r ->
                  Alcotest.failf "unexpected error response: %s" (Json.to_string r)
              | Client.No_response _ -> ())
            outcomes;
          check_bool "some request survived" true (!ok > 0);
          (* The daemon is still healthy after the abuse. *)
          let stats = call_ok endpoint stats_req in
          check_string "stats after the gauntlet" "ok" (Client.response_status stats);
          check_bool "survivors served" true (int_member [ "served" ] stats >= !ok)))

(* ------------------------------------------------------------------ *)
(* Circuit breaker: repeated ASP degradation shunts to VF2             *)
(* ------------------------------------------------------------------ *)

let test_breaker_trips_and_shunts () =
  Asp.Memo.clear ();
  Asp.Memo.reset_stats ();
  (* Exhaust every solve's step budget: each ASP match degrades to the
     VF2 fallback and counts against the breaker. *)
  Faults.Injector.set_plan
    (Some { Faults.Plan.empty with Faults.Plan.seed = 3; solver_exhaust = 1.0 });
  Fun.protect
    ~finally:(fun () ->
      Faults.Injector.set_plan None;
      Asp.Memo.clear ();
      Asp.Memo.reset_stats ())
    (fun () ->
      let limits =
        {
          Daemon.default_limits with
          Daemon.breaker_threshold = 1;
          breaker_cooldown_s = 60.0;
        }
      in
      with_daemon ~jobs:1 ~limits (fun endpoint ->
          (* First ASP request degrades; the breaker observes it when
             the completion drains — before the response line is even
             flushed, so the next request is deterministically
             shunted. *)
          let first = call_ok endpoint (match_request (solve_pair "bk1")) in
          check_string "degraded request still answers" "ok" (Client.response_status first);
          let second = call_ok endpoint (match_request (solve_pair "bk2")) in
          check_string "shunted request answers" "ok" (Client.response_status second);
          let stats = call_ok endpoint stats_req in
          check_bool "breaker tripped" true (int_member [ "breaker"; "trips" ] stats >= 1);
          check_string "breaker open" "open"
            (match Json.member "breaker" stats |> Json.member "state" with
            | Json.String s -> s
            | _ -> "?");
          check_bool "requests shunted" true
            (int_member [ "breaker"; "shunted" ] stats >= 1)))

(* ------------------------------------------------------------------ *)
(* Solve coalescing (single-flight memo)                               *)
(* ------------------------------------------------------------------ *)

let test_memo_coalescing () =
  Asp.Memo.clear ();
  Asp.Memo.reset_stats ();
  let k = 6 in
  let computes = Atomic.make 0 in
  (* The leader's compute blocks until every other caller has joined
     the in-flight solve, so the test is deterministic: either all
     K - 1 join (and the assertion below holds) or the test hangs —
     there is no lucky-timing pass. *)
  let compute () =
    Atomic.incr computes;
    while Asp.Memo.coalesced () < k - 1 do
      Domain.cpu_relax ()
    done;
    Asp.Solver.Unsat
  in
  let callers =
    List.init k (fun _ ->
        Domain.spawn (fun () ->
            Asp.Memo.find_or_compute ~tag:"coalesce-test" ~key:"one-shared-key" compute))
  in
  let outcomes = List.map Domain.join callers in
  check_int "exactly one compute" 1 (Atomic.get computes);
  check_int "everyone else coalesced" (k - 1) (Asp.Memo.coalesced ());
  List.iter
    (fun outcome -> check_bool "same outcome" true (outcome = Asp.Solver.Unsat))
    outcomes;
  Asp.Memo.clear ();
  Asp.Memo.reset_stats ()

(* ------------------------------------------------------------------ *)
(* Line framing                                                        *)
(* ------------------------------------------------------------------ *)

(* [Protocol.newline_in] tests eight bytes at a time; it must agree with
   a byte-by-byte scan for every window, with the newline at every
   position (or none) among bytes one bit or one step away from it. *)
let test_newline_in_matches_naive_scan () =
  let len = 40 in
  let naive buf start stop =
    let rec go i = if i >= stop then None else if Bytes.get buf i = '\n' then Some i else go (i + 1) in
    go start
  in
  let near = [| '\x8a'; '\x0b'; '\x09'; '\x00' |] in
  let fills =
    List.init 4 (fun r i -> near.((i + r) mod 4)) @ List.init 4 (fun k _ -> near.(k))
  in
  List.iter
    (fun fill ->
      for nl = -1 to len - 1 do
        List.iter
          (fun newlines ->
            let buf = Bytes.init len fill in
            List.iter (fun p -> if p >= 0 && p < len then Bytes.set buf p '\n') newlines;
            for start = 0 to len do
              for stop = start to len do
                let expected = naive buf start stop in
                if Protocol.newline_in buf start stop <> expected then
                  Alcotest.failf "newline_in %S %d %d: expected %s" (Bytes.to_string buf) start stop
                    (match expected with None -> "None" | Some i -> string_of_int i)
              done
            done)
          [ [ nl ]; [ nl; len - 1 - nl ] ]
      done)
    fills

let () =
  Alcotest.run "serve"
    [
      ( "daemon",
        [
          Alcotest.test_case "concurrent clients byte-identical" `Slow
            test_concurrent_clients_byte_identical;
          Alcotest.test_case "warm renamed match no re-solve" `Slow
            test_warm_renamed_match_no_resolve;
          Alcotest.test_case "queue-full rejection" `Quick test_queue_full_rejection;
          Alcotest.test_case "malformed request" `Quick test_malformed_request;
          Alcotest.test_case "auto alias answers as direct" `Quick
            test_auto_alias_answers_as_direct;
          Alcotest.test_case "soak retains nothing per request" `Quick
            test_soak_retains_nothing_per_request;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "slow-loris idle timeout" `Quick test_slow_loris_timeout;
          Alcotest.test_case "oversized line rejected" `Quick test_oversized_line_rejected;
          Alcotest.test_case "connection cap overload" `Quick test_max_conns_overload;
          Alcotest.test_case "mid-request disconnect" `Slow test_mid_request_disconnect;
          Alcotest.test_case "match deadline" `Quick test_match_deadline;
          Alcotest.test_case "SIGTERM drains" `Slow test_sigterm_drains;
          Alcotest.test_case "breaker trips and shunts" `Slow test_breaker_trips_and_shunts;
          Alcotest.test_case "long lines decoded on a worker" `Quick
            test_long_lines_decoded_on_worker;
          Alcotest.test_case "chaos gauntlet" `Slow test_chaos_gauntlet;
        ] );
      ( "coalescing",
        [ Alcotest.test_case "K concurrent solves, one compute" `Quick test_memo_coalescing ] );
      ( "framing",
        [
          Alcotest.test_case "newline_in equals a naive scan" `Quick
            test_newline_in_matches_naive_scan;
        ] );
    ]
