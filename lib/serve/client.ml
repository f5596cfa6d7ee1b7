module Json = Minijson.Json

(* [rbuf] holds bytes read past the last returned line; every socket
   read of the connection lands in [chunk]. *)
type t = { fd : Unix.file_descr; mutable rbuf : string; chunk : Bytes.t }

(* A signal landing during a blocking read/write must not drop half a
   request or a response: every syscall below retries on EINTR. *)
let rec retry_eintr f =
  match f () with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

let connect endpoint =
  let domain =
    match endpoint with Protocol.Unix_socket _ -> Unix.PF_UNIX | Protocol.Tcp _ -> Unix.PF_INET
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try retry_eintr (fun () -> Unix.connect fd (Protocol.sockaddr endpoint))
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd; rbuf = ""; chunk = Bytes.create 65536 }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let with_connection endpoint f =
  let t = connect endpoint in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then go (off + retry_eintr (fun () -> Unix.write_substring fd s off (len - off)))
  in
  go 0

(* Responses arrive one per line; requests may be pipelined, so bytes
   past the first newline are kept for the next [read_line]. *)
let read_line t =
  match String.index_opt t.rbuf '\n' with
  | Some nl ->
      let line = String.sub t.rbuf 0 nl in
      t.rbuf <- String.sub t.rbuf (nl + 1) (String.length t.rbuf - nl - 1);
      Ok line
  | None ->
      let line = Buffer.create (String.length t.rbuf + 1024) in
      Buffer.add_string line t.rbuf;
      let rec go () =
        match retry_eintr (fun () -> Unix.read t.fd t.chunk 0 (Bytes.length t.chunk)) with
        | 0 ->
            t.rbuf <- Buffer.contents line;
            Error "connection closed before a response arrived"
        | n -> (
            match Protocol.newline_in t.chunk 0 n with
            | None ->
                Buffer.add_subbytes line t.chunk 0 n;
                go ()
            | Some nl ->
                Buffer.add_subbytes line t.chunk 0 nl;
                t.rbuf <- Bytes.sub_string t.chunk (nl + 1) (n - nl - 1);
                Ok (Buffer.contents line))
      in
      go ()

let read_response t =
  match read_line t with
  | Error _ as e -> e
  | Ok line -> (
      match Json.of_string line with
      | json -> Ok json
      | exception Json.Parse_error msg -> Error (Printf.sprintf "malformed response: %s" msg))

let call t request =
  write_all t.fd (Protocol.response_line (Protocol.request_to_json request));
  read_response t

let response_status json =
  match Json.member "status" json with Json.String s -> s | _ -> "?"

let response_output json =
  match Json.member "output" json with Json.String s -> s | _ -> ""

let response_exit json =
  match Json.member "exit" json with
  | Json.Number f when Float.is_integer f -> int_of_float f
  | _ -> 1

let response_error json =
  match Json.member "error" json with Json.String s -> Some s | _ -> None

let response_retry_after json =
  match Json.member "retry_after_s" json with Json.Number f -> Some f | _ -> None

let response_queue_depth json =
  match Json.member "queue_depth" json with
  | Json.Number f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Chaos driver                                                        *)
(* ------------------------------------------------------------------ *)

type chaos_outcome =
  | Response of Json.t  (** a response line arrived (ok, error, or the daemon's timeout) *)
  | No_response of string  (** the fault forecloses a response (deliberate disconnect) *)

(* One request over its own connection, with the wire behaviour the
   process-wide fault plan prescribes for [site] (no plan set, or no
   socket fault firing, degrades to a plain [call]).  The faults are
   real socket abuse — partial lines, dribbled writes, mid-request
   hangups — so the daemon under test sees exactly what a sick client
   would send. *)
let chaos_call ~site endpoint request =
  let line = Protocol.response_line (Protocol.request_to_json request) in
  let fault = Faults.Injector.socket_fault ~site in
  let plan = Option.value (Faults.Injector.plan ()) ~default:Faults.Plan.empty in
  with_connection endpoint (fun t ->
      match fault with
      | None ->
          (match call t request with Ok json -> Response json | Error msg -> No_response msg)
      | Some Faults.Plan.Stall_read ->
          (* Send a strict prefix of the line, then go silent: the
             daemon's idle timeout must cut the connection loose with a
             structured timeout error, which we collect. *)
          let keep = max 1 (String.length line / 2) in
          write_all t.fd (String.sub line 0 keep);
          (match read_response t with
          | Ok json -> Response json
          | Error msg -> No_response msg)
      | Some Faults.Plan.Torn_line ->
          (* The line arrives in two pieces with a pause between: the
             daemon must buffer the partial line and answer normally
             once the newline lands. *)
          let cut = Faults.Injector.torn_offset plan ~site (String.length line) in
          write_all t.fd (String.sub line 0 cut);
          Unix.sleepf 0.01;
          write_all t.fd (String.sub line cut (String.length line - cut));
          (match read_response t with
          | Ok json -> Response json
          | Error msg -> No_response msg)
      | Some Faults.Plan.Disconnect ->
          (* Full request, immediate hangup: the daemon computes into a
             dead connection and must neither crash nor leak the
             in-flight slot. *)
          write_all t.fd line;
          No_response "disconnected before reading the response"
      | Some Faults.Plan.Short_write ->
          (* Dribble the line out in seeded 1–7 byte chunks; the
             response must be byte-identical to a clean send. *)
          let len = String.length line in
          let rec dribble off i =
            if off < len then begin
              let n = min (Faults.Injector.short_write_chunk plan ~site i) (len - off) in
              write_all t.fd (String.sub line off n);
              dribble (off + n) (i + 1)
            end
          in
          dribble 0 0;
          (match read_response t with
          | Ok json -> Response json
          | Error msg -> No_response msg))
