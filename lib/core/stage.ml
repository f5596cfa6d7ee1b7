type 'd shape = { render : 'd -> string list; parse : string list -> 'd option }

let one = { render = (fun d -> [ d ]); parse = (function [ d ] -> Some d | _ -> None) }

let pair =
  { render = (fun (a, b) -> [ a; b ]); parse = (function [ a; b ] -> Some (a, b) | _ -> None) }

let none = { render = (fun () -> []); parse = (function [] -> Some () | _ -> None) }

type ('a, 'b, 'd) t = {
  name : string;
  run : Trace_span.ctx -> 'a -> ('b, Result.stage_error) result;
  encode : ('b, Result.stage_error) result -> string;
  decode : string -> ('b, Result.stage_error) result;
  digest : 'b -> 'd;
  shape : 'd shape;
}

let cache_key stage ~fingerprint ~inputs =
  Artifact_store.key ~stage:stage.name ~fingerprint ~inputs

(* A store entry is one line of output digests (space-separated hex,
   empty for a failure or a stage nobody keys on) and then the encoded
   artifact; the store's seal covers both.  The digest is computed once,
   on the miss that writes the entry, so a replay hands downstream keys
   over without re-deriving them from the decoded value. *)
let entry stage r =
  let line = match r with Ok (_, d) -> String.concat " " (stage.shape.render d) | Error _ -> "" in
  line ^ "\n" ^ stage.encode (Stdlib.Result.map fst r)

let is_hex_digest s =
  String.length s = 32 && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

(* [None] for anything but a well-formed entry: a missing or malformed
   digest line is a miss exactly like an undecodable payload, and the
   recompute's rewrite heals it. *)
let parse_entry stage contents =
  match String.index_opt contents '\n' with
  | None -> None
  | Some i -> (
      let digests =
        match String.sub contents 0 i with "" -> [] | line -> String.split_on_char ' ' line
      in
      if not (List.for_all is_hex_digest digests) then None
      else
        match stage.decode (String.sub contents (i + 1) (String.length contents - i - 1)) with
        | Error e -> if digests = [] then Some (Error e) else None
        | Ok v -> Option.map (fun d -> Ok (v, d)) (stage.shape.parse digests)
        | exception ((Stack_overflow | Out_of_memory) as e) -> raise e
        | exception _ -> None)

let audit stage contents =
  match parse_entry stage contents with
  | None -> false
  | Some (Error _) -> true
  | Some (Ok (v, d)) -> d = stage.digest v

let guard stage ctx f input =
  match f ctx input with
  | r -> r
  | exception ((Stack_overflow | Out_of_memory) as e) -> raise e
  | exception e ->
      Error
        {
          Result.stage = stage;
          variant = None;
          reason = Result.Stage_exception (Printexc.to_string e);
        }

(* Solver-effort counters are process-global; a stage's share is the
   delta across its own run.  Under the parallel runner concurrent
   stages bleed into each other's deltas — the tags are a profiling
   aid, not an accounting invariant, so that imprecision is fine. *)
let effort_counters () =
  let s = Asp.Solver.stats () in
  let m = Asp.Memo.totals () in
  let certified, fallback = Gmatch.Incremental.stats () in
  [
    ("asp.decisions", s.Asp.Solver.decisions);
    ("asp.propagations", s.Asp.Solver.propagations);
    ("memo.hits", m.Asp.Memo.hits);
    ("memo.misses", m.Asp.Memo.misses);
    ("incremental.certified", certified);
    ("incremental.fallback", fallback);
  ]

let tag_effort ctx before =
  List.iter2
    (fun (name, b) (_, a) ->
      if a > b then Trace_span.add_tag ctx name (string_of_int (a - b)))
    before (effort_counters ())

(* The native cascade's decisions made during a stage surface as
   [planner.N] span tags reading [<task>=<path>], so a trace export
   says which bypass or solver answered each instance.  Same
   per-domain caveat as the effort deltas: decisions taken on pool
   worker domains drain with that domain's next stage. *)
let tag_planner ctx =
  List.iteri
    (fun i d -> Trace_span.add_tag ctx (Printf.sprintf "planner.%d" i) d)
    (Gmatch.Planner.drain_decisions ())

(* The deadline is checked post hoc on the monotonic clock: the stage
   runs to completion and the overrun then replaces its result.  No
   cancellation means no torn state, and the failure carries only the
   configured budget string — the measured duration varies run to run
   and must not leak into deterministic output.  Deadline failures are
   timing-dependent, so they are never written to the store (a warm
   machine should not inherit a slow machine's verdict). *)
let check_deadline stage ctx ~deadline_s ~start r =
  match deadline_s with
  | Some budget when Trace_span.now_s () -. start > budget ->
      Trace_span.add_tag ctx "deadline" "exceeded";
      Error
        {
          Result.stage;
          variant = None;
          reason = Result.Deadline_exceeded (Printf.sprintf "%gs" budget);
        }
  | _ -> r

(* Run the stage under its deadline, then digest a successful output in
   a child span.  The digest is key-building work for the downstream
   stages, not the stage's own, so it stays outside the budget. *)
let compute stage ctx ~deadline_s input =
  let start = Trace_span.now_s () in
  let before = effort_counters () in
  let r = guard stage.name ctx stage.run input in
  tag_effort ctx before;
  tag_planner ctx;
  match check_deadline stage.name ctx ~deadline_s ~start r with
  | Error e -> Error e
  | Ok v -> Ok (v, Trace_span.with_span ctx "digest" (fun _ -> stage.digest v))

let execute ?store ?deadline_s ~ctx ~fingerprint ~inputs stage input =
  Trace_span.with_span ctx stage.name (fun ctx ->
      match store with
      | None ->
          Trace_span.add_tag ctx "cache" "off";
          compute stage ctx ~deadline_s input
      | Some s -> (
          let key = cache_key stage ~fingerprint ~inputs in
          let cached = Option.bind (Artifact_store.read s ~stage:stage.name ~key) (parse_entry stage) in
          Artifact_store.record s ~stage:stage.name ~key ~hit:(Option.is_some cached);
          match cached with
          | Some r ->
              Trace_span.add_tag ctx "cache" "hit";
              r
          | None -> (
              Trace_span.add_tag ctx "cache" "miss";
              match compute stage ctx ~deadline_s input with
              | Error { Result.reason = Result.Deadline_exceeded _; _ } as overrun -> overrun
              | r ->
                  Artifact_store.write s ~stage:stage.name ~key (entry stage r);
                  r)))
