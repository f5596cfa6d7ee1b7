type ('a, 'b) t = {
  name : string;
  run : Trace_span.ctx -> 'a -> ('b, Result.stage_error) result;
  encode : ('b, Result.stage_error) result -> string;
  decode : string -> ('b, Result.stage_error) result;
}

let cache_key stage ~fingerprint ~inputs =
  Artifact_store.key ~stage:stage.name ~fingerprint ~inputs

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

(* Auto's decisions made during a stage surface as [planner.N] span
   tags reading [<task>=<path>], so a trace export says which bypass
   or solver answered each instance.  Same per-domain caveat as the
   effort deltas: decisions taken on pool worker domains drain with
   that domain's next stage. *)
let tag_planner ctx =
  List.iteri
    (fun i d -> Trace_span.add_tag ctx (Printf.sprintf "planner.%d" i) d)
    (Gmatch.Planner.drain_decisions ())

let compute stage ctx input =
  let before = effort_counters () in
  let r = guard stage.name ctx stage.run input in
  tag_effort ctx before;
  tag_planner ctx;
  r

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

let execute ?store ?deadline_s ~ctx ~fingerprint ~inputs stage input =
  Trace_span.with_span ctx stage.name (fun ctx ->
      match store with
      | None ->
          Trace_span.add_tag ctx "cache" "off";
          let start = Trace_span.now_s () in
          check_deadline stage.name ctx ~deadline_s ~start (compute stage ctx input)
      | Some s -> (
          let key = cache_key stage ~fingerprint ~inputs in
          let cached =
            match Artifact_store.read s ~stage:stage.name ~key with
            | None -> None
            | Some contents -> (
                (* A corrupt or stale-format entry decodes to a miss and
                   is overwritten below. *)
                match stage.decode contents with
                | r -> Some r
                | exception ((Stack_overflow | Out_of_memory) as e) -> raise e
                | exception _ -> None)
          in
          Artifact_store.record s ~stage:stage.name ~key
            ~hit:(match cached with Some _ -> true | None -> false);
          match cached with
          | Some r ->
              Trace_span.add_tag ctx "cache" "hit";
              r
          | None -> (
              Trace_span.add_tag ctx "cache" "miss";
              let start = Trace_span.now_s () in
              let r = compute stage ctx input in
              match check_deadline stage.name ctx ~deadline_s ~start r with
              | Error { Result.reason = Result.Deadline_exceeded _; _ } as overrun -> overrun
              | r ->
                  Artifact_store.write s ~stage:stage.name ~key (stage.encode r);
                  r)))
