type note = Nr | Sc | Lp | Dv

let note_to_string = function Nr -> "NR" | Sc -> "SC" | Lp -> "LP" | Dv -> "DV"

type failure_reason =
  | Malformed_output of string
  | No_trials
  | No_consistent_pair
  | Alignment_failed of string
  | Background_not_embeddable
  | Stage_exception of string
  | Deadline_exceeded of string

type stage_error = {
  stage : string;
  variant : string option;
  reason : failure_reason;
}

let failure_reason_to_string = function
  | Malformed_output m -> m
  | No_trials -> "no trial graphs recorded"
  | No_consistent_pair -> "no two trial runs produced similar graphs"
  | Alignment_failed m -> "alignment failed: " ^ m
  | Background_not_embeddable -> "background graph does not embed into the foreground graph"
  | Stage_exception m -> "exception: " ^ m
  | Deadline_exceeded budget -> "deadline exceeded: stage overran its " ^ budget ^ " budget"

let stage_error_to_string e =
  let prefix =
    match e.variant with Some v -> v ^ " " ^ e.stage | None -> e.stage
  in
  prefix ^ ": " ^ failure_reason_to_string e.reason

type status =
  | Target of Pgraph.Graph.t
  | Empty
  | Failed of stage_error

type stage_times = {
  recording_s : float;
  transformation_s : float;
  generalization_s : float;
  comparison_s : float;
}

let total_time t = t.recording_s +. t.transformation_s +. t.generalization_s +. t.comparison_s

type t = {
  benchmark : string;
  syscall : string;
  tool : Recorders.Recorder.tool;
  status : status;
  span : Trace_span.t;
  bg_general : Pgraph.Graph.t option;
  fg_general : Pgraph.Graph.t option;
  trials : int;
  degraded : string list;
}

let attempts r = List.length (Trace_span.find_all r.span "attempt")

let quarantined r = match r.status with Failed _ -> true | Target _ | Empty -> false

let times r =
  let sum name = Trace_span.sum_duration_s r.span name in
  {
    recording_s = sum "recording";
    transformation_s = sum "transformation";
    generalization_s = sum "generalization";
    comparison_s = sum "comparison";
  }

let status_word r =
  match r.status with Target _ -> "ok" | Empty -> "empty" | Failed _ -> "failed"

(* A target graph is "disconnected" when one of its connected components
   contains no dummy node: dummy nodes are the attachment points to the
   background graph, so a dummy-free component floats free of the rest
   of the provenance — the vfork child (DV) and the setres* bug both
   manifest this way. *)
let has_disconnected_node (g : Pgraph.Graph.t) =
  let roots = Pgraph.Stats.component_roots g in
  let anchored = Array.make (Array.length roots) false in
  Array.iteri (fun i n -> if Pgraph.Graph.is_dummy n then anchored.(roots.(i)) <- true) g.Pgraph.Graph.nodes;
  Array.exists (fun r -> not anchored.(r)) roots

let summary r =
  let base =
    match r.status with
    | Target g -> Printf.sprintf "ok (%s)" (Pgraph.Stats.shape_line (Pgraph.Stats.of_graph g))
    | Empty -> "empty"
    | Failed e -> Printf.sprintf "failed (%s)" (stage_error_to_string e)
  in
  if r.degraded = [] then base
  else Printf.sprintf "%s [degraded: %s]" base (String.concat "; " r.degraded)
