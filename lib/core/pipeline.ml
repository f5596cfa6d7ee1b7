module J = Minijson.Json
module Program = Oskernel.Program

type recorder =
  Config.t -> Program.t -> Recording.recorded list * Recording.recorded list

type outcome = {
  status : Result.status;
  bg_general : Pgraph.Graph.t option;
  fg_general : Pgraph.Graph.t option;
  degraded : string list;
}

(* ------------------------------------------------------------------ *)
(* Program digest                                                      *)

let program_text (p : Program.t) =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Format.fprintf fmt "name=%s@.syscall=%s@." p.Program.name p.Program.syscall;
  List.iter
    (fun (f : Program.staged_file) ->
      Format.fprintf fmt "staged=%s mode=%o uid=%d gid=%d kind=%s@." f.Program.sf_path
        f.Program.sf_mode f.Program.sf_uid f.Program.sf_gid
        (match f.Program.sf_kind with `File -> "file" | `Fifo -> "fifo"))
    p.Program.staging;
  (match p.Program.cred with
  | None -> ()
  | Some c -> Format.fprintf fmt "cred=%a@." Oskernel.Cred.pp c);
  List.iter (fun s -> Format.fprintf fmt "setup %a@." Oskernel.Syscall.pp s) p.Program.setup;
  List.iter (fun s -> Format.fprintf fmt "target %a@." Oskernel.Syscall.pp s) p.Program.target;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let program_digest p = Artifact_store.digest (program_text p)

(* ------------------------------------------------------------------ *)
(* Artifact encodings                                                  *)

exception Decode of string

let decode_fail fmt = Printf.ksprintf (fun m -> raise (Decode m)) fmt

let int_j n = J.Number (float_of_int n)

let reason_to_json = function
  | Result.Malformed_output m -> ("malformed_output", Some m)
  | Result.No_trials -> ("no_trials", None)
  | Result.No_consistent_pair -> ("no_consistent_pair", None)
  | Result.Alignment_failed m -> ("alignment_failed", Some m)
  | Result.Background_not_embeddable -> ("not_embeddable", None)
  | Result.Stage_exception m -> ("exception", Some m)
  | Result.Deadline_exceeded b -> ("deadline", Some b)

let reason_of_json kind msg =
  match (kind, msg) with
  | "malformed_output", Some m -> Result.Malformed_output m
  | "no_trials", None -> Result.No_trials
  | "no_consistent_pair", None -> Result.No_consistent_pair
  | "alignment_failed", Some m -> Result.Alignment_failed m
  | "not_embeddable", None -> Result.Background_not_embeddable
  | "exception", Some m -> Result.Stage_exception m
  | "deadline", Some b -> Result.Deadline_exceeded b
  | k, _ -> decode_fail "unknown failure reason %S" k

let error_to_json (e : Result.stage_error) =
  let kind, msg = reason_to_json e.Result.reason in
  J.Object
    [
      ("stage", J.String e.Result.stage);
      ("variant", match e.Result.variant with None -> J.Null | Some v -> J.String v);
      ("reason", J.String kind);
      ("msg", match msg with None -> J.Null | Some m -> J.String m);
    ]

let error_of_json j =
  {
    Result.stage = J.to_str (J.member "stage" j);
    variant =
      (match J.member "variant" j with J.Null -> None | v -> Some (J.to_str v));
    reason =
      reason_of_json
        (J.to_str (J.member "reason" j))
        (match J.member "msg" j with J.Null -> None | m -> Some (J.to_str m));
  }

(* Every artifact is a one-member object: {"ok": <value>} or
   {"err": <stage_error>} — failures cache like successes, so a
   deterministically failing stage replays warm too. *)
let wrap value_to_json = function
  | Ok v -> J.to_string (J.Object [ ("ok", value_to_json v) ])
  | Error e -> J.to_string (J.Object [ ("err", error_to_json e) ])

let unwrap value_of_json s =
  match J.of_string s with
  | exception J.Parse_error m -> raise (Decode m)
  | j ->
      if J.mem "ok" j then Ok (value_of_json (J.member "ok" j))
      else if J.mem "err" j then Error (error_of_json (J.member "err" j))
      else decode_fail "artifact is neither ok nor err"

let output_to_json = function
  | Recorders.Recorder.Dot_text s -> J.Object [ ("dot", J.String s) ]
  | Recorders.Recorder.Store_dump s -> J.Object [ ("store", J.String s) ]
  | Recorders.Recorder.Prov_json s -> J.Object [ ("prov", J.String s) ]

let output_of_json j =
  match J.to_assoc j with
  | [ ("dot", J.String s) ] -> Recorders.Recorder.Dot_text s
  | [ ("store", J.String s) ] -> Recorders.Recorder.Store_dump s
  | [ ("prov", J.String s) ] -> Recorders.Recorder.Prov_json s
  | _ -> decode_fail "bad recorder output"

(* Each record carries its own variant tag: the bg/fg grouping reflects
   which list it came from, but injected recorders may (and tests do)
   put, say, Background-tagged records in the foreground list. *)
let recorded_to_json (r : Recording.recorded) =
  J.Object
    [
      ( "variant",
        J.String
          (match r.Recording.variant with Program.Background -> "bg" | Program.Foreground -> "fg")
      );
      ("trial", int_j r.Recording.trial);
      ("run_id", int_j r.Recording.run_id);
      ("output", output_to_json r.Recording.output);
    ]

let recorded_of_json j =
  {
    Recording.variant =
      (match J.to_str (J.member "variant" j) with
      | "bg" -> Program.Background
      | "fg" -> Program.Foreground
      | v -> decode_fail "unknown variant %S" v);
    trial = J.to_int (J.member "trial" j);
    run_id = J.to_int (J.member "run_id" j);
    output = output_of_json (J.member "output" j);
  }

let recordings_to_json (bg, fg) =
  J.Object
    [
      ("bg", J.Array (List.map recorded_to_json bg));
      ("fg", J.Array (List.map recorded_to_json fg));
    ]

let recordings_of_json j =
  ( List.map recorded_of_json (J.to_list (J.member "bg" j)),
    List.map recorded_of_json (J.to_list (J.member "fg" j)) )

let graph_to_json g = J.String (Datalog.Encode.graph_to_string ~gid:"d" g)

let graph_of_json j =
  match Datalog.Encode.graph_of_string ~gid:"d" (J.to_str j) with
  | g -> g
  | exception Datalog.Encode.Decode_error m -> raise (Decode m)

let graphs_to_json (bg, fg) =
  J.Object
    [ ("bg", J.Array (List.map graph_to_json bg)); ("fg", J.Array (List.map graph_to_json fg)) ]

let graphs_of_json j =
  ( List.map graph_of_json (J.to_list (J.member "bg" j)),
    List.map graph_of_json (J.to_list (J.member "fg" j)) )

let gen_outcome_to_json (o : Generalize.outcome) =
  J.Object
    [
      ("general", graph_to_json o.Generalize.general);
      ("class_size", int_j o.Generalize.class_size);
      ("classes", int_j o.Generalize.classes);
      ("discarded", int_j o.Generalize.discarded);
    ]

let gen_outcome_of_json j =
  {
    Generalize.general = graph_of_json (J.member "general" j);
    class_size = J.to_int (J.member "class_size" j);
    classes = J.to_int (J.member "classes" j);
    discarded = J.to_int (J.member "discarded" j);
  }

(* Stages whose compute may gracefully degrade (ASP step-limit →
   VF2 fallback) carry their degradation notes inside the artifact:
   a warm replay of a degraded stage reports the same reduced
   guarantees as the cold run that produced it. *)
let noted_to_json value_to_json (v, notes) =
  J.Object
    [
      ("value", value_to_json v);
      ("degraded", J.Array (List.map (fun n -> J.String n) notes));
    ]

let noted_of_json value_of_json j =
  ( value_of_json (J.member "value" j),
    List.map J.to_str (J.to_list (J.member "degraded" j)) )

let with_notes f =
  match Gmatch.Engine.collect_notes f with
  | Ok v, notes -> Ok (v, notes)
  | Error e, _ -> Error e

type compared = Similar | Target of Compare.outcome

let compared_to_json = function
  | Similar -> J.Object [ ("similar", J.Bool true) ]
  | Target o ->
      J.Object
        [
          ("target", graph_to_json o.Compare.target);
          ("cost", int_j o.Compare.matching_cost);
        ]

let compared_of_json j =
  if J.mem "similar" j then Similar
  else
    Target
      {
        Compare.target = graph_of_json (J.member "target" j);
        matching_cost = J.to_int (J.member "cost" j);
      }

(* ------------------------------------------------------------------ *)
(* Output digests                                                      *)

(* What each stage's downstream consumers key on.  [Stage.execute]
   computes these once, on the miss that writes an artifact, and a
   replay reads them back from the entry. *)

let json_digest to_json v = Artifact_store.digest (J.to_string (to_json v))

let graphs_digest ~opts graphs =
  Artifact_store.digest
    (String.concat "\x00" (List.map (Artifact_store.canonical_graph_digest ~opts) graphs))

(* ------------------------------------------------------------------ *)
(* The four stages                                                     *)

let recording_stage (record : recorder) : (Config.t * Program.t, _, string) Stage.t =
  {
    Stage.name = "recording";
    run = (fun _ctx (config, prog) -> Ok (record config prog));
    encode = wrap recordings_to_json;
    decode = unwrap recordings_of_json;
    digest = json_digest recordings_to_json;
    shape = Stage.one;
  }

(* One graph-list digest per variant, so an edit that changes only the
   foreground trials leaves the background generalization warm. *)
let transformation_stage config :
    (Recording.recorded list * Recording.recorded list, _, string * string) Stage.t =
  let opts = config.Config.opts in
  {
    Stage.name = "transformation";
    run =
      (fun _ctx (bg_recs, fg_recs) ->
        match (Transform.batch bg_recs, Transform.batch fg_recs) with
        | graphs -> Ok graphs
        | exception Transform.Transform_error m ->
            Error
              { Result.stage = "transformation"; variant = None; reason = Result.Malformed_output m });
    encode = wrap graphs_to_json;
    decode = unwrap graphs_of_json;
    digest = (fun (bg, fg) -> (graphs_digest ~opts bg, graphs_digest ~opts fg));
    shape = Stage.pair;
  }

let generalization_failure variant f =
  let reason =
    match f with
    | Generalize.No_trials -> Result.No_trials
    | Generalize.No_consistent_pair -> Result.No_consistent_pair
    | Generalize.Alignment_failed m -> Result.Alignment_failed m
  in
  { Result.stage = "generalization"; variant = Some variant; reason }

(* The generalized graph's canonical digest keys the comparison; taking
   it here, on the pair job that computed the graph, also primes the
   form cache for the comparison stage. *)
let generalization_stage config ~variant :
    (Pgraph.Graph.t list, Generalize.outcome * string list, string) Stage.t =
  {
    Stage.name = "generalization";
    run =
      (fun _ctx graphs ->
        with_notes (fun () ->
            match
              Generalize.generalize ~opts:config.Config.opts ~backend:config.Config.backend
                ~filter:config.Config.filter_graphs ~pair_choice:config.Config.pair_choice graphs
            with
            | Ok o -> Ok o
            | Error f -> Error (generalization_failure variant f)));
    encode = wrap (noted_to_json gen_outcome_to_json);
    decode = unwrap (noted_of_json gen_outcome_of_json);
    digest =
      (fun (o, _) ->
        Artifact_store.canonical_graph_digest ~opts:config.Config.opts o.Generalize.general);
    shape = Stage.one;
  }

let comparison_stage config :
    (Pgraph.Graph.t * Pgraph.Graph.t, compared * string list, unit) Stage.t =
  {
    Stage.name = "comparison";
    run =
      (fun _ctx (bg, fg) ->
        with_notes (fun () ->
            let opts = config.Config.opts and backend = config.Config.backend in
            if Gmatch.Engine.similar ~opts ~backend bg fg then Ok Similar
            else
              match Compare.compare_with opts ~backend ~bg ~fg with
              | Ok o -> Ok (Target o)
              | Error Compare.Background_not_embeddable ->
                  Error
                    {
                      Result.stage = "comparison";
                      variant = None;
                      reason = Result.Background_not_embeddable;
                    }));
    encode = wrap (noted_to_json compared_to_json);
    decode = unwrap (noted_of_json compared_of_json);
    digest = ignore;
    shape = Stage.none;
  }

let audit_entry config ~stage contents =
  match stage with
  | "recording" -> Stage.audit (recording_stage Recording.record_all) contents
  | "transformation" -> Stage.audit (transformation_stage config) contents
  | "generalization" -> Stage.audit (generalization_stage config ~variant:"") contents
  | "comparison" -> Stage.audit (comparison_stage config) contents
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Pair-parallelism                                                    *)

(* The suite runner installs its worker pool here; the two
   generalization variants then run as a help-queue pair on it, each
   job also taking its generalized graph's digest on a miss.  Results
   come back in fixed (a, b) order and the branch spans are grafted
   a-then-b, so the output is byte-identical to a sequential run at
   any job count.  Degradation notes stay correct too: each side's
   [with_notes] drains wholly within its own job on one domain. *)
let pair_pool : Pool.t option Atomic.t = Atomic.make None
let set_pair_pool p = Atomic.set pair_pool p

let both ~ctx fa fb =
  match Atomic.get pair_pool with
  | None ->
      let a = fa ctx in
      let b = fb ctx in
      (a, b)
  | Some pool ->
      let ca = Trace_span.branch () and cb = Trace_span.branch () in
      let r = Pool.run_pair pool (fun () -> fa ca) (fun () -> fb cb) in
      Trace_span.graft ca ~into:ctx;
      Trace_span.graft cb ~into:ctx;
      r

(* Degradation notes accumulate in stage order, each prefixed with
   where it happened; duplicates (e.g. the same fallback in both
   variants' artifacts) collapse to the first occurrence. *)
let merge_notes chunks =
  List.fold_left
    (fun acc (where, notes) ->
      List.fold_left
        (fun acc n ->
          let entry = where ^ ": " ^ n in
          if List.mem entry acc then acc else acc @ [ entry ])
        acc notes)
    [] chunks

let run_once ~record ~ctx session prog =
  let config = Session.config session in
  let store = config.Config.store in
  let deadline_s = config.Config.deadline_s in
  (* Recordings from an injected recorder must not poison the shared
     cache (nor be served from it): only the real recorder is keyed. *)
  let rec_store = if record == Recording.record_all then store else None in
  let d_prog = program_digest prog in
  let fail ?(bg = None) ?(fg = None) ?(degraded = []) e =
    { status = Result.Failed e; bg_general = bg; fg_general = fg; degraded }
  in
  match
    Stage.execute ?store:rec_store ?deadline_s ~ctx
      ~fingerprint:(Config.recording_fingerprint config) ~inputs:[ d_prog ]
      (recording_stage record) (config, prog)
  with
  | Error e -> fail e
  | Ok (recs, d_recs) -> (
      match
        Stage.execute ?store ?deadline_s ~ctx
          ~fingerprint:(Config.transformation_fingerprint config) ~inputs:[ d_recs ]
          (transformation_stage config) recs
      with
      | Error e -> fail e
      | Ok ((bg_graphs, fg_graphs), (d_bg_graphs, d_fg_graphs)) -> (
          let gen_fp = Config.generalization_fingerprint config in
          let generalize variant graphs d_graphs gctx =
            Stage.execute ?store ?deadline_s ~ctx:gctx ~fingerprint:gen_fp
              ~inputs:[ variant; d_graphs ]
              (generalization_stage config ~variant)
              graphs
          in
          (* Both variants always run (matching the pre-staged pipeline,
             and keeping the foreground artifact warm even when the
             background fails first) — in parallel when a pair pool is
             installed. *)
          let bg_out, fg_out =
            both ~ctx
              (generalize "background" bg_graphs d_bg_graphs)
              (generalize "foreground" fg_graphs d_fg_graphs)
          in
          let gen_notes out_opt variant =
            match out_opt with Ok ((_, notes), _) -> [ (variant, notes) ] | Error _ -> []
          in
          let notes_so_far =
            merge_notes (gen_notes bg_out "background" @ gen_notes fg_out "foreground")
          in
          match (bg_out, fg_out) with
          | Error e, _ | _, Error e -> fail ~degraded:notes_so_far e
          | Ok ((bg, bg_notes), d_bg), Ok ((fg, fg_notes), d_fg) -> (
              let bg_g = bg.Generalize.general and fg_g = fg.Generalize.general in
              let bg_general = Some bg_g and fg_general = Some fg_g in
              let degraded_with cmp_notes =
                merge_notes
                  [
                    ("background", bg_notes);
                    ("foreground", fg_notes);
                    ("comparison", cmp_notes);
                  ]
              in
              match
                Stage.execute ?store ?deadline_s ~ctx
                  ~fingerprint:(Config.comparison_fingerprint config)
                  ~inputs:[ d_bg; d_fg ] (comparison_stage config) (bg_g, fg_g)
              with
              | Error e -> fail ~bg:bg_general ~fg:fg_general ~degraded:(degraded_with []) e
              | Ok ((Similar, cmp_notes), ()) ->
                  {
                    status = Result.Empty;
                    bg_general;
                    fg_general;
                    degraded = degraded_with cmp_notes;
                  }
              | Ok ((Target o, cmp_notes), ()) ->
                  let target = o.Compare.target in
                  let status =
                    if Pgraph.Graph.size target = 0 then Result.Empty
                    else Result.Target target
                  in
                  { status; bg_general; fg_general; degraded = degraded_with cmp_notes })))
