open Pgraph
module Program = Oskernel.Program
module Syscall = Oskernel.Syscall
module Recorder = Recorders.Recorder

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let config_for ?(backend = Gmatch.Engine.Direct) tool =
  { (Provmark.Config.default tool) with Provmark.Config.backend }

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let open_bench = Provmark.Bench_registry.find_exn "open"

let test_recording_counts () =
  let config = config_for Recorder.Spade in
  let bg, fg = Provmark.Recording.record_all config open_bench in
  check_int "bg trials" config.Provmark.Config.trials (List.length bg);
  check_int "fg trials" config.Provmark.Config.trials (List.length fg)

let test_recording_deterministic () =
  let config = config_for Recorder.Camflow in
  let out1, _ = Provmark.Recording.record_all config open_bench in
  let out2, _ = Provmark.Recording.record_all config open_bench in
  check_bool "same seed, same outputs" true
    (List.for_all2
       (fun (a : Provmark.Recording.recorded) (b : Provmark.Recording.recorded) ->
         a.Provmark.Recording.output = b.Provmark.Recording.output)
       out1 out2)

let test_recording_output_format_per_tool () =
  List.iter
    (fun (tool, matches) ->
      let config = config_for tool in
      let bg, _ = Provmark.Recording.record_all config open_bench in
      match bg with
      | { Provmark.Recording.output; _ } :: _ -> check_bool "format" true (matches output)
      | [] -> Alcotest.fail "no recordings")
    [
      (Recorder.Spade, (function Recorder.Dot_text _ -> true | _ -> false));
      (Recorder.Opus, (function Recorder.Store_dump _ -> true | _ -> false));
      (Recorder.Camflow, (function Recorder.Prov_json _ -> true | _ -> false));
    ]

(* ------------------------------------------------------------------ *)
(* Transformation                                                      *)
(* ------------------------------------------------------------------ *)

let test_transform_each_format () =
  List.iter
    (fun tool ->
      let config = config_for tool in
      let bg, _ = Provmark.Recording.record_all config open_bench in
      let graphs = Provmark.Transform.batch bg in
      check_bool "all graphs non-empty" true (List.for_all (fun g -> Graph.size g > 0) graphs))
    Recorder.all_tools

let test_transform_rejects_garbage () =
  List.iter
    (fun output ->
      match Provmark.Transform.to_pgraph output with
      | exception Provmark.Transform.Transform_error _ -> ()
      | _ -> Alcotest.fail "garbage accepted")
    [
      Recorder.Dot_text "not dot at all";
      Recorder.Store_dump "Z\tgarbage";
      Recorder.Prov_json "{\"mystery\": 1}";
    ]

let test_transform_datalog_roundtrip () =
  let config = config_for Recorder.Spade in
  let bg, _ = Provmark.Recording.record_all config open_bench in
  let g = List.hd (Provmark.Transform.batch bg) in
  let text = Provmark.Transform.to_datalog ~gid:"x" g in
  check_bool "datalog roundtrip" true
    (Graph.equal g (Datalog.Encode.graph_of_string ~gid:"x" text))

(* ------------------------------------------------------------------ *)
(* Generalization                                                      *)
(* ------------------------------------------------------------------ *)

let props = Props.of_list

let graph_with_transient t =
  let g =
    Graph.add_node Graph.empty ~id:"a" ~label:"X" ~props:(props [ ("stable", "s"); ("time", t) ])
  in
  Graph.add_node g ~id:"b" ~label:"Y" ~props:(props [ ("path", "/x") ])

let generalize ?(filter = false) ?(pair_choice = Provmark.Config.Smallest) graphs =
  Provmark.Generalize.generalize ~backend:Gmatch.Engine.Direct ~filter ~pair_choice graphs

let test_generalize_strips_transients () =
  match generalize [ graph_with_transient "1"; graph_with_transient "2" ] with
  | Ok o ->
      let a = Option.get (Graph.find_node o.Provmark.Generalize.general "a") in
      check_bool "transient dropped" false (Props.mem "time" a.Graph.node_props);
      check_bool "stable kept" true (Props.mem "stable" a.Graph.node_props)
  | Error _ -> Alcotest.fail "expected generalization"

let test_generalize_no_trials () =
  check_bool "no trials" true (generalize [] = Error Provmark.Generalize.No_trials)

let test_generalize_all_singletons () =
  let g1 = graph_with_transient "1" in
  let g2 = Graph.add_node g1 ~id:"c" ~label:"Z" ~props:Props.empty in
  check_bool "no pair" true (generalize [ g1; g2 ] = Error Provmark.Generalize.No_consistent_pair)

let test_generalize_discards_flaky_singleton () =
  let good = graph_with_transient "1" in
  let good2 = graph_with_transient "2" in
  let flaky = Graph.remove_node good "b" in
  match generalize [ good; flaky; good2 ] with
  | Ok o ->
      check_int "pair from the consistent class" 2 o.Provmark.Generalize.class_size;
      check_int "two classes seen" 2 o.Provmark.Generalize.classes;
      check_int "flaky discarded" 1 o.Provmark.Generalize.discarded
  | Error _ -> Alcotest.fail "expected generalization"

let test_generalize_filter_drops_nonmodal () =
  let good = [ graph_with_transient "1"; graph_with_transient "2"; graph_with_transient "3" ] in
  let flaky = Graph.remove_node (graph_with_transient "4") "b" in
  match generalize ~filter:true (flaky :: good) with
  | Ok o -> check_int "modal size kept" 2 (Graph.node_count o.Provmark.Generalize.general)
  | Error _ -> Alcotest.fail "expected generalization"

let test_generalize_pair_choice () =
  (* Two eligible classes of different sizes: Smallest picks the small
     one, Largest the big one (Section 3.4: the choice is arbitrary, but
     must be consistent). *)
  let small t = graph_with_transient t in
  let big t = Graph.add_node (graph_with_transient t) ~id:"c" ~label:"Z" ~props:Props.empty in
  let graphs = [ small "1"; small "2"; big "3"; big "4" ] in
  (match generalize ~pair_choice:Provmark.Config.Smallest graphs with
  | Ok o -> check_int "smallest class" 2 (Graph.node_count o.Provmark.Generalize.general)
  | Error _ -> Alcotest.fail "smallest failed");
  match generalize ~pair_choice:Provmark.Config.Largest graphs with
  | Ok o -> check_int "largest class" 3 (Graph.node_count o.Provmark.Generalize.general)
  | Error _ -> Alcotest.fail "largest failed"

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

let test_compare_subtracts () =
  let bg = graph_with_transient "1" in
  let fg = Graph.add_node bg ~id:"c" ~label:"Z" ~props:Props.empty in
  let fg = Graph.add_edge fg ~id:"e" ~src:"a" ~tgt:"c" ~label:"rel" ~props:Props.empty in
  match Provmark.Compare.compare ~backend:Gmatch.Engine.Direct ~bg ~fg with
  | Ok o ->
      let t = o.Provmark.Compare.target in
      check_int "target keeps new node + dummy" 2 (Graph.node_count t);
      check_int "target keeps new edge" 1 (Graph.edge_count t);
      check_bool "attachment point is a dummy" true
        (Graph.is_dummy (Option.get (Graph.find_node t "a")))
  | Error _ -> Alcotest.fail "expected comparison"

let test_compare_not_embeddable () =
  let bg = Graph.add_node Graph.empty ~id:"a" ~label:"OnlyInBg" ~props:Props.empty in
  let fg = Graph.add_node Graph.empty ~id:"b" ~label:"SomethingElse" ~props:Props.empty in
  check_bool "error" true
    (Provmark.Compare.compare ~backend:Gmatch.Engine.Direct ~bg ~fg
    = Error Provmark.Compare.Background_not_embeddable)

(* ------------------------------------------------------------------ *)
(* Full pipeline                                                       *)
(* ------------------------------------------------------------------ *)

let test_pipeline_open_each_tool () =
  List.iter
    (fun tool ->
      let r = Provmark.Runner.run (config_for tool) open_bench in
      match r.Provmark.Result.status with
      | Provmark.Result.Target g -> check_bool "nonempty" true (Graph.size g > 0)
      | _ -> Alcotest.failf "%s/open should be ok" (Recorder.tool_name tool))
    Recorder.all_tools

let test_pipeline_backends_agree () =
  (* The mini-ASP backend (paper Listings 3/4) and the direct matcher
     must classify benchmarks identically. *)
  List.iter
    (fun (tool, syscall) ->
      let direct = Provmark.Runner.run (config_for tool) (Provmark.Bench_registry.find_exn syscall) in
      let asp =
        Provmark.Runner.run
          (config_for ~backend:Gmatch.Engine.Asp tool)
          (Provmark.Bench_registry.find_exn syscall)
      in
      check_string
        (Printf.sprintf "%s/%s" (Recorder.tool_name tool) syscall)
        (Provmark.Result.status_word direct) (Provmark.Result.status_word asp);
      match (direct.Provmark.Result.status, asp.Provmark.Result.status) with
      | Provmark.Result.Target a, Provmark.Result.Target b ->
          check_bool "same target shape" true (Gmatch.Engine.similar a b)
      | _ -> ())
    [
      (Recorder.Spade, "open");
      (Recorder.Spade, "vfork");
      (Recorder.Camflow, "rename");
      (Recorder.Opus, "dup");
      (Recorder.Camflow, "exit");
    ]

let test_pipeline_stage_times_populated () =
  let r = Provmark.Runner.run (config_for Recorder.Opus) open_bench in
  let t = Provmark.Result.times r in
  check_bool "recording time" true (t.Provmark.Result.recording_s >= 0.);
  check_bool "opus transformation dominated by db startup" true
    (t.Provmark.Result.transformation_s > 0.001);
  check_bool "total is the sum" true
    (abs_float
       (Provmark.Result.total_time t
       -. (t.Provmark.Result.recording_s +. t.Provmark.Result.transformation_s
          +. t.Provmark.Result.generalization_s +. t.Provmark.Result.comparison_s))
    < 1e-9)

let test_pipeline_generalized_graphs_exposed () =
  let r = Provmark.Runner.run (config_for Recorder.Spade) open_bench in
  check_bool "bg general" true (Option.is_some r.Provmark.Result.bg_general);
  check_bool "fg general" true (Option.is_some r.Provmark.Result.fg_general);
  match (r.Provmark.Result.bg_general, r.Provmark.Result.fg_general) with
  | Some bg, Some fg -> check_bool "fg at least as large" true (Graph.size fg >= Graph.size bg)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Table 2 integration                                                 *)
(* ------------------------------------------------------------------ *)

let test_table2_full_agreement () =
  let matrix =
    List.map
      (fun tool ->
        (tool, List.map (Provmark.Runner.run (config_for tool)) Provmark.Bench_registry.all))
      Recorder.all_tools
  in
  let ok, total = Provmark.Report.agreement matrix in
  check_int "44 benchmarks x 3 tools" 132 total;
  check_int "all cells agree with the paper's Table 2" total ok

let test_registry_complete () =
  check_int "44 benchmarks" 44 (List.length Provmark.Bench_registry.all);
  List.iter
    (fun name -> ignore (Provmark.Bench_registry.find_exn name))
    Oskernel.Syscall.all_names;
  List.iter
    (fun tool ->
      List.iter
        (fun name -> ignore (Provmark.Bench_registry.expected tool name))
        Oskernel.Syscall.all_names)
    Recorder.all_tools

(* ------------------------------------------------------------------ *)
(* Use cases                                                           *)
(* ------------------------------------------------------------------ *)

let test_failed_rename_only_opus () =
  let status tool =
    (Provmark.Runner.run (config_for tool) Provmark.Bench_registry.failed_rename)
      .Provmark.Result.status
  in
  check_bool "spade empty" true (status Recorder.Spade = Provmark.Result.Empty);
  check_bool "camflow empty" true (status Recorder.Camflow = Provmark.Result.Empty);
  match status Recorder.Opus with
  | Provmark.Result.Target g ->
      (* The failed rename has the same structure as a successful one
         but carries ret=-1. *)
      check_bool "ret=-1 recorded" true
        (List.exists
           (fun (n : Graph.node) -> Props.find "ret" n.Graph.node_props = Some "-1")
           (Graph.nodes g))
  | _ -> Alcotest.fail "OPUS must record the failed rename"

let test_priv_esc_detected () =
  List.iter
    (fun (tool, expect_hit) ->
      let r = Provmark.Runner.run (config_for tool) Provmark.Bench_registry.privilege_escalation in
      match (r.Provmark.Result.status, expect_hit) with
      | Provmark.Result.Target _, true | Provmark.Result.Empty, false -> ()
      | s, _ ->
          Alcotest.failf "%s: unexpected %s" (Recorder.tool_name tool)
            (match s with
            | Provmark.Result.Target _ -> "target"
            | Provmark.Result.Empty -> "empty"
            | Provmark.Result.Failed e ->
                "failed: " ^ Provmark.Result.stage_error_to_string e))
    [ (Recorder.Spade, true); (Recorder.Camflow, true); (Recorder.Opus, true) ]

let test_scalability_targets_grow () =
  let sizes =
    List.map
      (fun n ->
        let r = Provmark.Runner.run (config_for Recorder.Spade) (Provmark.Scalability.program n) in
        match r.Provmark.Result.status with
        | Provmark.Result.Target g -> Graph.size g
        | _ -> Alcotest.failf "scale%d not ok" n)
      Provmark.Scalability.factors
  in
  match sizes with
  | [ s1; s2; s4; s8 ] ->
      check_bool "monotone growth" true (s1 < s2 && s2 < s4 && s4 < s8);
      (* Each repetition touches a distinct file, so target size grows
         affinely: a fixed dummy attachment plus a constant per factor. *)
      let per = s2 - s1 in
      check_int "scale4 linear" (s2 + (2 * per)) s4;
      check_int "scale8 linear" (s4 + (4 * per)) s8
  | _ -> Alcotest.fail "expected four scale factors"

let test_regression_store_roundtrip () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "provmark_test_store" in
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (if Sys.file_exists dir then Sys.readdir dir else [||]);
  let store = Provmark.Regression.open_store dir in
  let key = Provmark.Regression.key ~tool:Recorder.Spade ~benchmark:"open" in
  let g = graph_with_transient "1" in
  check_bool "new" true (Provmark.Regression.check store ~key g = Provmark.Regression.New);
  Provmark.Regression.save store ~key g;
  check_bool "unchanged" true
    (Provmark.Regression.check store ~key (graph_with_transient "other")
    = Provmark.Regression.Unchanged);
  let changed = Graph.add_node g ~id:"zz" ~label:"New" ~props:Props.empty in
  (match Provmark.Regression.check store ~key changed with
  | Provmark.Regression.Changed _ -> ()
  | _ -> Alcotest.fail "change not detected");
  Provmark.Regression.accept store ~key changed;
  check_bool "accepted" true
    (Provmark.Regression.check store ~key changed = Provmark.Regression.Unchanged);
  Alcotest.(check (list string)) "keys" [ "spade_open" ] (Provmark.Regression.keys store)

let test_report_csv_format () =
  let r = Provmark.Runner.run (config_for Recorder.Spade) open_bench in
  let csv = Provmark.Report.timing_csv [ r ] in
  check_bool "csv line shape" true
    (String.length csv > 0
    && String.sub csv 0 11 = "spade,open,"
    && List.length (String.split_on_char ',' (String.trim csv)) = 6)

(* ------------------------------------------------------------------ *)
(* Report rendering                                                    *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let ln = String.length needle and lh = String.length hay in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln > 0 && go 0

let report_result syscall status =
  {
    Provmark.Result.benchmark = "cmd" ^ syscall;
    syscall;
    tool = Recorder.Spade;
    status;
    span = Provmark.Trace_span.null;
    bg_general = None;
    fg_general = None;
    trials = 2;
    degraded = [];
  }

let tiny_matrix () =
  let g = Graph.add_node Graph.empty ~id:"x" ~label:"n" ~props:Props.empty in
  [
    ( Recorder.Spade,
      [
        report_result "open" (Provmark.Result.Target g);
        report_result "dup" Provmark.Result.Empty;
      ] );
  ]

let test_report_validation_matrix () =
  let text = Provmark.Report.validation_matrix (tiny_matrix ()) in
  check_bool "header" true (contains text "SPADE");
  check_bool "ok cell" true (contains text "ok");
  check_bool "dup row carries the note" true (contains text "empty (SC)");
  check_bool "legend" true (contains text "disconnected vforked process");
  (* Rows for benchmarks we did not run show a dash. *)
  check_bool "missing rows dashed" true (contains text "close       -")

let test_report_structure_table () =
  let text = Provmark.Report.structure_table (tiny_matrix ()) ~syscalls:[ "open"; "dup" ] in
  check_bool "shape rendered" true (contains text "1n/0e");
  check_bool "empty rendered" true (contains text "empty")

let test_report_timing_lines () =
  let text = Provmark.Report.timing_lines (snd (List.hd (tiny_matrix ()))) in
  check_bool "columns" true (contains text "transform(s)");
  check_int "two data rows + header" 3 (List.length (String.split_on_char '\n' (String.trim text)))

let test_html_report () =
  let html = Provmark.Html_report.render (tiny_matrix ()) in
  check_bool "doctype" true (contains html "<!DOCTYPE html>");
  check_bool "matrix table" true (contains html "<table class=\"matrix\">");
  check_bool "svg for the target graph" true (contains html "<svg");
  check_bool "anchors link cells to sections" true (contains html "href=\"#spade-open\"");
  check_bool "legend colors" true (contains html "background:#a7c7e7")

let test_html_report_single () =
  let r = Provmark.Runner.run (config_for Recorder.Camflow) open_bench in
  let html = Provmark.Html_report.render_single r in
  check_bool "title names the benchmark" true (contains html "CamFlow / open");
  check_bool "generalized graphs drawn" true (contains html "generalized background")

(* ------------------------------------------------------------------ *)
(* C benchmark export                                                  *)
(* ------------------------------------------------------------------ *)

let test_c_export_close_matches_paper () =
  (* The paper's close.c: an open in the setup, the close inside
     #ifdef TARGET. *)
  let src = Provmark.C_export.c_source (Provmark.Bench_registry.find_exn "close") in
  check_bool "open before the guard" true (contains src "int id = open(\"/staging/test.txt\"");
  check_bool "guarded target" true (contains src "#ifdef TARGET");
  check_bool "close inside" true (contains src "close(id);");
  check_bool "endif" true (contains src "#endif")

let test_c_export_all_well_formed () =
  List.iter
    (fun (p : Program.t) ->
      let src = Provmark.C_export.c_source p in
      check_bool (p.Program.name ^ " has main") true (contains src "int main()");
      check_bool (p.Program.name ^ " has target guard") true (contains src "#ifdef TARGET");
      (* Balanced guard. *)
      check_bool (p.Program.name ^ " has endif") true (contains src "#endif"))
    Provmark.Bench_registry.all

let test_c_export_setup_script () =
  let sh = Provmark.C_export.setup_script (Provmark.Bench_registry.find_exn "unlink") in
  check_bool "creates staged file" true (contains sh "touch /staging/test.txt");
  check_bool "sets mode" true (contains sh "chmod 0644 /staging/test.txt")

let test_c_export_writes_tree () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "provmark_c_export" in
  let n = Provmark.C_export.export_all ~dir () in
  check_int "all benchmarks exported" 44 n;
  check_bool "paper layout" true
    (Sys.file_exists (Filename.concat dir "grpCreat/cmdCreat/cmdCreat.c"))

(* ------------------------------------------------------------------ *)
(* Coverage scoring                                                    *)
(* ------------------------------------------------------------------ *)

let fake_result syscall status =
  {
    Provmark.Result.benchmark = "cmd" ^ syscall;
    syscall;
    tool = Recorder.Spade;
    status;
    span = Provmark.Trace_span.null;
    bg_general = None;
    fg_general = None;
    trials = 2;
    degraded = [];
  }

let test_coverage_score () =
  let g = Graph.add_node Graph.empty ~id:"x" ~label:"n" ~props:Props.empty in
  let results =
    [
      fake_result "open" (Provmark.Result.Target g);
      fake_result "dup" Provmark.Result.Empty;
      fake_result "fork" (Provmark.Result.Target g);
      fake_result "pipe" Provmark.Result.Empty;
    ]
  in
  let s = Provmark.Coverage.score Recorder.Spade results in
  check_int "recorded" 2 s.Provmark.Coverage.recorded;
  check_int "total" 4 s.Provmark.Coverage.total;
  let files = List.find (fun (g : Provmark.Coverage.group_score) -> g.Provmark.Coverage.group = 1) s.Provmark.Coverage.groups in
  check_int "files recorded" 1 files.Provmark.Coverage.recorded;
  check_int "files total" 2 files.Provmark.Coverage.total

let test_coverage_delta () =
  let g = Graph.add_node Graph.empty ~id:"x" ~label:"n" ~props:Props.empty in
  let a = [ fake_result "open" (Provmark.Result.Target g); fake_result "dup" Provmark.Result.Empty ] in
  let b = [ fake_result "open" (Provmark.Result.Target g); fake_result "dup" (Provmark.Result.Target g) ] in
  Alcotest.(check (list (triple string string string))) "one delta"
    [ ("dup", "empty", "ok") ]
    (Provmark.Coverage.delta a b)

let test_coverage_matches_table2 () =
  (* The per-column ok counts of Table 2: SPADE 30, OPUS 31, CamFlow 32. *)
  let matrix =
    List.map
      (fun tool -> (tool, List.map (Provmark.Runner.run (config_for tool)) Provmark.Bench_registry.all))
      Recorder.all_tools
  in
  let scores = Provmark.Coverage.of_matrix matrix in
  Alcotest.(check (list int)) "ok cells per tool" [ 30; 31; 32 ]
    (List.map (fun (s : Provmark.Coverage.t) -> s.Provmark.Coverage.recorded) scores)

(* ------------------------------------------------------------------ *)
(* SPADE storage backends (the spn profile)                            *)
(* ------------------------------------------------------------------ *)

let test_spn_matches_spade_coverage () =
  (* Storage must not change coverage: spn agrees with the SPADE column
     of Table 2 on a representative sample. *)
  List.iter
    (fun name ->
      let r = Provmark.Runner.run (config_for Recorder.Spade_neo4j) (Provmark.Bench_registry.find_exn name) in
      let expected = Provmark.Bench_registry.expected Recorder.Spade_neo4j name in
      if not (Provmark.Bench_registry.matches expected r) then
        Alcotest.failf "spn/%s: got %s, expected %s" name (Provmark.Result.summary r)
          (Provmark.Bench_registry.expected_to_string expected))
    [ "open"; "rename"; "dup"; "vfork"; "chown"; "setresuid"; "exit"; "pipe" ]

let test_spn_pays_database_cost () =
  let transform tool =
    (Provmark.Result.times (Provmark.Runner.run (config_for tool) open_bench))
      .Provmark.Result.transformation_s
  in
  check_bool "spn transform far above spg" true
    (transform Recorder.Spade_neo4j > 10. *. transform Recorder.Spade)

(* ------------------------------------------------------------------ *)
(* Datalog analysis over graphs                                        *)
(* ------------------------------------------------------------------ *)

let diamond () =
  let g = Graph.add_node Graph.empty ~id:"a" ~label:"x" ~props:Props.empty in
  let g = Graph.add_node g ~id:"b" ~label:"x" ~props:Props.empty in
  let g = Graph.add_node g ~id:"c" ~label:"x" ~props:Props.empty in
  let g = Graph.add_node g ~id:"d" ~label:"x" ~props:Props.empty in
  let g = Graph.add_edge g ~id:"e1" ~src:"a" ~tgt:"b" ~label:"r" ~props:Props.empty in
  let g = Graph.add_edge g ~id:"e2" ~src:"a" ~tgt:"c" ~label:"r" ~props:Props.empty in
  let g = Graph.add_edge g ~id:"e3" ~src:"b" ~tgt:"d" ~label:"r" ~props:Props.empty in
  Graph.add_edge g ~id:"e4" ~src:"c" ~tgt:"d" ~label:"r" ~props:Props.empty

let test_analysis_reachable () =
  let pairs = Provmark.Analysis.reachable (diamond ()) in
  check_int "five reachable pairs" 5 (List.length (List.sort_uniq compare pairs));
  check_bool "a reaches d" true (Provmark.Analysis.reaches (diamond ()) ~src:"a" ~tgt:"d");
  check_bool "d reaches nothing" false (Provmark.Analysis.reaches (diamond ()) ~src:"d" ~tgt:"a");
  Alcotest.(check (list string)) "influence of a" [ "b"; "c"; "d" ]
    (Provmark.Analysis.influence_of (diamond ()) "a")

(* Reference closure via DFS, for cross-checking on random graphs. *)
let closure_dfs g =
  let module Sset = Set.Make (String) in
  let step id =
    List.map (fun (e : Graph.edge) -> e.Graph.edge_tgt) (Graph.out_edges g id)
  in
  List.concat_map
    (fun (n : Graph.node) ->
      let src = n.Graph.node_id in
      let rec go seen frontier =
        match frontier with
        | [] -> seen
        | x :: rest ->
            if Sset.mem x seen then go seen rest else go (Sset.add x seen) (step x @ rest)
      in
      let seen = go Sset.empty (step src) in
      List.map (fun tgt -> (src, tgt)) (Sset.elements seen))
    (Graph.nodes g)

let prop_analysis_matches_dfs =
  Helpers.qcheck ~count:60 "Datalog reachability equals DFS closure"
    (Helpers.graph_arbitrary ~max_nodes:6 ~max_edges:10 ())
    (fun g ->
      List.sort_uniq compare (Provmark.Analysis.reachable g)
      = List.sort_uniq compare (closure_dfs g))

let test_analysis_custom_rules () =
  (* Nodes holding a given property, via a custom query. *)
  let g = Graph.set_node_props (diamond ()) "b" (props [ ("flag", "on") ]) in
  let hits =
    Provmark.Analysis.run ~rules:{|hit(X) :- pq(X,"flag","on").|} g ~pred:"hit"
  in
  check_int "one hit" 1 (List.length hits)

(* ------------------------------------------------------------------ *)
(* Benchmark generation (Section 6 future work prototype)              *)
(* ------------------------------------------------------------------ *)

let test_bench_gen_failure_variants () =
  let variants = Provmark.Bench_gen.failure_variants () in
  (* All path-taking and credential calls have a variant; fd-based and
     lifecycle calls do not. *)
  check_bool "substantial coverage" true (List.length variants >= 25);
  let names = List.map (fun (p : Program.t) -> p.Program.syscall) variants in
  check_bool "rename included" true (List.mem "rename" names);
  check_bool "fork excluded" false (List.mem "fork" names);
  check_bool "dup excluded" false (List.mem "dup" names)

let test_bench_gen_failures_fail () =
  (* Every derived variant's target calls must actually fail in the
     kernel: no audit record of them succeeds. *)
  List.iter
    (fun (p : Program.t) ->
      let t = Oskernel.Kernel.run ~run_id:1 p Program.Foreground in
      let target_names = List.map Syscall.name p.Program.target in
      let setup_len = List.length p.Program.setup in
      (* Count successful records of target syscall names beyond what the
         setup and boilerplate produce for the same names. *)
      let successes trace =
        List.length
          (List.filter
             (fun (a : Oskernel.Event.audit_record) ->
               a.Oskernel.Event.a_success && List.mem a.Oskernel.Event.a_syscall target_names)
             trace.Oskernel.Trace.audit)
      in
      let bg = Oskernel.Kernel.run ~run_id:1 p Program.Background in
      ignore setup_len;
      if successes t > successes bg then
        Alcotest.failf "%s: derived target call succeeded" p.Program.name)
    (Provmark.Bench_gen.failure_variants ())

let test_bench_gen_failure_pipeline_matches_alice () =
  (* Spot-check the derived failed-rename variant behaves like the
     hand-written one: only OPUS records it. *)
  let derived =
    List.find
      (fun (p : Program.t) -> p.Program.syscall = "rename")
      (Provmark.Bench_gen.failure_variants ())
  in
  let status tool = (Provmark.Runner.run (config_for tool) derived).Provmark.Result.status in
  check_bool "spade empty" true (status Recorder.Spade = Provmark.Result.Empty);
  check_bool "opus records it" true
    (match status Recorder.Opus with Provmark.Result.Target _ -> true | _ -> false)

let test_bench_gen_sequence () =
  let seq = Provmark.Bench_gen.sequence_benchmark [ "creat"; "chmod"; "fork" ] in
  check_int "three-call target" 3 (List.length seq.Oskernel.Program.target);
  (* The sequence benchmark runs through the pipeline like any other. *)
  match (Provmark.Runner.run (config_for Recorder.Spade) seq).Provmark.Result.status with
  | Provmark.Result.Target g ->
      check_bool "composite target graph" true (Pgraph.Graph.size g >= 5)
  | _ -> Alcotest.fail "sequence benchmark should be recorded"

let test_bench_gen_sequence_registers_disjoint () =
  (* Composing two benchmarks that both bind register "id" must not
     collide: the second close must still see its own descriptor. *)
  let seq = Provmark.Bench_gen.sequence_benchmark [ "close"; "close" ] in
  let t = Oskernel.Kernel.run ~run_id:1 seq Program.Foreground in
  let closes =
    List.filter
      (fun (l : Oskernel.Event.libc_record) -> l.Oskernel.Event.l_func = "close")
      t.Oskernel.Trace.libc
  in
  check_int "two closes" 2 (List.length closes);
  check_bool "both succeed" true
    (List.for_all (fun (l : Oskernel.Event.libc_record) -> l.Oskernel.Event.l_ret = 0) closes)

let test_bench_gen_unknown_name () =
  match Provmark.Bench_gen.sequence_benchmark [ "open"; "not-a-syscall" ] with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown benchmark name must raise"

(* ------------------------------------------------------------------ *)
(* Nondeterministic targets (Section 5.4 future work prototype)        *)
(* ------------------------------------------------------------------ *)

let race_spec =
  {
    Provmark.Nondet.name = "race";
    staging = [];
    setup = [];
    threads =
      [
        [
          Syscall.Creat { path = "/staging/shared.txt"; ret = "a" };
          Syscall.Write { fd = "a"; count = 16 };
        ];
        [
          Syscall.Open { path = "/staging/shared.txt"; flags = [ Syscall.O_RDONLY ]; ret = "b" };
          Syscall.Read { fd = "b"; count = 16 };
        ];
      ];
  }

let test_nondet_schedule_count () =
  (* Interleavings of two 2-call threads: C(4,2) = 6. *)
  check_int "six schedules" 6 (List.length (Provmark.Nondet.schedules race_spec));
  check_int "cap respected" 3 (List.length (Provmark.Nondet.schedules ~limit:3 race_spec))

let test_nondet_schedules_preserve_thread_order () =
  List.iter
    (fun schedule ->
      let names = List.map Syscall.name schedule in
      let pos x = Option.get (List.find_index (String.equal x) names) in
      check_bool "creat before write" true (pos "creat" < pos "write");
      check_bool "open before read" true (pos "open" < pos "read"))
    (Provmark.Nondet.schedules race_spec)

let test_nondet_single_thread_is_deterministic () =
  let spec = { race_spec with Provmark.Nondet.threads = [ [ Syscall.Fork ] ] } in
  check_int "one schedule" 1 (List.length (Provmark.Nondet.schedules spec));
  let config =
    { (config_for Recorder.Spade) with Provmark.Config.trials = 4; flakiness = 0. }
  in
  match Provmark.Nondet.benchmark config spec with
  | Ok o ->
      check_int "one behaviour" 1 (List.length o.Provmark.Nondet.behaviours);
      check_int "all trials in it" 4 (List.hd o.Provmark.Nondet.behaviours).Provmark.Nondet.observations
  | Error e -> Alcotest.fail (Provmark.Nondet.failure_to_string e)

let test_nondet_race_has_two_behaviours () =
  let config =
    { (config_for Recorder.Spade) with Provmark.Config.trials = 16; flakiness = 0. }
  in
  match Provmark.Nondet.benchmark config race_spec with
  | Ok o ->
      check_int "two behaviours" 2 (List.length o.Provmark.Nondet.behaviours);
      check_int "six schedules known" 6 o.Provmark.Nondet.schedules_total;
      (* The reader-wins behaviour has strictly more structure. *)
      let sizes =
        List.map
          (fun (b : Provmark.Nondet.behaviour) -> Pgraph.Graph.size b.Provmark.Nondet.target)
          o.Provmark.Nondet.behaviours
      in
      check_bool "distinct target sizes" true
        (List.length (List.sort_uniq Int.compare sizes) = 2)
  | Error e -> Alcotest.fail (Provmark.Nondet.failure_to_string e)

let test_nondet_empty_threads () =
  let spec = { race_spec with Provmark.Nondet.threads = [] } in
  check_bool "no behaviour" true
    (Provmark.Nondet.benchmark (config_for Recorder.Spade) spec
    = Error Provmark.Nondet.No_behaviour)

(* The [graph parse error: ...] line [provmark match] prints and serve
   returns for a graph that does not build. *)
let test_match_parse_errors () =
  let module M = Provmark.Match_op in
  let verdict format text = match M.parse_graph format text with Ok _ -> "ok" | Error m -> m in
  let nodes = {|"entity": {"n1": {"prov:type": "file"}, "n2": {}}|} in
  List.iter
    (fun (name, format, text, expected) -> check_string name expected (verdict format text))
    [
      ( "DOT duplicate node",
        M.Dot,
        "digraph g {\n  a [type=\"x\"];\n  a [type=\"y\"];\n}\n",
        {|graph parse error: Recorders.Dot.Parse_error(0, "Pgraph.Graph.add_node: duplicate identifier a")|} );
      ( "DOT node/edge id clash",
        M.Dot,
        "digraph g {\n  a [type=\"x\"];\n  e0 [type=\"y\"];\n  a -> e0;\n}\n",
        {|graph parse error: Recorders.Dot.Parse_error(0, "Pgraph.Graph.add_edge: duplicate identifier e0")|} );
      ( "DOT dangling edge",
        M.Dot,
        "digraph g {\n  a;\n  a -> b;\n}\n",
        {|graph parse error: Recorders.Dot.Parse_error(19, "edge references undeclared node b")|} );
      ( "PROV-JSON node in two sections",
        M.Provjson,
        {|{"entity": {"n1": {}}, "activity": {"n1": {}}}|},
        {|graph parse error: Recorders.Provjson.Format_error(0, "Pgraph.Graph.add_node: duplicate identifier n1")|} );
      ( "PROV-JSON node/edge id clash",
        M.Provjson,
        Printf.sprintf {|{%s, "used": {"n1": {"prov:activity": "n1", "prov:entity": "n2"}}}|} nodes,
        {|graph parse error: Recorders.Provjson.Format_error(0, "Pgraph.Graph.add_edge: duplicate identifier n1")|} );
      ( "PROV-JSON dangling edge",
        M.Provjson,
        Printf.sprintf {|{%s, "used": {"u": {"prov:activity": "zz", "prov:entity": "n2"}}}|} nodes,
        {|graph parse error: Recorders.Provjson.Format_error(0, "edge u references unknown node zz")|} );
    ]

let () =
  Alcotest.run "provmark"
    [
      ( "recording",
        [
          Alcotest.test_case "trial counts" `Quick test_recording_counts;
          Alcotest.test_case "deterministic" `Quick test_recording_deterministic;
          Alcotest.test_case "native formats" `Quick test_recording_output_format_per_tool;
        ] );
      ( "transform",
        [
          Alcotest.test_case "all formats" `Quick test_transform_each_format;
          Alcotest.test_case "garbage rejected" `Quick test_transform_rejects_garbage;
          Alcotest.test_case "datalog roundtrip" `Quick test_transform_datalog_roundtrip;
        ] );
      ( "generalize",
        [
          Alcotest.test_case "strips transients" `Quick test_generalize_strips_transients;
          Alcotest.test_case "no trials" `Quick test_generalize_no_trials;
          Alcotest.test_case "all singletons" `Quick test_generalize_all_singletons;
          Alcotest.test_case "flaky run discarded" `Quick test_generalize_discards_flaky_singleton;
          Alcotest.test_case "filter drops non-modal" `Quick test_generalize_filter_drops_nonmodal;
          Alcotest.test_case "pair choice" `Quick test_generalize_pair_choice;
        ] );
      ("match", [ Alcotest.test_case "graph parse errors are pinned" `Quick test_match_parse_errors ]);
      ( "compare",
        [
          Alcotest.test_case "subtraction with dummies" `Quick test_compare_subtracts;
          Alcotest.test_case "not embeddable" `Quick test_compare_not_embeddable;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "open across tools" `Quick test_pipeline_open_each_tool;
          Alcotest.test_case "ASP and direct backends agree" `Slow test_pipeline_backends_agree;
          Alcotest.test_case "stage times" `Quick test_pipeline_stage_times_populated;
          Alcotest.test_case "generalized graphs exposed" `Quick test_pipeline_generalized_graphs_exposed;
        ] );
      ( "table2",
        [
          Alcotest.test_case "registry complete" `Quick test_registry_complete;
          Alcotest.test_case "full agreement with the paper" `Slow test_table2_full_agreement;
        ] );
      ( "report",
        [
          Alcotest.test_case "validation matrix" `Quick test_report_validation_matrix;
          Alcotest.test_case "structure table" `Quick test_report_structure_table;
          Alcotest.test_case "timing lines" `Quick test_report_timing_lines;
          Alcotest.test_case "html report" `Quick test_html_report;
          Alcotest.test_case "html single page" `Quick test_html_report_single;
        ] );
      ( "c-export",
        [
          Alcotest.test_case "close.c matches the paper" `Quick test_c_export_close_matches_paper;
          Alcotest.test_case "all sources well-formed" `Quick test_c_export_all_well_formed;
          Alcotest.test_case "setup script" `Quick test_c_export_setup_script;
          Alcotest.test_case "directory layout" `Quick test_c_export_writes_tree;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "group scoring" `Quick test_coverage_score;
          Alcotest.test_case "delta" `Quick test_coverage_delta;
          Alcotest.test_case "Table 2 column totals" `Slow test_coverage_matches_table2;
        ] );
      ( "spn",
        [
          Alcotest.test_case "coverage equals SPADE" `Slow test_spn_matches_spade_coverage;
          Alcotest.test_case "database startup cost" `Quick test_spn_pays_database_cost;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "diamond reachability" `Quick test_analysis_reachable;
          prop_analysis_matches_dfs;
          Alcotest.test_case "custom rules" `Quick test_analysis_custom_rules;
        ] );
      ( "bench-gen",
        [
          Alcotest.test_case "failure variants derived" `Quick test_bench_gen_failure_variants;
          Alcotest.test_case "derived calls really fail" `Quick test_bench_gen_failures_fail;
          Alcotest.test_case "derived rename matches Alice" `Quick test_bench_gen_failure_pipeline_matches_alice;
          Alcotest.test_case "sequence composition" `Quick test_bench_gen_sequence;
          Alcotest.test_case "registers renamed apart" `Quick test_bench_gen_sequence_registers_disjoint;
          Alcotest.test_case "unknown name" `Quick test_bench_gen_unknown_name;
        ] );
      ( "nondet",
        [
          Alcotest.test_case "schedule enumeration" `Quick test_nondet_schedule_count;
          Alcotest.test_case "program order preserved" `Quick test_nondet_schedules_preserve_thread_order;
          Alcotest.test_case "single thread" `Quick test_nondet_single_thread_is_deterministic;
          Alcotest.test_case "race yields two behaviours" `Slow test_nondet_race_has_two_behaviours;
          Alcotest.test_case "empty spec rejected" `Quick test_nondet_empty_threads;
        ] );
      ( "use-cases",
        [
          Alcotest.test_case "failed rename: OPUS only" `Quick test_failed_rename_only_opus;
          Alcotest.test_case "privilege escalation signatures" `Quick test_priv_esc_detected;
          Alcotest.test_case "scalability growth" `Slow test_scalability_targets_grow;
          Alcotest.test_case "regression store" `Quick test_regression_store_roundtrip;
          Alcotest.test_case "timing csv" `Quick test_report_csv_format;
        ] );
    ]
