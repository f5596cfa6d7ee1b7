(* Benchmark harness: regenerates every table and figure of the paper's
   demonstration and evaluation sections (Sections 4 and 5).

     dune exec bench/main.exe

   Absolute numbers differ from the paper (the substrate is a simulator,
   not the authors' testbed); the *shapes* are the reproduction targets:
   which tool records which call (Table 2), which structures they build
   (Table 3 / Figure 1), OPUS an order of magnitude slower to transform
   than SPADE/CamFlow (Figures 5-7), and the scalability trends
   (Figures 8-10). *)

module Recorder = Recorders.Recorder
module Result_ = Provmark.Result

let section title =
  Printf.printf "\n============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "============================================================\n\n"

let config_for tool = Provmark.Config.default tool

(* ------------------------------------------------------------------ *)
(* Table 1: benchmarked syscalls                                       *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: benchmarked syscalls (22 families, 44 calls)";
  let groups = [ (1, "Files"); (2, "Processes"); (3, "Permissions"); (4, "Pipes") ] in
  List.iter
    (fun (g, name) ->
      let calls =
        List.filter (fun s -> Provmark.Bench_registry.group_of s = g) Oskernel.Syscall.all_names
      in
      Printf.printf "%d  %-12s %s\n" g name (String.concat ", " calls))
    groups

(* ------------------------------------------------------------------ *)
(* Table 2: validation matrix                                          *)
(* ------------------------------------------------------------------ *)

let run_matrix () =
  List.map
    (fun tool ->
      let config = config_for tool in
      (tool, List.map (Provmark.Runner.run config) Provmark.Bench_registry.all))
    Recorder.all_tools

let table2 matrix =
  section "Table 2: summary of validation results";
  print_string (Provmark.Report.validation_matrix matrix);
  let ok, total = Provmark.Report.agreement matrix in
  Printf.printf "\nAgreement with the paper's Table 2: %d/%d cells\n" ok total;
  Printf.printf "\nCoverage by Table 1 group (recorded / benchmarked):\n%s"
    (Provmark.Coverage.render (Provmark.Coverage.of_matrix matrix))

(* ------------------------------------------------------------------ *)
(* Table 3: example benchmark structures                               *)
(* ------------------------------------------------------------------ *)

let table3 matrix =
  section "Table 3: example benchmark result structures";
  print_string
    (Provmark.Report.structure_table matrix
       ~syscalls:[ "open"; "read"; "write"; "dup"; "setuid"; "setresuid" ])

(* ------------------------------------------------------------------ *)
(* Figure 1: the rename call across the three recorders                *)
(* ------------------------------------------------------------------ *)

let figure1 matrix =
  section "Figure 1: a rename system call, as recorded by the three recorders";
  List.iter
    (fun (tool, results) ->
      match
        List.find_opt (fun (r : Result_.t) -> r.Result_.syscall = "rename") results
      with
      | Some { Result_.status = Result_.Target g; _ } ->
          Printf.printf "--- %s (%s) ---\n" (Recorder.tool_name tool)
            (Pgraph.Stats.shape_line (Pgraph.Stats.of_graph g));
          Format.printf "%a@.@." Pgraph.Graph.pp g
      | _ -> Printf.printf "--- %s: no rename target graph ---\n" (Recorder.tool_name tool))
    matrix

(* ------------------------------------------------------------------ *)
(* Figures 5-7: per-stage timing for representative syscalls           *)
(* ------------------------------------------------------------------ *)

let figure_syscalls = [ "open"; "execve"; "fork"; "setuid"; "rename" ]

let figures_5_to_7 matrix =
  List.iter
    (fun (tool, results) ->
      let fig =
        match tool with
        | Recorder.Spade -> 5
        | Recorder.Opus -> 6
        | Recorder.Camflow | Recorder.Spade_camflow | Recorder.Spade_neo4j -> 7
      in
      section
        (Printf.sprintf "Figure %d: timing results, %s+%s" fig (Recorder.tool_name tool)
           (Recorder.format_name tool));
      let subset =
        List.filter_map
          (fun s -> List.find_opt (fun (r : Result_.t) -> r.Result_.syscall = s) results)
          figure_syscalls
      in
      print_string (Provmark.Report.timing_lines subset))
    matrix

(* ------------------------------------------------------------------ *)
(* Figures 8-10: scalability                                           *)
(* ------------------------------------------------------------------ *)

let figures_8_to_10 () =
  List.iter
    (fun tool ->
      let fig =
        match tool with
        | Recorder.Spade -> 8
        | Recorder.Opus -> 9
        | Recorder.Camflow | Recorder.Spade_camflow | Recorder.Spade_neo4j -> 10
      in
      section
        (Printf.sprintf "Figure %d: scalability results, %s+%s" fig (Recorder.tool_name tool)
           (Recorder.format_name tool));
      let config = config_for tool in
      let results = List.map (Provmark.Runner.run config) Provmark.Scalability.all in
      print_string (Provmark.Report.timing_lines results);
      (* Also report the target sizes: graph growth drives time growth. *)
      List.iter
        (fun (r : Result_.t) ->
          match r.Result_.status with
          | Result_.Target g ->
              Printf.printf "  %s target: %s\n" r.Result_.benchmark
                (Pgraph.Stats.shape_line (Pgraph.Stats.of_graph g))
          | _ -> Printf.printf "  %s target: %s\n" r.Result_.benchmark (Result_.status_word r))
        results)
    Recorder.all_tools

(* ------------------------------------------------------------------ *)
(* Table 4: module sizes                                                *)
(* ------------------------------------------------------------------ *)

let count_lines path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let n = ref 0 in
    (try
       while true do
         ignore (input_line ic);
         incr n
       done
     with End_of_file -> ());
    close_in ic;
    Some !n
  end

let table4 () =
  section "Table 4: module sizes (OCaml lines of code)";
  Printf.printf "%-16s %-10s %-10s %-10s\n" "Module" "SPADE" "OPUS" "CamFlow";
  Printf.printf "%-16s %-10s %-10s %-10s\n" "(Format)" "(DOT)" "(Neo4j)" "(PROV-JSON)";
  let show name files =
    Printf.printf "%-16s" name;
    List.iter
      (fun paths ->
        let total =
          List.fold_left (fun acc p -> acc + Option.value (count_lines p) ~default:0) 0 paths
        in
        Printf.printf " %-9s" (if total = 0 then "n/a" else string_of_int total))
      files;
    print_newline ()
  in
  show "Recording"
    [ [ "lib/recorders/spade.ml" ]; [ "lib/recorders/opus.ml" ]; [ "lib/recorders/camflow.ml" ] ];
  show "Transformation"
    [
      [ "lib/recorders/dot.ml" ];
      [ "lib/graphstore/store.ml"; "lib/graphstore/query.ml" ];
      [ "lib/recorders/provjson.ml" ];
    ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the three processing stages            *)
(* ------------------------------------------------------------------ *)

let stage_closures tool =
  (* Pre-record the rename benchmark once; the staged closures then
     exercise exactly one pipeline stage each. *)
  let config = config_for tool in
  let prog = Provmark.Bench_registry.find_exn "rename" in
  let bg_recs, fg_recs = Provmark.Recording.record_all config prog in
  let one_output = (List.hd bg_recs).Provmark.Recording.output in
  let bg_graphs = Provmark.Transform.batch bg_recs in
  let fg_graphs = Provmark.Transform.batch fg_recs in
  let generalize graphs =
    Provmark.Generalize.generalize ~backend:config.Provmark.Config.backend
      ~filter:config.Provmark.Config.filter_graphs
      ~pair_choice:config.Provmark.Config.pair_choice graphs
  in
  let general graphs =
    match generalize graphs with
    | Ok o -> o.Provmark.Generalize.general
    | Error _ -> Pgraph.Graph.empty
  in
  let bg = general bg_graphs and fg = general fg_graphs in
  ( (fun () -> ignore (Provmark.Transform.to_pgraph one_output)),
    (fun () -> ignore (generalize bg_graphs)),
    fun () -> ignore (Provmark.Compare.compare ~backend:config.Provmark.Config.backend ~bg ~fg) )

let microbench () =
  section "Bechamel micro-benchmarks: stage cost on the rename benchmark";
  let open Bechamel in
  let tests =
    List.concat_map
      (fun tool ->
        let transform, generalize, compare = stage_closures tool in
        let name stage = Printf.sprintf "%s/%s" (Recorder.tool_name tool) stage in
        [
          Test.make ~name:(name "transformation") (Staged.stage transform);
          Test.make ~name:(name "generalization") (Staged.stage generalize);
          Test.make ~name:(name "comparison") (Staged.stage compare);
        ])
      Recorder.all_tools
  in
  let grouped = Test.make_grouped ~name:"stages" tests in
  let cfg = Benchmark.cfg ~limit:60 ~quota:(Time.second 0.4) ~kde:None () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] grouped in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> Printf.sprintf "%14.0f ns/run  (%10.4f ms)" e (e /. 1e6)
        | _ -> "n/a"
      in
      Printf.printf "%-40s %s\n" name est)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 5)                                     *)
(* ------------------------------------------------------------------ *)

let timed f =
  let t0 = Provmark.Trace_span.now_s () in
  let v = f () in
  (v, Provmark.Trace_span.now_s () -. t0)

let ablations () =
  section "Ablations: design choices of the pipeline";
  (* 1. ASP backend (paper Listings 3/4 through the mini answer-set
     solver) vs the direct VF2-style matcher: same verdicts, different
     solving time. *)
  Printf.printf "--- matching backend (rename benchmark) ---\n";
  List.iter
    (fun tool ->
      let run backend =
        timed (fun () ->
            Provmark.Runner.run
              { (config_for tool) with Provmark.Config.backend }
              (Provmark.Bench_registry.find_exn "rename"))
      in
      let direct, t_direct = run Gmatch.Engine.Direct in
      let asp, t_asp = run Gmatch.Engine.Asp in
      Printf.printf "%-8s direct: %-8s %7.3fs   asp: %-8s %7.3fs  (agree: %b)\n"
        (Recorder.tool_name tool) (Result_.status_word direct) t_direct
        (Result_.status_word asp) t_asp
        (Result_.status_word direct = Result_.status_word asp))
    Recorder.all_tools;
  (* 2. Representative-pair choice: smallest (paper default) vs largest
     similarity class — both work (Section 3.4). *)
  Printf.printf "\n--- representative pair choice (open benchmark, SPADE) ---\n";
  List.iter
    (fun (label, pair_choice) ->
      let r =
        Provmark.Runner.run
          { (config_for Recorder.Spade) with Provmark.Config.pair_choice }
          (Provmark.Bench_registry.find_exn "open")
      in
      Printf.printf "%-9s -> %s\n" label (Result_.summary r))
    [ ("smallest", Provmark.Config.Smallest); ("largest", Provmark.Config.Largest) ];
  (* 3. The incremental backend (Section 5.4's suggested optimization):
     creation-order alignment certifies most matchings without search;
     the certified/fallback split is the interesting statistic. *)
  Printf.printf "\n--- incremental matching (full SPADE benchmark suite) ---\n";
  let t_direct =
    let t0 = Provmark.Trace_span.now_s () in
    List.iter
      (fun p -> ignore (Provmark.Runner.run (config_for Recorder.Spade) p))
      Provmark.Bench_registry.all;
    Provmark.Trace_span.now_s () -. t0
  in
  (* Reset after the direct run: its cascade counts similarity solves
     here too. *)
  Gmatch.Incremental.reset_stats ();
  let t_inc =
    let t0 = Provmark.Trace_span.now_s () in
    List.iter
      (fun p ->
        ignore
          (Provmark.Runner.run
             { (config_for Recorder.Spade) with Provmark.Config.backend = Gmatch.Engine.Incremental }
             p))
      Provmark.Bench_registry.all;
    Provmark.Trace_span.now_s () -. t0
  in
  let cert, fb = Gmatch.Incremental.stats () in
  Printf.printf "direct backend: %.2fs   incremental: %.2fs   fast path: %d certified, %d fallbacks\n"
    t_direct t_inc cert fb;
  (* 4. Graph filtering x trial count under recorder flakiness: how
     often does a single attempt fail (before the retry policy)? *)
  Printf.printf "\n--- graph filtering x trials (CamFlow, 30 seeds, open benchmark) ---\n";
  List.iter
    (fun (filter_graphs, trials) ->
      let failures = ref 0 in
      for seed = 1 to 30 do
        let config =
          { (config_for Recorder.Camflow) with Provmark.Config.filter_graphs; trials; seed }
        in
        match
          (Provmark.Runner.run_once config (Provmark.Bench_registry.find_exn "open"))
            .Result_.status
        with
        | Result_.Failed _ -> incr failures
        | Result_.Target _ | Result_.Empty -> ()
      done;
      Printf.printf "filter=%-5b trials=%d -> %d/30 single-attempt failures\n" filter_graphs
        trials !failures)
    [ (false, 2); (false, 5); (true, 2); (true, 5) ]

(* ------------------------------------------------------------------ *)
(* Extension: SPADE with the CamFlow reporter (paper Section 2 mentions
   this configuration as untried)                                       *)
(* ------------------------------------------------------------------ *)

let extension_spade_camflow () =
  section "Extension: SPADE+Audit vs SPADE with the CamFlow reporter";
  Printf.printf "%-12s %-12s %-14s %s\n" "syscall" "SPADE+Audit" "SPADE+CamFlow" "delta";
  let audit_cfg = config_for Recorder.Spade in
  let cam_cfg = config_for Recorder.Spade_camflow in
  let gained = ref 0 and lost = ref 0 in
  List.iter
    (fun (prog : Oskernel.Program.t) ->
      let status cfg = Result_.status_word (Provmark.Runner.run cfg prog) in
      let a = status audit_cfg and c = status cam_cfg in
      let delta =
        match (a, c) with
        | "empty", "ok" ->
            incr gained;
            "<- gained by LSM coverage"
        | "ok", "empty" ->
            incr lost;
            "<- lost (hook not serialized)"
        | _ -> ""
      in
      if delta <> "" then
        Printf.printf "%-12s %-12s %-14s %s\n" prog.Oskernel.Program.syscall a c delta)
    Provmark.Bench_registry.all;
  Printf.printf "\nSwitching SPADE's reporter from Linux Audit to CamFlow gains %d syscalls\n" !gained;
  Printf.printf "and loses %d, keeping SPADE's OPM vocabulary throughout.\n" !lost;
  (* The vfork quirk disappears: task_alloc fires at fork time, so the
     child process vertex connects. *)
  let vfork cfg =
    match (Provmark.Runner.run cfg (Provmark.Bench_registry.find_exn "vfork")).Result_.status with
    | Result_.Target g -> Result_.has_disconnected_node g
    | _ -> false
  in
  Printf.printf "vfork child disconnected: audit reporter %b, camflow reporter %b\n"
    (vfork audit_cfg) (vfork cam_cfg);
  (* The spn profile: storage choice, not capture, drives transformation
     cost — SPADE's graphs through the database pay the same startup tax
     as OPUS. *)
  Printf.printf "\n--- SPADE storage backends (rename benchmark, transformation stage) ---\n";
  List.iter
    (fun tool ->
      let r = Provmark.Runner.run (config_for tool) (Provmark.Bench_registry.find_exn "rename") in
      Printf.printf "%-14s %-8s transform %.4fs\n" (Recorder.tool_name tool)
        (Result_.status_word r) (Result_.times r).Result_.transformation_s)
    [ Recorder.Spade; Recorder.Spade_neo4j ]

(* ------------------------------------------------------------------ *)
(* Extension: scalability beyond the paper (scale16/32), exact vs
   incremental matching — quantifying the Section 5.4 hypothesis        *)
(* ------------------------------------------------------------------ *)

let extension_scalability_backends () =
  section "Extension: scalability to scale16/scale32, exact vs incremental matching";
  Printf.printf "%-13s %-9s %-10s %s\n" "backend" "scale" "status" "total time";
  List.iter
    (fun backend ->
      List.iter
        (fun n ->
          let t0 = Provmark.Trace_span.now_s () in
          let config =
            { (config_for Recorder.Camflow) with Provmark.Config.backend }
          in
          let r = Provmark.Runner.run config (Provmark.Scalability.program n) in
          Printf.printf "%-13s scale%-4d %-10s %7.3fs\n"
            (Gmatch.Engine.backend_to_string backend)
            n (Result_.status_word r)
            (Provmark.Trace_span.now_s () -. t0))
        [ 8; 16; 32 ])
    [ Gmatch.Engine.Direct; Gmatch.Engine.Incremental ];
  print_endline
    "\nThe exact search grows superlinearly with the target size (the paper's\n\
     NP-completeness warning, Section 5.2); the creation-order fast path stays\n\
     linear, confirming the Section 5.4 optimization hypothesis.";
  ()

(* ------------------------------------------------------------------ *)
(* Extension: configuration sweep (Bob's workflow at full scale)        *)
(* ------------------------------------------------------------------ *)

let extension_config_sweep () =
  section "Extension: SPADE configuration sweep over all 44 benchmarks";
  let run_all spade =
    let config = { (config_for Recorder.Spade) with Provmark.Config.spade } in
    List.map (Provmark.Runner.run config) Provmark.Bench_registry.all
  in
  let base = run_all Recorders.Spade.default_config in
  let sweep =
    [
      ("success_only=false",
       { Recorders.Spade.default_config with Recorders.Spade.success_only = false });
      ("simplify=false", { Recorders.Spade.default_config with Recorders.Spade.simplify = false });
      ("versioning=true", { Recorders.Spade.default_config with Recorders.Spade.versioning = true });
    ]
  in
  List.iter
    (fun (label, spade) ->
      let results = run_all spade in
      let changes = Provmark.Coverage.delta base results in
      Printf.printf "%-20s %d cell(s) change vs default" label (List.length changes);
      (match changes with
      | [] -> ()
      | cs ->
          Printf.printf ": %s"
            (String.concat ", "
               (List.map (fun (s, a, b) -> Printf.sprintf "%s %s->%s" s a b) cs)));
      print_newline ())
    sweep

(* ------------------------------------------------------------------ *)
(* Extension: nondeterministic targets (Section 5.4 future work)        *)
(* ------------------------------------------------------------------ *)

let extension_nondet () =
  section "Extension: nondeterministic target (two threads racing on a shared file)";
  let spec =
    {
      Provmark.Nondet.name = "cmdSharedFileRace";
      staging = [];
      setup = [];
      threads =
        [
          [
            Oskernel.Syscall.Creat { path = "/staging/shared.txt"; ret = "a" };
            Oskernel.Syscall.Write { fd = "a"; count = 16 };
          ];
          [
            Oskernel.Syscall.Open
              { path = "/staging/shared.txt"; flags = [ Oskernel.Syscall.O_RDONLY ]; ret = "b" };
            Oskernel.Syscall.Read { fd = "b"; count = 16 };
          ];
        ];
    }
  in
  let config =
    { (config_for Recorder.Spade) with Provmark.Config.trials = 16; flakiness = 0. }
  in
  match Provmark.Nondet.benchmark config spec with
  | Error e -> Printf.printf "failed: %s\n" (Provmark.Nondet.failure_to_string e)
  | Ok o ->
      Printf.printf "%d trials, %d/%d schedules exercised, %d behaviour(s):\n"
        o.Provmark.Nondet.trials o.Provmark.Nondet.schedules_exercised
        o.Provmark.Nondet.schedules_total
        (List.length o.Provmark.Nondet.behaviours);
      List.iteri
        (fun i (b : Provmark.Nondet.behaviour) ->
          Printf.printf "  behaviour %d (x%d): %s\n" (i + 1) b.Provmark.Nondet.observations
            (Pgraph.Stats.shape_line (Pgraph.Stats.of_graph b.Provmark.Nondet.target)))
        o.Provmark.Nondet.behaviours

(* ------------------------------------------------------------------ *)
(* Extension: parallel suite runner (domains) and the ASP solve cache   *)
(* ------------------------------------------------------------------ *)

let suite_parallel () =
  section "Extension: parallel suite runner (OCaml domains) and ASP solve cache";
  let cores = Domain.recommended_domain_count () in
  Printf.printf "recommended_domain_count: %d\n\n" cores;
  (* Deterministic seeds mean every job count computes the same suite;
     wall-clock scales with the cores actually available.  On a 1-core
     host j>1 only measures scheduling overhead — say so rather than
     pretending a speedup. *)
  let config = config_for Recorder.Spade in
  let progs = Provmark.Bench_registry.all in
  let t1 = ref 0. in
  Printf.printf "%-6s %-10s %s\n" "jobs" "wall (s)" "speedup vs j=1";
  List.iter
    (fun jobs ->
      let _results, t =
        timed (fun () -> Provmark.Parallel_runner.run_all ~jobs config progs)
      in
      if jobs = 1 then t1 := t;
      Printf.printf "j=%-4d %-10.2f %.2fx%s\n" jobs t (!t1 /. t)
        (if jobs > cores then "  (more jobs than cores)" else ""))
    [ 1; 2; 4 ];
  if cores = 1 then
    print_endline "\n(1 core available: j>1 only adds domain scheduling overhead here;\n\
                   \ the speedup column is meaningful on multi-core hosts only.)";
  (* Determinism: j=1 and j=4 must produce identical suites. *)
  let summaries jobs =
    List.map Result_.summary (Provmark.Parallel_runner.run_all ~jobs config progs)
  in
  Printf.printf "\nj=1 and j=4 suites identical: %b\n" (summaries 1 = summaries 4);
  (* The solve cache is the single-core lever: shape-only similarity
     checks repeat across trials and benchmarks. *)
  let asp_config = { config with Provmark.Config.backend = Gmatch.Engine.Asp } in
  let asp_subset =
    List.filter_map
      (fun s -> List.find_opt (fun (p : Oskernel.Program.t) -> p.Oskernel.Program.name = s) progs)
      [ "cmdOpen"; "cmdClose"; "cmdRead"; "cmdWrite"; "cmdDup" ]
  in
  let run_asp memo =
    let config =
      { asp_config with Provmark.Config.opts = { Gmatch.Match_opts.default with memo } }
    in
    Asp.Memo.clear ();
    Asp.Memo.reset_stats ();
    let _, t = timed (fun () -> Provmark.Parallel_runner.run_all ~jobs:1 config asp_subset) in
    t
  in
  let t_cold = run_asp false in
  let t_warm = run_asp true in
  Printf.printf "\nASP backend, %d benchmarks: cache off %.2fs, cache on %.2fs (%.2fx)\n"
    (List.length asp_subset) t_cold t_warm (t_cold /. t_warm);
  print_string
    (Provmark.Report.cache_stats_lines
       (List.map
          (fun (tag, { Asp.Memo.hits; misses }) -> (tag, hits, misses))
          (Asp.Memo.stats ())));
  Asp.Memo.clear ();
  Asp.Memo.reset_stats ()

(* ------------------------------------------------------------------ *)
(* match-scale: the matching pipeline on synthetic graph pairs          *)
(* ------------------------------------------------------------------ *)

(* Section merging lives in Bench_gen.json_update_file so the tests can
   reuse the same discipline; these are just the bench-local spellings. *)
let bench_json_update_in file key value =
  Provmark.Bench_gen.json_update_file ~file ~key value

let bench_json_update key value = bench_json_update_in "BENCH_match_scale.json" key value

(* Sweeps Bench_gen.match_pair over node counts and, for each prune
   setting, grounds and solves the similarity and generalization
   instances with per-stage timing, grounded-atom counts and solver
   effort counters.  Writes BENCH_match_scale.json next to the cwd so
   CI can archive the trend. *)
let match_scale_rows ~sizes =
  let tasks =
    [
      ("similarity", Gmatch.Asp_backend.Similarity, false);
      ("generalization", Gmatch.Asp_backend.Generalization, true);
    ]
  in
  List.concat_map
    (fun nodes ->
      let g1, g2 = Provmark.Bench_gen.match_pair ~nodes ~seed:(41 + nodes) in
      List.concat_map
        (fun (task_name, task, find_optimal) ->
          List.map
            (fun pruned ->
              let (program, facts), t_prepare =
                timed (fun () -> Gmatch.Asp_backend.instance ~prune:pruned task g1 g2)
              in
              let rules = Asp.Parser.parse_program program in
              let ground, t_ground = timed (fun () -> Asp.Ground.ground rules facts) in
              let h_atoms =
                List.length (Asp.Ground.atoms_with_pred ground Asp.Listings.matching_predicate)
              in
              Asp.Solver.reset_stats ();
              let outcome, t_solve = timed (fun () -> Asp.Solver.solve ~find_optimal ground) in
              let stats = Asp.Solver.stats () in
              let status, cost =
                match outcome with
                | Asp.Solver.Model { cost; _ } -> ("model", cost)
                | Asp.Solver.Unsat -> ("unsat", -1)
                | Asp.Solver.Unknown -> ("unknown", -1)
              in
              ( nodes,
                task_name,
                pruned,
                t_prepare +. t_ground,
                t_solve,
                ground.Asp.Ground.atom_count,
                h_atoms,
                stats.Asp.Solver.propagations,
                stats.Asp.Solver.decisions,
                status,
                cost ))
            [ false; true ])
        tasks)
    sizes

let match_scale_run ~sizes =
  section "match-scale: matching pipeline on synthetic graph pairs (pruned vs unpruned)";
  let rows = match_scale_rows ~sizes in
  Printf.printf "%-6s %-15s %-8s %10s %10s %8s %8s %12s %10s %-8s %s\n" "nodes" "task" "pruned"
    "ground(s)" "solve(s)" "atoms" "h-atoms" "propagations" "decisions" "status" "cost";
  List.iter
    (fun (nodes, task, pruned, tg, ts, atoms, h, props, decs, status, cost) ->
      Printf.printf "%-6d %-15s %-8b %10.4f %10.4f %8d %8d %12d %10d %-8s %d\n" nodes task
        pruned tg ts atoms h props decs status cost)
    rows;
  (* The headline acceptance number: pruning must shrink the grounded
     h/2 search space at every size. *)
  List.iter
    (fun (nodes, task, pruned, _, _, _, h, _, _, _, _) ->
      if (not pruned) && task = "generalization" then
        let pruned_h =
          List.find_map
            (fun (n', t', p', _, _, _, h', _, _, _, _) ->
              if n' = nodes && t' = task && p' then Some h' else None)
            rows
        in
        match pruned_h with
        | Some h' ->
            Printf.printf "h-atom reduction at %d nodes: %d -> %d (%.1fx)\n" nodes h h'
              (float_of_int h /. float_of_int (max 1 h'))
        | None -> ())
    rows;
  bench_json_update "rows"
    (Minijson.Json.Array
       (List.map
          (fun (nodes, task, pruned, tg, ts, atoms, h, props, decs, status, cost) ->
            Minijson.Json.Object
              [
                ("nodes", Minijson.Json.Number (float_of_int nodes));
                ("task", Minijson.Json.String task);
                ("pruned", Minijson.Json.Bool pruned);
                ("ground_s", Minijson.Json.Number tg);
                ("solve_s", Minijson.Json.Number ts);
                ("atoms", Minijson.Json.Number (float_of_int atoms));
                ("h_atoms", Minijson.Json.Number (float_of_int h));
                ("propagations", Minijson.Json.Number (float_of_int props));
                ("decisions", Minijson.Json.Number (float_of_int decs));
                ("status", Minijson.Json.String status);
                ("cost", Minijson.Json.Number (float_of_int cost));
              ])
          rows))

let match_scale () = match_scale_run ~sizes:[ 4; 6; 8; 10; 12 ]
let match_scale_quick () = match_scale_run ~sizes:[ 4; 6; 8 ]

(* ------------------------------------------------------------------ *)
(* canon: the canonical-form fast path                                  *)
(* ------------------------------------------------------------------ *)

(* Two measurements per node count:
   - bypass: an isomorphic (purely renamed) pair solved cold through
     the ASP backend vs decided by canonical digest (including the
     cost of computing both forms from a cleared cache);
   - rename-invariant memo: a property-perturbed pair (cost > 0, so the
     bypass cannot answer it) solved once and then re-solved under
     fresh names — canonical instance keys hit, raw keys miss. *)
let canon_run ~sizes =
  section "canon: canonical-form fast path (solver bypass, rename-invariant memo)";
  (* The solve memo stays out of the timed solves; the memo rows turn it
     on explicitly. *)
  let no_memo canon = { Gmatch.Match_opts.default with canon; memo = false } in
  let cost = function
    | None -> -1
    | Some (m : Gmatch.Matching.t) -> m.Gmatch.Matching.cost
  in
  Printf.printf "%-6s %12s %12s %10s\n" "nodes" "cold(s)" "bypass(s)" "speedup";
  let bypass_rows =
    List.map
      (fun nodes ->
        let g1, _ = Provmark.Bench_gen.match_pair ~nodes ~seed:(41 + nodes) in
        let g2 = Pgraph.Graph.map_ids (fun id -> "r:" ^ id) g1 in
        (* Best of three: sub-millisecond timings at the small sizes
           are dominated by allocator noise otherwise.  The canon
           cache is cleared before every bypass run, so its timing
           always includes computing both canonical forms. *)
        let best_of f =
          let vt = List.init 3 (fun _ -> timed f) in
          (fst (List.hd vt), List.fold_left (fun acc (_, t) -> Float.min acc t) infinity vt)
        in
        let cold, t_cold =
          best_of (fun () ->
              Gmatch.Engine.generalization_matching ~opts:(no_memo false)
                ~backend:Gmatch.Engine.Asp g1 g2)
        in
        let fast, t_fast =
          best_of (fun () ->
              Pgraph.Canon.clear ();
              Gmatch.Engine.generalization_matching ~opts:(no_memo true)
                ~backend:Gmatch.Engine.Asp g1 g2)
        in
        if cost cold <> cost fast then
          failwith "canon bench: bypass disagrees with cold solve";
        let speedup = t_cold /. Float.max 1e-9 t_fast in
        Printf.printf "%-6d %12.5f %12.6f %9.1fx\n" nodes t_cold t_fast speedup;
        (nodes, t_cold, t_fast, speedup))
      sizes
  in
  Printf.printf "\n%-6s %26s %26s\n" "nodes" "renamed hits (canon on)" "renamed hits (canon off)";
  let memo_rows =
    List.map
      (fun nodes ->
        let g1, g2 = Provmark.Bench_gen.match_pair ~nodes ~seed:(41 + nodes) in
        let renamed p g = Pgraph.Graph.map_ids (fun id -> p ^ id) g in
        let hits canon =
          let opts = { Gmatch.Match_opts.default with canon } in
          Asp.Memo.clear ();
          Asp.Memo.reset_stats ();
          ignore (Gmatch.Asp_backend.iso_min_cost ~opts g1 g2);
          ignore (Gmatch.Asp_backend.iso_min_cost ~opts (renamed "a:" g1) (renamed "b:" g2));
          match List.assoc_opt "generalization" (Asp.Memo.stats ()) with
          | Some s -> s.Asp.Memo.hits
          | None -> 0
        in
        let h_on = hits true and h_off = hits false in
        Printf.printf "%-6d %26d %26d\n" nodes h_on h_off;
        (nodes, h_on, h_off))
      sizes
  in
  let num f = Minijson.Json.Number f in
  let int_j n = num (float_of_int n) in
  bench_json_update "canon"
    (Minijson.Json.Object
       [
         ( "bypass",
           Minijson.Json.Array
             (List.map
                (fun (nodes, t_cold, t_fast, speedup) ->
                  Minijson.Json.Object
                    [
                      ("nodes", int_j nodes);
                      ("cold_solve_s", num t_cold);
                      ("canon_bypass_s", num t_fast);
                      ("speedup", num speedup);
                    ])
                bypass_rows) );
         ( "memo",
           Minijson.Json.Array
             (List.map
                (fun (nodes, h_on, h_off) ->
                  Minijson.Json.Object
                    [
                      ("nodes", int_j nodes);
                      ("renamed_hits_canon_on", int_j h_on);
                      ("renamed_hits_canon_off", int_j h_off);
                    ])
                memo_rows) );
       ]);
  Asp.Memo.clear ();
  Asp.Memo.reset_stats ()

let canon_bench () = canon_run ~sizes:[ 4; 6; 8; 10; 12 ]
let canon_quick () = canon_run ~sizes:[ 4; 8; 12 ]

(* ------------------------------------------------------------------ *)
(* corpus-scale: pipeline stage costs on ProvGen graphs past the        *)
(* match-scale sweep's 12 nodes                                         *)
(* ------------------------------------------------------------------ *)

(* Where do the stage costs diverge as the target grows?  match-scale
   stops at 12 nodes because it *solves*; this sweep grounds the
   (pruned) similarity instance, measures the per-graph stage costs
   around it — fingerprint, canonical form, serialization, the
   PROV-JSON parse and the artifact-store write — on generator pairs up to
   two orders of magnitude larger, and then actually *matches* each
   pair through the segmented pruned-ASP path: the whole instance is
   never solved, only the plan's segments are, so grounded-atom counts
   per solve are bounded by the largest segment rather than the pair. *)
type corpus_row = {
  cr_nodes : int;
  cr_edges : int;
  cr_generate_s : float;
  cr_fingerprint_s : float;
  cr_canon_s : float;
  cr_ground_s : float;
  cr_atoms : int;
  cr_serialize_s : float;
  cr_parse_s : float;
  cr_store_s : float;
  cr_match_s : float;
  cr_match_ok : bool;
  cr_propagations : int;
  cr_decisions : int;
  cr_segments : int;
  cr_max_segment_nodes : int;
  cr_segment_atoms : int;  (** largest per-segment grounded instance *)
}

let corpus_scale_run ~sizes =
  section "corpus-scale: stage costs on ProvGen graphs (fingerprint/canon/ground/parse/store/match)";
  let store_dir = Filename.concat (Filename.get_temp_dir_name ()) "provmark-bench-store" in
  let store = Provmark.Artifact_store.create ~dir:store_dir in
  (* The match column: floor at zero so every size decomposes (no pair
     is ever solved whole), canon off so the digest bypass cannot
     answer without solving. *)
  let match_opts = { Gmatch.Match_opts.default with canon = false; segment_min_nodes = Some 0 } in
  let rows =
    List.map
      (fun nodes ->
        let spec = Pgraph.Provgen.default_spec ~nodes in
        let (g1, g2), t_generate =
          timed (fun () -> Pgraph.Provgen.match_pair ~seed:(41 + nodes) spec)
        in
        let _, t_fingerprint = timed (fun () -> Pgraph.Fingerprint.of_graph g1) in
        Pgraph.Canon.clear ();
        let _, t_canon = timed (fun () -> Pgraph.Canon.digest g1) in
        let (program, facts), t_instance =
          timed (fun () -> Gmatch.Asp_backend.instance Gmatch.Asp_backend.Similarity g1 g2)
        in
        let rules = Asp.Parser.parse_program program in
        let ground, t_ground = timed (fun () -> Asp.Ground.ground rules facts) in
        let text, t_serialize = timed (fun () -> Recorders.Provjson.to_string g1) in
        let _, t_parse = timed (fun () -> Recorders.Provjson.of_string text) in
        let key =
          Provmark.Artifact_store.generated_input_key ~generator:"bench"
            ~spec:(Pgraph.Provgen.spec_to_string spec) ~seed:(41 + nodes) ~run:1
            ~format:"provjson"
        in
        let _, t_store = timed (fun () -> Provmark.Artifact_store.write store ~stage:"corpus" ~key text) in
        (* Plan the pair to size the per-segment grounded instances
           (the bound the segmented solver actually pays), then run
           the segmented pruned-ASP similarity match. *)
        let segments, max_segment_nodes, segment_atoms =
          match Pgraph.Summarize.plan g1 g2 with
          | Pgraph.Summarize.Segmented p ->
              let seg_atoms =
                List.fold_left
                  (fun acc (s : Pgraph.Summarize.segment) ->
                    let program, facts =
                      Gmatch.Asp_backend.instance Gmatch.Asp_backend.Similarity
                        s.Pgraph.Summarize.left s.Pgraph.Summarize.right
                    in
                    let rules = Asp.Parser.parse_program program in
                    max acc (Asp.Ground.ground rules facts).Asp.Ground.atom_count)
                  0 p.Pgraph.Summarize.segments
              in
              ( List.length p.Pgraph.Summarize.segments,
                Pgraph.Summarize.max_segment_nodes p,
                seg_atoms )
          | Pgraph.Summarize.Whole | Pgraph.Summarize.Mismatch ->
              (0, Pgraph.Graph.node_count g1, ground.Asp.Ground.atom_count)
        in
        Asp.Solver.reset_stats ();
        let ok, t_match =
          timed (fun () -> Gmatch.Engine.similar ~opts:match_opts ~backend:Gmatch.Engine.Asp g1 g2)
        in
        let sstats = Asp.Solver.stats () in
        {
          cr_nodes = nodes;
          cr_edges = Pgraph.Graph.edge_count g1;
          cr_generate_s = t_generate;
          cr_fingerprint_s = t_fingerprint;
          cr_canon_s = t_canon;
          cr_ground_s = t_instance +. t_ground;
          cr_atoms = ground.Asp.Ground.atom_count;
          cr_serialize_s = t_serialize;
          cr_parse_s = t_parse;
          cr_store_s = t_store;
          cr_match_s = t_match;
          cr_match_ok = ok;
          cr_propagations = sstats.Asp.Solver.propagations;
          cr_decisions = sstats.Asp.Solver.decisions;
          cr_segments = segments;
          cr_max_segment_nodes = max_segment_nodes;
          cr_segment_atoms = segment_atoms;
        })
      sizes
  in
  Printf.printf "%-6s %-7s %10s %10s %10s %9s %10s %10s %8s %6s %8s %9s %12s %10s\n" "nodes"
    "edges" "gen(s)" "fp(s)" "ground(s)" "atoms" "parse(s)" "match(s)" "segs" "maxseg"
    "segatoms" "ok" "propagations" "decisions";
  List.iter
    (fun r ->
      Printf.printf "%-6d %-7d %10.4f %10.4f %10.4f %9d %10.4f %10.4f %8d %6d %8d %9b %12d %10d\n"
        r.cr_nodes r.cr_edges r.cr_generate_s r.cr_fingerprint_s r.cr_ground_s r.cr_atoms
        r.cr_parse_s r.cr_match_s r.cr_segments r.cr_max_segment_nodes
        r.cr_segment_atoms r.cr_match_ok r.cr_propagations r.cr_decisions)
    rows;
  let num f = Minijson.Json.Number f in
  bench_json_update "scale"
    (Minijson.Json.Array
       (List.map
          (fun r ->
            Minijson.Json.Object
              [
                ("nodes", num (float_of_int r.cr_nodes));
                ("edges", num (float_of_int r.cr_edges));
                ("generate_s", num r.cr_generate_s);
                ("fingerprint_s", num r.cr_fingerprint_s);
                ("canon_s", num r.cr_canon_s);
                ("ground_s", num r.cr_ground_s);
                ("atoms", num (float_of_int r.cr_atoms));
                ("serialize_s", num r.cr_serialize_s);
                ("parse_s", num r.cr_parse_s);
                ("store_write_s", num r.cr_store_s);
                ("match_s", num r.cr_match_s);
                ("match_ok", Minijson.Json.Bool r.cr_match_ok);
                ("propagations", num (float_of_int r.cr_propagations));
                ("decisions", num (float_of_int r.cr_decisions));
                ("segments", num (float_of_int r.cr_segments));
                ("max_segment_nodes", num (float_of_int r.cr_max_segment_nodes));
                ("segment_atoms", num (float_of_int r.cr_segment_atoms));
              ])
          rows))

let corpus_scale () = corpus_scale_run ~sizes:[ 16; 32; 64; 128; 256; 512 ]
let corpus_scale_quick () = corpus_scale_run ~sizes:[ 16; 32; 64 ]

(* ------------------------------------------------------------------ *)
(* segment: the hierarchical matching prepass in isolation              *)
(* ------------------------------------------------------------------ *)

(* How far does the quotient prepass carry the exact matcher?  For each
   size the ProvGen match pair is planned, every segment's
   generalization instance is ground separately (the whole-pair
   grounding is the baseline the decomposition is supposed to beat —
   measured only while it stays tractable), and the full segmented
   optimal solve — per-segment ASP solves stitched into one verified
   whole-graph witness — is timed with solver-effort counters. *)
let segment_run ~sizes =
  section "segment: hierarchical matching prepass (quotient plan, per-segment grounding, stitched ASP solve)";
  (* canon off: the digest bypass would answer these pairs without ever
     reaching the solver *)
  let opts = { Gmatch.Match_opts.default with canon = false; segment_min_nodes = Some 0 } in
  let rows =
    List.map
      (fun nodes ->
        let spec = Pgraph.Provgen.default_spec ~nodes in
        let g1, g2 = Pgraph.Provgen.match_pair ~seed:(41 + nodes) spec in
        let outcome, t_plan = timed (fun () -> Pgraph.Summarize.plan g1 g2) in
        let forced, nsegs, pieces, maxseg, frontier, seg_atoms_sum, seg_atoms_max, t_seg_ground
            =
          match outcome with
          | Pgraph.Summarize.Segmented p ->
              let atoms, t =
                timed (fun () ->
                    List.map
                      (fun (s : Pgraph.Summarize.segment) ->
                        let program, facts =
                          Gmatch.Asp_backend.instance Gmatch.Asp_backend.Generalization
                            s.Pgraph.Summarize.left s.Pgraph.Summarize.right
                        in
                        let rules = Asp.Parser.parse_program program in
                        (Asp.Ground.ground rules facts).Asp.Ground.atom_count)
                      p.Pgraph.Summarize.segments)
              in
              ( List.length p.Pgraph.Summarize.forced_nodes,
                List.length p.Pgraph.Summarize.segments,
                List.fold_left
                  (fun a (s : Pgraph.Summarize.segment) -> a + s.Pgraph.Summarize.pieces)
                  0 p.Pgraph.Summarize.segments,
                Pgraph.Summarize.max_segment_nodes p,
                p.Pgraph.Summarize.frontier_edges,
                List.fold_left ( + ) 0 atoms,
                List.fold_left max 0 atoms,
                t )
          | Pgraph.Summarize.Whole ->
              (0, 0, 0, Pgraph.Graph.node_count g1, 0, 0, 0, 0.)
          | Pgraph.Summarize.Mismatch -> (0, 0, 0, 0, 0, 0, 0, 0.)
        in
        (* the avoided cost: grounding the whole generalization
           instance, which past 256 nodes stops being bench-friendly *)
        let whole_atoms, t_whole_ground =
          if nodes <= 256 then
            let program, facts =
              Gmatch.Asp_backend.instance Gmatch.Asp_backend.Generalization g1 g2
            in
            let rules = Asp.Parser.parse_program program in
            let ground, t = timed (fun () -> Asp.Ground.ground rules facts) in
            (ground.Asp.Ground.atom_count, t)
          else (-1, -1.)
        in
        Asp.Solver.reset_stats ();
        Gmatch.Engine.reset_segment_stats ();
        let m, t_solve =
          timed (fun () ->
              Gmatch.Engine.generalization_matching ~opts ~backend:Gmatch.Engine.Asp g1 g2)
        in
        let stats = Asp.Solver.stats () in
        let solves = Gmatch.Engine.segment_solves () in
        let status, cost =
          match m with
          | Some m -> ("model", m.Gmatch.Matching.cost)
          | None -> ("none", -1)
        in
        ( nodes,
          t_plan,
          forced,
          nsegs,
          pieces,
          maxseg,
          frontier,
          seg_atoms_sum,
          seg_atoms_max,
          t_seg_ground,
          whole_atoms,
          t_whole_ground,
          t_solve,
          solves,
          stats.Asp.Solver.propagations,
          stats.Asp.Solver.decisions,
          status,
          cost ))
      sizes
  in
  Printf.printf "%-6s %8s %7s %5s %7s %7s %9s %10s %10s %11s %10s %9s %7s %12s %10s %-6s %s\n"
    "nodes" "plan(s)" "forced" "segs" "pieces" "maxseg" "segatoms" "maxsegat" "wholeat"
    "segground(s)" "solve(s)" "segsolve" "frontier" "propagations" "decisions" "status" "cost";
  List.iter
    (fun (nodes, tp, forced, nsegs, pieces, maxseg, frontier, sa, sam, tsg, wa, _twg, ts, solves,
          props, decs, status, cost) ->
      Printf.printf "%-6d %8.4f %7d %5d %7d %7d %9d %10d %10d %11.4f %10.4f %9d %7d %12d %10d %-6s %d\n"
        nodes tp forced nsegs pieces maxseg sa sam wa tsg ts solves frontier props decs status cost)
    rows;
  let num f = Minijson.Json.Number f in
  bench_json_update "segment"
    (Minijson.Json.Array
       (List.map
          (fun (nodes, tp, forced, nsegs, pieces, maxseg, frontier, sa, sam, tsg, wa, twg, ts,
                solves, props, decs, status, cost) ->
            Minijson.Json.Object
              [
                ("nodes", num (float_of_int nodes));
                ("plan_s", num tp);
                ("forced_nodes", num (float_of_int forced));
                ("segments", num (float_of_int nsegs));
                ("pieces", num (float_of_int pieces));
                ("max_segment_nodes", num (float_of_int maxseg));
                ("frontier_edges", num (float_of_int frontier));
                ("segment_atoms_sum", num (float_of_int sa));
                ("segment_atoms_max", num (float_of_int sam));
                ("segment_ground_s", num tsg);
                ("whole_atoms", num (float_of_int wa));
                ("whole_ground_s", num twg);
                ("solve_s", num ts);
                ("segment_solves", num (float_of_int solves));
                ("propagations", num (float_of_int props));
                ("decisions", num (float_of_int decs));
                ("status", Minijson.Json.String status);
                ("cost", num (float_of_int cost));
              ])
          rows))

let segment_bench () = segment_run ~sizes:[ 128; 256; 512; 1024 ]
let segment_quick () = segment_run ~sizes:[ 64; 128 ]

(* ------------------------------------------------------------------ *)
(* planner: the native cascade's delta re-solve fast path              *)
(* ------------------------------------------------------------------ *)

(* Canon stays on and the leg replays transient-only trials of one
   structure — the serve daemon's steady-state shape — comparing cold
   solves (VF2 called directly, and the incremental backend) against
   the [direct] backend's cascade, whose delta path certifies trial 1
   with the rigidity refinement and lets trials 2..N ride the cached
   verdict.  Pairs at or above the segmentation threshold skip delta
   and take the segment plan instead.  It merges one [planner] object
   into BENCH_match_scale.json: per-size rows plus the global delta
   hit rate. *)
let planner_run ~sizes =
  section "planner: the direct cascade's delta re-solve vs cold solves";
  let num f = Minijson.Json.Number f in
  Gmatch.Incremental.reset_delta ();
  let gen_rows =
    List.map
      (fun nodes ->
        let g = Provmark.Bench_gen.rigid_trace ~nodes ~seed:(41 + nodes) in
        let trial k = Provmark.Bench_gen.transient_variant ~seed:(1000 + (nodes * 17) + k) g in
        let trials = 5 in
        let cold solve =
          let total = ref 0. in
          for k = 1 to trials do
            let v = trial k in
            let m, t = timed (fun () -> solve g v) in
            ignore m;
            total := !total +. t
          done;
          !total /. float_of_int trials
        in
        let t_vf2 = cold Gmatch.Vf2.iso_min_cost in
        let t_incr =
          cold (Gmatch.Engine.generalization_matching ~backend:Gmatch.Engine.Incremental)
        in
        Gmatch.Incremental.reset_delta ();
        let cascade k =
          snd
            (timed (fun () ->
                 Gmatch.Engine.generalization_matching ~backend:Gmatch.Engine.Direct g (trial k)))
        in
        let t_first = cascade 1 in
        let t_warm =
          let total = ref 0. in
          for k = 2 to trials do
            total := !total +. cascade k
          done;
          !total /. float_of_int (trials - 1)
        in
        let certified, fallbacks, cache_hits = Gmatch.Incremental.delta_stats () in
        let best_cold = Float.min t_vf2 t_incr in
        let speedup = if t_warm > 0. then best_cold /. t_warm else 0. in
        (* the acceptance ratio: warm delta trials vs a cold solve
           of the same pair (trial 1 pays the rigidity refinement,
           trials 2..N ride the cached verdict) *)
        let cold_over_warm = if t_warm > 0. then t_first /. t_warm else 0. in
        (nodes, t_vf2, t_incr, t_first, t_warm, speedup, cold_over_warm, certified, fallbacks,
         cache_hits))
      sizes
  in
  Printf.printf "generalization: transient-only trials (canon on, delta path live)\n";
  Printf.printf "%-6s %12s %12s %12s %12s %9s %9s %9s %9s %9s\n" "nodes" "vf2(s)" "incr(s)"
    "direct1(s)" "directN(s)" "speedup" "cold/warm" "certified" "fallback" "cachehit";
  List.iter
    (fun (nodes, tv, ti, tf, tw, sp, cw, cert, fall, hits) ->
      Printf.printf "%-6d %12.6f %12.6f %12.6f %12.6f %9.1f %9.1f %9d %9d %9d\n" nodes tv ti tf
        tw sp cw cert fall hits)
    gen_rows;
  let d_cert = List.fold_left (fun a (_, _, _, _, _, _, _, c, _, _) -> a + c) 0 gen_rows in
  let d_fall = List.fold_left (fun a (_, _, _, _, _, _, _, _, f, _) -> a + f) 0 gen_rows in
  let hit_rate =
    if d_cert + d_fall > 0 then float_of_int d_cert /. float_of_int (d_cert + d_fall) else 0.
  in
  Printf.printf "\ndelta certified %d, fallbacks %d (hit rate %.3f)\n" d_cert d_fall hit_rate;
  bench_json_update "planner"
    (Minijson.Json.Object
       [
         ( "generalization",
           Minijson.Json.Array
             (List.map
                (fun (nodes, tv, ti, tf, tw, sp, cw, cert, fall, hits) ->
                  Minijson.Json.Object
                    [
                      ("nodes", num (float_of_int nodes));
                      ("vf2_s", num tv);
                      ("incremental_s", num ti);
                      ("direct_first_s", num tf);
                      ("direct_warm_s", num tw);
                      ("delta_speedup", num sp);
                      ("delta_cold_over_warm", num cw);
                      ("delta_certified", num (float_of_int cert));
                      ("delta_fallbacks", num (float_of_int fall));
                      ("delta_cache_hits", num (float_of_int hits));
                    ])
                gen_rows) );
         ("delta_certified", num (float_of_int d_cert));
         ("delta_fallbacks", num (float_of_int d_fall));
         ("delta_hit_rate", num hit_rate);
       ])

let planner_bench () = planner_run ~sizes:[ 32; 48; 128 ]
let planner_quick () = planner_run ~sizes:[ 16; 32; 64 ]

(* ------------------------------------------------------------------ *)
(* serve-load: concurrent clients against a warm serve daemon          *)
(* ------------------------------------------------------------------ *)

(* Drives an in-process daemon over a temp Unix socket with N client
   domains issuing benchmark requests back to back, and measures
   per-request wall latency plus aggregate throughput.  Two passes over
   the same request set separate the cold cost (first solves populate
   the memo/canon caches) from the warm steady state the daemon exists
   for; a third pass replays the warm set through the wire-level chaos
   driver under a fixed-seed socket fault plan, so BENCH_serve.json
   also records how much throughput survives sick clients.  Results
   merge into BENCH_serve.json. *)

(* The fixed-seed socket plan shared by the faulted serve-load phase
   and the serve-chaos section: deterministic per site, moderate rates
   so most requests still complete. *)
let serve_socket_plan =
  match
    Faults.Plan.of_string
      "seed=11,socket.stall=0.1,socket.torn=0.2,socket.disconnect=0.1,socket.shortwrite=0.2"
  with
  | Ok p -> p
  | Error msg -> failwith msg

let serve_load_run ~clients ~per_client () =
  section
    (Printf.sprintf "serve-load: %d concurrent clients x %d requests against provmark serve"
       clients per_client);
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "provmark_bench_serve_%d.sock" (Unix.getpid ()))
  in
  let endpoint = Serve.Protocol.Unix_socket sock in
  let jobs = 4 in
  let ready = Atomic.make false in
  let daemon =
    Domain.spawn (fun () ->
        Serve.Daemon.run
          ~on_ready:(fun () -> Atomic.set ready true)
          {
            Serve.Daemon.endpoint;
            jobs;
            queue_bound = 4 * clients * per_client;
            store = None;
            trace = None;
            opts = Gmatch.Match_opts.default;
            (* A short idle timeout keeps the stalled-read faults of the
               faulted phase from dominating its wall clock. *)
            limits =
              { Serve.Daemon.default_limits with idle_timeout_s = Some 1.0 };
          })
  in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  let names = Array.of_list (Provmark.Bench_registry.names ()) in
  let request c i =
    {
      Serve.Protocol.id = None;
      op =
        Serve.Protocol.Benchmark
          {
            tool = Recorder.Spade;
            syscall = names.(((c * per_client) + i) mod Array.length names);
            trials = None;
            seed = 1;
            backend = Gmatch.Engine.default_backend;
            result_type = "rb";
          };
    }
  in
  let measure label worker =
    let t0 = Provmark.Trace_span.now_s () in
    let domains = List.init clients (fun c -> Domain.spawn (worker c)) in
    let latencies = List.concat_map Domain.join domains in
    let wall = Provmark.Trace_span.now_s () -. t0 in
    let n = List.length latencies in
    let sorted = Array.of_list (List.sort compare latencies) in
    let pct p = sorted.(min (n - 1) (n * p / 100)) in
    let rps = float_of_int n /. wall in
    Printf.printf "%-7s %8.1f req/s   p50 %7.2f ms   p99 %7.2f ms   (%d requests, %.2fs)\n"
      label rps
      (1000. *. pct 50)
      (1000. *. pct 99)
      n wall;
    (label, n, wall, rps, pct 50, pct 99)
  in
  let phase label =
    measure label (fun c () ->
        Serve.Client.with_connection endpoint (fun conn ->
            List.init per_client (fun i ->
                let s = Provmark.Trace_span.now_s () in
                (match Serve.Client.call conn (request c i) with
                | Ok r when String.equal (Serve.Client.response_status r) "ok" -> ()
                | Ok r -> failwith ("error response: " ^ Minijson.Json.to_string r)
                | Error msg -> failwith msg);
                Provmark.Trace_span.now_s () -. s)))
  in
  let cold = phase "cold" in
  let warm = phase "warm" in
  (* Faulted pass: the warm request set replayed through the wire-level
     chaos driver, one fresh connection per request, under the fixed
     socket plan.  Stalled sends resolve as the daemon's structured 408,
     deliberate disconnects yield no response by design; every other
     request must still answer ok. *)
  Faults.Injector.set_plan (Some serve_socket_plan);
  let ok = Atomic.make 0 and timed_out = Atomic.make 0 and dropped = Atomic.make 0 in
  let faulted =
    measure "faulted" (fun c () ->
        List.init per_client (fun i ->
            let s = Provmark.Trace_span.now_s () in
            (match
               Serve.Client.chaos_call
                 ~site:(Printf.sprintf "bench/c%d/r%d" c i)
                 endpoint (request c i)
             with
            | Serve.Client.Response r
              when String.equal (Serve.Client.response_status r) "ok" ->
                Atomic.incr ok
            | Serve.Client.Response r when Serve.Client.response_error r = Some "timeout" ->
                Atomic.incr timed_out
            | Serve.Client.Response r ->
                failwith ("error response: " ^ Minijson.Json.to_string r)
            | Serve.Client.No_response _ -> Atomic.incr dropped);
            Provmark.Trace_span.now_s () -. s))
  in
  Faults.Injector.set_plan None;
  Printf.printf "        faulted outcomes: %d ok, %d timed out, %d dropped\n"
    (Atomic.get ok) (Atomic.get timed_out) (Atomic.get dropped);
  let stats =
    Serve.Client.with_connection endpoint (fun c ->
        match Serve.Client.call c { Serve.Protocol.id = None; op = Serve.Protocol.Stats } with
        | Ok json -> json
        | Error msg -> failwith msg)
  in
  (try
     Serve.Client.with_connection endpoint (fun c ->
         ignore (Serve.Client.call c { Serve.Protocol.id = None; op = Serve.Protocol.Shutdown }))
   with Unix.Unix_error _ -> ());
  ignore (Domain.join daemon);
  let num f = Minijson.Json.Number f in
  let phase_json ?(extra = []) (label, n, wall, rps, p50, p99) =
    Minijson.Json.Object
      ([
         ("phase", Minijson.Json.String label);
         ("requests", num (float_of_int n));
         ("wall_s", num wall);
         ("req_per_s", num rps);
         ("p50_ms", num (1000. *. p50));
         ("p99_ms", num (1000. *. p99));
       ]
      @ extra)
  in
  let faulted_extra =
    [
      ("plan", Minijson.Json.String (Faults.Plan.to_string serve_socket_plan));
      ("ok", num (float_of_int (Atomic.get ok)));
      ("timed_out", num (float_of_int (Atomic.get timed_out)));
      ("dropped", num (float_of_int (Atomic.get dropped)));
    ]
  in
  bench_json_update_in "BENCH_serve.json" "serve-load"
    (Minijson.Json.Object
       [
         ("clients", num (float_of_int clients));
         ("requests_per_client", num (float_of_int per_client));
         ("jobs", num (float_of_int jobs));
         ( "phases",
           Minijson.Json.Array
             [ phase_json cold; phase_json warm; phase_json ~extra:faulted_extra faulted ] );
         ("memo", Minijson.Json.member "memo" stats);
         ("canon_skips", Minijson.Json.member "canon_skips" stats);
         ("served", Minijson.Json.member "served" stats);
       ])

let serve_load () = serve_load_run ~clients:8 ~per_client:12 ()
let serve_load_quick () = serve_load_run ~clients:4 ~per_client:4 ()

(* ------------------------------------------------------------------ *)
(* serve-chaos: fixed-seed socket faults against a live daemon         *)
(* ------------------------------------------------------------------ *)

(* The chaos gauntlet the CI job runs: 8 concurrent clients abuse an
   in-process daemon under the fixed-seed socket plan, and the section
   asserts the robustness contract rather than just measuring it —
   every unfaulted/torn/short-write response byte-identical to a clean
   call, no crash, and a mid-load SIGTERM that drains and returns
   within its budget. *)
let serve_chaos () =
  section "serve-chaos: fixed-seed socket faults against a live daemon";
  let clients = 8 and per_client = 6 in
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "provmark_bench_chaos_%d.sock" (Unix.getpid ()))
  in
  let endpoint = Serve.Protocol.Unix_socket sock in
  let ready = Atomic.make false in
  let daemon =
    Domain.spawn (fun () ->
        Serve.Daemon.run
          ~on_ready:(fun () -> Atomic.set ready true)
          {
            Serve.Daemon.endpoint;
            jobs = 4;
            queue_bound = 4 * clients * per_client;
            store = None;
            trace = None;
            opts = Gmatch.Match_opts.default;
            limits =
              {
                Serve.Daemon.default_limits with
                idle_timeout_s = Some 1.0;
                drain_s = 10.0;
              };
          })
  in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  let names = Array.of_list (Provmark.Bench_registry.names ()) in
  let syscall c i = names.(((c * per_client) + i) mod Array.length names) in
  let request c i =
    {
      Serve.Protocol.id = None;
      op =
        Serve.Protocol.Benchmark
          {
            tool = Recorder.Spade;
            syscall = syscall c i;
            trials = None;
            seed = 1;
            backend = Gmatch.Engine.default_backend;
            result_type = "rb";
          };
    }
  in
  (* The plan goes up before the reference pass: sharing one process
     with the daemon means its workers also see the plan and append the
     (all-zero, deterministic) fault-outcomes epilogue to every report,
     so the reference must be rendered under the same plan to stay
     byte-comparable.  An out-of-process daemon never sees a client's
     plan — the CI job checks that byte-identity against provmark run.
     Socket faults themselves are wire-only: the reference pass uses
     plain calls and is untouched. *)
  Faults.Injector.set_plan (Some serve_socket_plan);
  (* Clean reference outputs, one per distinct request (also warms the
     memo, so the chaos pass exercises the warm path CI measures). *)
  let reference = Hashtbl.create 64 in
  Serve.Client.with_connection endpoint (fun conn ->
      for c = 0 to clients - 1 do
        for i = 0 to per_client - 1 do
          if not (Hashtbl.mem reference (syscall c i)) then
            match Serve.Client.call conn (request c i) with
            | Ok r when String.equal (Serve.Client.response_status r) "ok" ->
                Hashtbl.add reference (syscall c i) (Serve.Client.response_output r)
            | Ok r -> failwith ("reference request failed: " ^ Minijson.Json.to_string r)
            | Error msg -> failwith msg
        done
      done);
  (* The gauntlet: every request through the chaos driver.  A response
     that claims ok must be byte-identical to the clean reference. *)
  let ok = Atomic.make 0
  and timed_out = Atomic.make 0
  and dropped = Atomic.make 0
  and mismatched = Atomic.make 0 in
  let worker c () =
    for i = 0 to per_client - 1 do
      match
        Serve.Client.chaos_call ~site:(Printf.sprintf "c%d/r%d" c i) endpoint (request c i)
      with
      | Serve.Client.Response r when String.equal (Serve.Client.response_status r) "ok" ->
          let expected = Hashtbl.find reference (syscall c i) in
          if String.equal (Serve.Client.response_output r) expected then Atomic.incr ok
          else Atomic.incr mismatched
      | Serve.Client.Response r when Serve.Client.response_error r = Some "timeout" ->
          Atomic.incr timed_out
      | Serve.Client.Response r ->
          failwith ("unexpected error response: " ^ Minijson.Json.to_string r)
      | Serve.Client.No_response _ -> Atomic.incr dropped
    done
  in
  let domains = List.init clients (fun c -> Domain.spawn (worker c)) in
  List.iter Domain.join domains;
  Faults.Injector.set_plan None;
  Printf.printf "gauntlet: %d ok, %d timed out, %d dropped, %d mismatched\n" (Atomic.get ok)
    (Atomic.get timed_out) (Atomic.get dropped) (Atomic.get mismatched);
  if Atomic.get mismatched > 0 then failwith "chaos gauntlet: faulted responses diverged";
  if Atomic.get ok = 0 then failwith "chaos gauntlet: no request survived";
  (* Daemon still healthy after the abuse? *)
  let stats =
    Serve.Client.with_connection endpoint (fun c ->
        match Serve.Client.call c { Serve.Protocol.id = None; op = Serve.Protocol.Stats } with
        | Ok json -> json
        | Error msg -> failwith msg)
  in
  (* Mid-load SIGTERM: re-load the daemon, then signal our own process
     (the daemon's handler owns SIGTERM for now).  The daemon must
     drain what it accepted and return within its budget. *)
  let stragglers =
    List.init 4 (fun c ->
        Domain.spawn (fun () ->
            try
              Serve.Client.with_connection endpoint (fun conn ->
                  for i = 0 to 2 do
                    ignore (Serve.Client.call conn (request c i))
                  done)
            with Unix.Unix_error _ | Failure _ -> ()))
  in
  Unix.sleepf 0.05;
  let t0 = Provmark.Trace_span.now_s () in
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  let served = Domain.join daemon in
  let drain_wall = Provmark.Trace_span.now_s () -. t0 in
  List.iter Domain.join stragglers;
  Printf.printf "SIGTERM drain: %.2fs (%d compute requests served)\n" drain_wall served;
  if drain_wall > 10.0 +. 2.0 then failwith "chaos gauntlet: drain overran its budget";
  let num f = Minijson.Json.Number f in
  bench_json_update_in "BENCH_serve.json" "serve-chaos"
    (Minijson.Json.Object
       [
         ("clients", num (float_of_int clients));
         ("requests_per_client", num (float_of_int per_client));
         ("plan", Minijson.Json.String (Faults.Plan.to_string serve_socket_plan));
         ("ok", num (float_of_int (Atomic.get ok)));
         ("timed_out", num (float_of_int (Atomic.get timed_out)));
         ("dropped", num (float_of_int (Atomic.get dropped)));
         ("mismatched", num (float_of_int (Atomic.get mismatched)));
         ("sigterm_drain_s", num drain_wall);
         ("served", num (float_of_int served));
         ("daemon_timed_out", Minijson.Json.member "timed_out" stats);
         ("daemon_conn_rejected", Minijson.Json.member "conn_rejected" stats);
       ])

(* ------------------------------------------------------------------ *)

let () =
  let t0 = Provmark.Trace_span.now_s () in
  let full () =
    table1 ();
    let matrix = run_matrix () in
    table2 matrix;
    table3 matrix;
    figure1 matrix;
    figures_5_to_7 matrix;
    figures_8_to_10 ();
    table4 ();
    microbench ();
    ablations ();
    suite_parallel ();
    extension_spade_camflow ();
    extension_config_sweep ();
    extension_scalability_backends ();
    extension_nondet ();
    match_scale ();
    canon_bench ();
    corpus_scale ();
    segment_bench ();
    planner_bench ();
    serve_load ()
  in
  (* [bench/main.exe <section>...] runs just the named sections. *)
  let sections =
    [
      ("suite-parallel", suite_parallel);
      ("ablations", ablations);
      ("microbench", microbench);
      ("scalability", figures_8_to_10);
      ("nondet", extension_nondet);
      ("match-scale", match_scale);
      ("match-scale-quick", match_scale_quick);
      ("canon", canon_bench);
      ("canon-quick", canon_quick);
      ("corpus-scale", corpus_scale);
      ("corpus-scale-quick", corpus_scale_quick);
      ("segment", segment_bench);
      ("segment-quick", segment_quick);
      ("planner", planner_bench);
      ("planner-quick", planner_quick);
      ("serve-load", serve_load);
      ("serve-load-quick", serve_load_quick);
      ("serve-chaos", serve_chaos);
    ]
  in
  (match List.tl (Array.to_list Sys.argv) with
  | [] -> full ()
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name sections with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown bench section %S (known: %s)\n" name
                (String.concat ", " (List.map fst sections));
              exit 2)
        names);
  Printf.printf "\nTotal bench time: %.1fs\n" (Provmark.Trace_span.now_s () -. t0)
