(* ProvMark command-line driver, mirroring the original project's
   fullAutomation.py (single benchmark) and runTests.sh (batch run). *)

open Cmdliner

(* Invalid-configuration errors share one reporting path (and one exit
   code) across subcommands. *)
let invalid_config msg =
  Printf.eprintf "%s\n" msg;
  Provmark.Exit_code.exit Provmark.Exit_code.Invalid_config

let tool_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Recorders.Recorder.tool_of_string s) in
  let print ppf t = Format.pp_print_string ppf (Recorders.Recorder.tool_name t) in
  Arg.conv (parse, print)

let backend_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Gmatch.Engine.backend_of_string s) in
  let print ppf b = Format.pp_print_string ppf (Gmatch.Engine.backend_to_string b) in
  Arg.conv (parse, print)

let tool_arg =
  let doc = "Capture tool: spg (SPADE+Graphviz), opu (OPUS) or cam (CamFlow)." in
  Arg.(required & pos 0 (some tool_conv) None & info [] ~docv:"TOOL" ~doc)

(* A non-positive count is rejected up front: the retry policy would
   otherwise grow it into a count the user never asked for. *)
let trials_arg =
  let doc = "Number of trials per variant (default: per-tool); must be positive." in
  let check = function
    | Some n when n <= 0 -> invalid_config (Printf.sprintf "--trials must be positive (got %d)" n)
    | trials -> trials
  in
  Term.(const check $ Arg.(value & opt (some int) None & info [ "trials"; "t" ] ~docv:"N" ~doc))

let backend_arg =
  let doc = "Graph matching backend: direct (default; the native cascade of sound \
             bypasses: canonical digests, delta witness reuse and segment plans, then \
             the incremental matcher for similarity and VF2 for matchings; auto and \
             vf2 are aliases), asp (the paper's Listing 3/4 specifications through the \
             mini answer-set solver) or incremental (creation-order fast path with \
             exact fallback)." in
  Arg.(value & opt backend_conv Gmatch.Engine.default_backend & info [ "backend" ] ~docv:"B" ~doc)

let seed_arg =
  let doc = "Base seed for transient-value derivation." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for suite execution. Benchmarks fan out over a fixed-size \
     domain pool; results merge in registry order and are byte-identical to a \
     sequential run for the same seed."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let no_cache_arg =
  let doc =
    "Disable the ASP solve memo cache (repeated (program, facts) subproblems are \
     re-grounded and re-solved instead of served from cache)."
  in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let plan_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Faults.Plan.of_string s) in
  let print ppf p = Format.pp_print_string ppf (Faults.Plan.to_string p) in
  Arg.conv (parse, print)

let faults_arg =
  let doc =
    "Deterministic fault plan, as comma-separated key=value pairs: seed=N plus \
     per-tap-point rates recorder.{drop,dup,truncate,garble}, \
     store.{corrupt,partial,eio}, solver.exhaust and \
     socket.{stall,torn,disconnect,shortwrite} (e.g. \
     'seed=7,recorder.truncate=0.2,store.eio=0.1,solver.exhaust=0.3'). Every \
     injection decision is a pure function of the plan seed and the site it \
     perturbs, so a plan reproduces exactly at any $(b,--jobs) level."
  in
  Arg.(value & opt (some plan_conv) None & info [ "faults" ] ~docv:"PLAN" ~doc)

let deadline_arg =
  let doc =
    "Per-stage deadline in seconds (monotonic clock). A stage that overruns its \
     budget fails with a deadline-exceeded diagnosis and is retried like any \
     other stage failure; deadline failures are never cached. Must be finite \
     and non-negative."
  in
  (* Zero is a legal budget (every computed stage overruns it); a
     negative or non-finite one is a typo, not a policy. *)
  let check = function
    | Some d when not (Float.is_finite d && d >= 0.) ->
        invalid_config
          (Printf.sprintf "--deadline must be a finite non-negative number of seconds (got %g)" d)
    | deadline -> deadline
  in
  Term.(const check $ Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc))

let retries_arg =
  let doc =
    "Attempts per benchmark before it is quarantined (default 3). Each retry \
     grows the trial count and perturbs the derivation seed, then the suite \
     moves on; quarantined benchmarks are reported at the end and reflected in \
     the exit code. Must be at least 1."
  in
  let check = function
    | Some n when n < 1 -> invalid_config (Printf.sprintf "--retries must be at least 1 (got %d)" n)
    | retries -> retries
  in
  Term.(const check $ Arg.(value & opt (some int) None & info [ "retries" ] ~docv:"N" ~doc))

let fallback_arg =
  let doc =
    "Automatic fallback to the native VF2 matcher when the ASP solver exhausts \
     its step budget: $(b,on) (default) or $(b,off). Results produced through \
     the fallback are tagged degraded."
  in
  Arg.(value & opt (enum [ ("on", true); ("off", false) ]) true & info [ "fallback" ] ~docv:"on|off" ~doc)

(* The run's matching options: [--no-cache], plus [--fallback] on the
   subcommands that take it.  Every other field keeps its default; the
   non-default paths are reference oracles for the tests, not modes a
   user picks. *)
let opts_arg ~takes_fallback =
  let make no_cache fallback = { Gmatch.Match_opts.default with memo = not no_cache; fallback } in
  if takes_fallback then Term.(const make $ no_cache_arg $ fallback_arg)
  else Term.(const (fun no_cache -> make no_cache true) $ no_cache_arg)

(* Suite epilogue for robustness accounting.  The fault-outcome line and
   quarantine report go to stdout (both are deterministic for a fixed
   plan and -j level; the CI chaos job diffs them); injection counters
   go to stderr with the other operator-facing statistics.  Exit code 3
   reports quarantined benchmarks without having aborted the suite. *)
let finish_run (results : Provmark.Result.t list) =
  print_string (Provmark.Report.suite_epilogue results);
  (match Faults.Injector.injected () with
  | [] -> ()
  | counts ->
      Printf.eprintf "Faults injected: %s\n%!"
        (String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) counts)));
  match Provmark.Exit_code.of_results results with
  | Provmark.Exit_code.Ok -> ()
  | code -> Provmark.Exit_code.exit code

let unknown_benchmark syscall known =
  Printf.eprintf "unknown syscall benchmark %S\nknown benchmarks: %s\n" syscall
    (String.concat " " known);
  Provmark.Exit_code.exit Provmark.Exit_code.Unknown_benchmark

let store_arg =
  let doc =
    "Artifact store directory. Every pipeline stage is keyed by its configuration \
     fingerprint and input digests and its artifact cached here, so re-runs replay \
     cached stages and only recompute downstream of what changed."
  in
  Arg.(value & opt string ".provmark/store" & info [ "store" ] ~docv:"DIR" ~doc)

let no_store_arg =
  let doc = "Disable the artifact store (every stage recomputes)." in
  Arg.(value & flag & info [ "no-store" ] ~doc)

(* The store directory is validated up front (creatable, a directory,
   writable), so a bad --store is one clear error before any benchmark
   runs rather than a failure halfway through the suite. *)
let store_of ~store ~no_store =
  if no_store then None
  else
    match Provmark.Artifact_store.create ~dir:store with
    | s -> Some s
    | exception Sys_error msg -> invalid_config msg

let trace_arg =
  let doc =
    "Write the span tree of every run (per-stage durations, cache hit/miss tags, \
     solver effort counters) as JSON to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* Store statistics and trace confirmations go to stderr: stdout must
   stay byte-identical between cold and warm runs (CI diffs it). *)
let print_store_stats = function
  | None -> ()
  | Some store ->
      let t = Provmark.Artifact_store.totals store in
      let total = t.Provmark.Artifact_store.hits + t.Provmark.Artifact_store.misses in
      if total > 0 then
        Printf.eprintf "Artifact store: %d/%d stage executions replayed (%d%%)\n%!"
          t.Provmark.Artifact_store.hits total
          (100 * t.Provmark.Artifact_store.hits / total)

let write_trace trace (results : Provmark.Result.t list) =
  match trace with
  | None -> ()
  | Some file ->
      let json =
        Minijson.Json.Array
          (List.map (fun r -> Provmark.Trace_span.to_json r.Provmark.Result.span) results)
      in
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc (Minijson.Json.to_string ~pretty:true json);
          Out_channel.output_char oc '\n');
      Printf.eprintf "Trace written to %s\n%!" file

(* The statistics epilogue goes to stderr: its counters depend on what
   a run recomputed (a warm store replays without solving) and on how
   concurrent solves met (coalescing), so on stdout it would break the
   byte identity of results across -j and cold/warm runs. *)
let print_cache_stats () =
  match Provmark.Report.stats_lines () with
  | "" -> ()
  | lines ->
      flush stdout;
      Printf.eprintf "\n%s%!" lines

(* Progress lines may come from any worker domain; serialize them. *)
let progress_mutex = Mutex.create ()

let progress (r : Provmark.Result.t) =
  Mutex.lock progress_mutex;
  Printf.eprintf "%s %s: %s\n%!"
    (Recorders.Recorder.tool_name r.Provmark.Result.tool)
    r.Provmark.Result.syscall
    (Provmark.Result.status_word r);
  Mutex.unlock progress_mutex

let result_type_arg =
  let doc = "Result type: rb (benchmark only), rg (benchmark plus generalized \
             foreground/background graphs), rh (HTML page with rendered graphs, \
             written to finalResult/)." in
  Arg.(value & opt string "rb" & info [ "result-type"; "r" ] ~docv:"TYPE" ~doc)

let config_of ?store ?deadline ?retries ?(opts = Gmatch.Match_opts.default) tool trials backend
    seed =
  let base = Provmark.Config.default tool in
  let retry =
    match retries with
    | None -> base.Provmark.Config.retry
    | Some attempts -> { base.Provmark.Config.retry with Provmark.Config.attempts }
  in
  {
    base with
    Provmark.Config.trials = Option.value trials ~default:base.Provmark.Config.trials;
    backend;
    opts;
    seed;
    store;
    retry;
    deadline_s = deadline;
  }

(* The original ProvMark appends a line of timing to /tmp/time.log for
   each system-call execution (appendix A.6.4); keep the behaviour. *)
let append_time_log (r : Provmark.Result.t) =
  try
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 "/tmp/time.log" in
    output_string oc (Provmark.Report.timing_csv [ r ]);
    close_out oc
  with Sys_error _ -> ()

(* The textual result goes through the same renderer the serve daemon
   embeds in its responses ({!Provmark.Report.run_output}); only the
   time-log append and the rh HTML side effects stay CLI-local. *)
let print_result ~result_type (r : Provmark.Result.t) =
  append_time_log r;
  print_string (Provmark.Report.run_output ~result_type r);
  if String.equal result_type "rh" then (
    let path =
      Printf.sprintf "finalResult/%s_%s.html"
        (String.lowercase_ascii (Recorders.Recorder.tool_name r.Provmark.Result.tool))
        r.Provmark.Result.syscall
    in
    Provmark.Html_report.write_file path (Provmark.Html_report.render_single r);
    Printf.printf "HTML result written to %s\n" path)

(* ------------------------------------------------------------------ *)
(* run: one benchmark                                                  *)
(* ------------------------------------------------------------------ *)

let run_cmd =
  let syscall_arg =
    let doc = "Syscall benchmark to run (e.g. open, rename, vfork)." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"SYSCALL" ~doc)
  in
  let run tool syscall trials backend seed opts result_type store no_store trace faults deadline
      retries =
    Faults.Injector.set_plan faults;
    let store = store_of ~store ~no_store in
    let config = config_of ?store ?deadline ?retries ~opts tool trials backend seed in
    match Provmark.Runner.run_syscall config syscall with
    | Error known -> unknown_benchmark syscall known
    | Ok r ->
        print_result ~result_type r;
        write_trace trace [ r ];
        print_store_stats store;
        finish_run [ r ]
  in
  let term =
    Term.(
      const run $ tool_arg $ syscall_arg $ trials_arg $ backend_arg $ seed_arg
      $ opts_arg ~takes_fallback:true $ result_type_arg $ store_arg $ no_store_arg $ trace_arg
      $ faults_arg $ deadline_arg $ retries_arg)
  in
  Cmd.v (Cmd.info "run" ~doc:"Benchmark a single syscall (like fullAutomation.py).") term

(* ------------------------------------------------------------------ *)
(* batch: all benchmarks, validation matrix                            *)
(* ------------------------------------------------------------------ *)

let batch_cmd =
  let tools_arg =
    let doc = "Tools to benchmark (default: all three)." in
    Arg.(value & opt_all tool_conv Recorders.Recorder.all_tools & info [ "tool" ] ~docv:"TOOL" ~doc)
  in
  let csv_arg =
    let doc = "Also write per-stage timing CSV to this file (sampleResult format)." in
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)
  in
  let run tools trials backend seed jobs opts csv store no_store trace faults deadline retries =
    Faults.Injector.set_plan faults;
    let store = store_of ~store ~no_store in
    let configs =
      List.map (fun tool -> config_of ?store ?deadline ?retries ~opts tool trials backend seed) tools
    in
    let matrix = Provmark.Parallel_runner.run_matrix ~jobs ~on_result:progress configs in
    List.iter (fun (_, results) -> List.iter append_time_log results) matrix;
    print_string (Provmark.Report.validation_matrix matrix);
    let ok, total = Provmark.Report.agreement matrix in
    Printf.printf "\nAgreement with paper Table 2: %d/%d\n" ok total;
    print_cache_stats ();
    write_trace trace (List.concat_map snd matrix);
    print_store_stats store;
    (match csv with
    | None -> ()
    | Some file ->
        let oc = open_out file in
        List.iter (fun (_, results) -> output_string oc (Provmark.Report.timing_csv results)) matrix;
        close_out oc;
        Printf.printf "Timing CSV written to %s\n" file);
    finish_run (List.concat_map snd matrix)
  in
  let term =
    Term.(
      const run $ tools_arg $ trials_arg $ backend_arg $ seed_arg $ jobs_arg
      $ opts_arg ~takes_fallback:true $ csv_arg $ store_arg $ no_store_arg $ trace_arg
      $ faults_arg $ deadline_arg $ retries_arg)
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Benchmark every syscall and print the validation matrix (like runTests.sh).")
    term

(* ------------------------------------------------------------------ *)
(* report: full HTML results page (finalResult/index.html)             *)
(* ------------------------------------------------------------------ *)

let report_cmd =
  let tools_arg =
    let doc = "Tools to include (default: all three)." in
    Arg.(value & opt_all tool_conv Recorders.Recorder.all_tools & info [ "tool" ] ~docv:"TOOL" ~doc)
  in
  let out_arg =
    let doc = "Output HTML file." in
    Arg.(value & opt string "finalResult/index.html" & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let run tools trials backend seed jobs opts out store no_store faults deadline retries =
    Faults.Injector.set_plan faults;
    let store = store_of ~store ~no_store in
    let configs =
      List.map (fun tool -> config_of ?store ?deadline ?retries ~opts tool trials backend seed) tools
    in
    let matrix = Provmark.Parallel_runner.run_matrix ~jobs ~on_result:progress configs in
    List.iter (fun (_, results) -> List.iter append_time_log results) matrix;
    Provmark.Html_report.write_file out (Provmark.Html_report.render matrix);
    Printf.printf "HTML report written to %s\n" out;
    print_store_stats store;
    finish_run (List.concat_map snd matrix)
  in
  let term =
    Term.(
      const run $ tools_arg $ trials_arg $ backend_arg $ seed_arg $ jobs_arg
      $ opts_arg ~takes_fallback:true $ out_arg $ store_arg $ no_store_arg $ faults_arg
      $ deadline_arg $ retries_arg)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Benchmark every syscall and write the HTML results page (the rh result type).")
    term

(* ------------------------------------------------------------------ *)
(* failures: auto-derived failure-case coverage matrix                 *)
(* ------------------------------------------------------------------ *)

let failures_cmd =
  let tools_arg =
    let doc = "Tools to check (default: all three)." in
    Arg.(value & opt_all tool_conv Recorders.Recorder.all_tools & info [ "tool" ] ~docv:"TOOL" ~doc)
  in
  let run tools trials backend seed =
    let variants = Provmark.Bench_gen.failure_variants () in
    Printf.printf "%-12s" "syscall";
    List.iter (fun t -> Printf.printf " %-12s" (Recorders.Recorder.tool_name t)) tools;
    print_newline ();
    List.iter
      (fun (prog : Oskernel.Program.t) ->
        Printf.printf "%-12s" prog.Oskernel.Program.syscall;
        List.iter
          (fun tool ->
            let config = config_of tool trials backend seed in
            let r = Provmark.Runner.run config prog in
            let word =
              match r.Provmark.Result.status with
              | Provmark.Result.Target _ -> "recorded"
              | Provmark.Result.Empty -> "-"
              | Provmark.Result.Failed _ -> "failed"
            in
            Printf.printf " %-12s" word)
          tools;
        print_newline ())
      variants
  in
  let term = Term.(const run $ tools_arg $ trials_arg $ backend_arg $ seed_arg) in
  Cmd.v
    (Cmd.info "failures"
       ~doc:"Derive an access-control failure variant of every eligible benchmark and \
             report which tools record the failed attempt (automating the Section 3.1 \
             use case).")
    term

(* ------------------------------------------------------------------ *)
(* trace: dump the kernel observation streams for a benchmark          *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let syscall_arg =
    let doc = "Syscall benchmark whose streams to dump." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SYSCALL" ~doc)
  in
  let variant_arg =
    let doc = "Program variant: fg (foreground, default) or bg (background)." in
    Arg.(value & opt string "fg" & info [ "variant" ] ~docv:"V" ~doc)
  in
  let stream_arg =
    let doc = "Stream to print: all (default), audit, libc or lsm." in
    Arg.(value & opt string "all" & info [ "stream" ] ~docv:"S" ~doc)
  in
  let run syscall seed variant stream =
    match Provmark.Bench_registry.find syscall with
    | None -> unknown_benchmark syscall (Provmark.Bench_registry.names ())
    | Some prog ->
        let variant =
          if String.equal variant "bg" then Oskernel.Program.Background
          else Oskernel.Program.Foreground
        in
        let trace = Oskernel.Kernel.run ~run_id:seed prog variant in
        Printf.printf "run %d: monitored pid %d, shell pid %d, boot %s\n\n"
          trace.Oskernel.Trace.run_id trace.Oskernel.Trace.monitored_pid
          trace.Oskernel.Trace.shell_pid trace.Oskernel.Trace.boot_id;
        let keep (e : Oskernel.Event.t) =
          match (stream, e) with
          | "all", _ -> true
          | "audit", Oskernel.Event.Audit _ -> true
          | "libc", Oskernel.Event.Libc _ -> true
          | "lsm", Oskernel.Event.Lsm _ -> true
          | _ -> false
        in
        List.iter
          (fun e -> if keep e then Format.printf "%a@." Oskernel.Event.pp e)
          (Oskernel.Trace.merged trace)
  in
  let term = Term.(const run $ syscall_arg $ seed_arg $ variant_arg $ stream_arg) in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a benchmark in the kernel simulator and dump the audit/libc/LSM \
             observation streams.")
    term

(* ------------------------------------------------------------------ *)
(* export: generate the benchmarkProgram/ C sources                    *)
(* ------------------------------------------------------------------ *)

let export_cmd =
  let dir_arg =
    let doc = "Output directory." in
    Arg.(value & opt string "benchmarkProgram" & info [ "dir"; "d" ] ~docv:"DIR" ~doc)
  in
  let run dir =
    let n = Provmark.C_export.export_all ~dir () in
    Printf.printf "wrote %d benchmark programs under %s/\n" n dir
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Generate the per-syscall C benchmark programs (#ifdef TARGET layout) for use              with a real ProvMark deployment.")
    Term.(const run $ dir_arg)

(* ------------------------------------------------------------------ *)
(* corpus: materialize a synthetic corpus tier                         *)
(* ------------------------------------------------------------------ *)

let corpus_cmd =
  let tier_arg =
    let doc =
      "Corpus tier to materialize: light (CI-sized, a few hundred nodes), scaled \
       (thousands), large (tens of thousands) or full (up to 10^5 nodes). Tiers \
       are cumulative: each includes every lighter tier's entries."
    in
    let parse s = Result.map_error (fun e -> `Msg e) (Pgraph.Provgen.tier_of_string s) in
    let print ppf t = Format.pp_print_string ppf (Pgraph.Provgen.tier_name t) in
    Arg.(
      value
      & opt (conv (parse, print)) Pgraph.Provgen.Light
      & info [ "tier" ] ~docv:"TIER" ~doc)
  in
  let dir_arg =
    let doc = "Output directory; the tier lands in DIR/<tier>/." in
    Arg.(value & opt string "corpus" & info [ "dir"; "d" ] ~docv:"DIR" ~doc)
  in
  let format_arg =
    let doc = "Serialization(s) to write: dot, provjson or both." in
    let parse = function
      | "dot" -> Ok [ Provmark.Corpus.Dot ]
      | "provjson" -> Ok [ Provmark.Corpus.Provjson ]
      | "both" -> Ok [ Provmark.Corpus.Dot; Provmark.Corpus.Provjson ]
      | s -> Error (`Msg (Printf.sprintf "unknown format %s (expected dot, provjson or both)" s))
    in
    let print ppf = function
      | [ Provmark.Corpus.Dot ] -> Format.pp_print_string ppf "dot"
      | [ Provmark.Corpus.Provjson ] -> Format.pp_print_string ppf "provjson"
      | _ -> Format.pp_print_string ppf "both"
    in
    Arg.(
      value
      & opt (conv (parse, print)) [ Provmark.Corpus.Dot; Provmark.Corpus.Provjson ]
      & info [ "format" ] ~docv:"F" ~doc)
  in
  (* Like --store, the output directory is validated before generation
     starts: a bad --dir is one clear error up front (exit 2), not a
     crash minutes into a large tier. *)
  let validate_dir dir =
    if Sys.file_exists dir then begin
      if not (Sys.is_directory dir) then
        invalid_config (Printf.sprintf "%s: not a directory" dir)
    end
    else begin
      try Unix.mkdir dir 0o755
      with Unix.Unix_error (e, _, _) ->
        invalid_config
          (Printf.sprintf "%s: cannot create directory (%s)" dir (Unix.error_message e))
    end;
    let probe = Filename.concat dir ".provmark-write-probe" in
    match Out_channel.with_open_bin probe (fun _ -> ()) with
    | () -> ( try Sys.remove probe with Sys_error _ -> ())
    | exception Sys_error msg -> invalid_config (Printf.sprintf "%s: not writable (%s)" dir msg)
  in
  let run tier dir formats seed jobs store no_store =
    let store = store_of ~store ~no_store in
    validate_dir dir;
    let m = Provmark.Corpus.materialize ~jobs ?store ~formats ~dir ~seed tier in
    let files = List.length m.Provmark.Corpus.entries in
    let nodes =
      List.fold_left (fun acc e -> acc + e.Provmark.Corpus.entry_nodes) 0 m.Provmark.Corpus.entries
    in
    Printf.printf "wrote %d corpus files (%d nodes total) under %s/%s/\n" files nodes dir
      (Pgraph.Provgen.tier_name tier);
    match store with
    | None -> ()
    | Some st ->
        let t = Provmark.Artifact_store.totals st in
        Printf.printf "store: %d replayed, %d generated\n" t.Provmark.Artifact_store.hits
          t.Provmark.Artifact_store.misses
  in
  Cmd.v
    (Cmd.info "corpus"
       ~doc:
         "Materialize a ProvGen-style synthetic corpus tier: seeded deterministic \
          provenance graphs serialized to DOT and PROV-JSON with a MANIFEST.json of \
          spec strings and digests. Output bytes are a pure function of (tier, seed) \
          — independent of --jobs — and replay from the artifact store when warm.")
    Term.(
      const run $ tier_arg $ dir_arg $ format_arg $ seed_arg $ jobs_arg $ store_arg $ no_store_arg)

(* ------------------------------------------------------------------ *)
(* match: stand-alone graph matching over serialized graphs            *)
(* ------------------------------------------------------------------ *)

let format_arg =
  let doc = "Graph serialization: dot or provjson (default: from the first file's suffix)." in
  Arg.(value & opt (some string) None & info [ "format" ] ~docv:"F" ~doc)

let read_file file =
  match In_channel.with_open_bin file In_channel.input_all with
  | s -> s
  | exception Sys_error msg -> invalid_config msg

let match_cmd =
  let kind_arg =
    let doc = "Operation: similar, generalize or compare." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"KIND" ~doc)
  in
  let file_a_arg =
    let doc = "First graph file." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE_A" ~doc)
  in
  let file_b_arg =
    let doc = "Second graph file." in
    Arg.(required & pos 2 (some string) None & info [] ~docv:"FILE_B" ~doc)
  in
  let run kind file_a file_b format backend opts =
    let kind =
      match Provmark.Match_op.kind_of_string kind with
      | Ok k -> k
      | Error msg -> invalid_config msg
    in
    let format =
      match format with
      | None -> Provmark.Match_op.format_for_file file_a
      | Some s -> (
          match Provmark.Match_op.format_of_string s with
          | Ok f -> f
          | Error msg -> invalid_config msg)
    in
    let parse file =
      match Provmark.Match_op.parse_graph format (read_file file) with
      | Ok g -> g
      | Error msg -> invalid_config (Printf.sprintf "%s: %s" file msg)
    in
    let ga = parse file_a in
    let gb = parse file_b in
    print_string (Provmark.Match_op.run ~opts ~backend kind ga gb)
  in
  let term =
    Term.(
      const run $ kind_arg $ file_a_arg $ file_b_arg $ format_arg $ backend_arg
      $ opts_arg ~takes_fallback:false)
  in
  Cmd.v
    (Cmd.info "match"
       ~doc:
         "Match two serialized provenance graphs: decide similarity, compute the \
          optimal generalization matching, or embed the first graph into the second. \
          Prints the same text a serve daemon returns for the equivalent request.")
    term

(* ------------------------------------------------------------------ *)
(* serve: warm concurrent benchmark daemon                             *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  let doc =
    "Endpoint to listen on / connect to: a Unix socket path, or HOST:PORT for TCP."
  in
  Arg.(value & opt string ".provmark/serve.sock" & info [ "socket"; "s" ] ~docv:"ENDPOINT" ~doc)

let endpoint_of socket =
  match Serve.Protocol.endpoint_of_string socket with
  | Ok e -> e
  | Error msg -> invalid_config (Printf.sprintf "--socket %s: %s" socket msg)

let serve_cmd =
  let queue_bound_arg =
    let doc =
      "Admission-control bound: maximum benchmark/match requests in flight at once. \
       Requests over the bound are rejected immediately with a structured queue-full \
       (429) error instead of queueing without limit."
    in
    Arg.(
      value
      & opt int Serve.Daemon.default_queue_bound
      & info [ "queue-bound" ] ~docv:"N" ~doc)
  in
  let idle_timeout_arg =
    let doc =
      "Idle/read timeout in seconds (monotonic clock): a connection with no \
       compute in flight that stalls this long is answered with a structured \
       timeout (408) error and closed. 0 disables."
    in
    Arg.(
      value
      & opt float (Option.value Serve.Daemon.default_limits.idle_timeout_s ~default:0.)
      & info [ "idle-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let max_line_bytes_arg =
    let doc =
      "Reject request lines over this many bytes with a structured bad-request \
       (400) error and close the connection."
    in
    Arg.(
      value
      & opt int Serve.Daemon.default_limits.max_line_bytes
      & info [ "max-line-bytes" ] ~docv:"BYTES" ~doc)
  in
  let max_conns_arg =
    let doc =
      "Connection cap: an accept over the cap is sent one overloaded (503) line \
       with a retry hint and closed, and accepting pauses briefly."
    in
    Arg.(
      value
      & opt int Serve.Daemon.default_limits.max_conns
      & info [ "max-conns" ] ~docv:"N" ~doc)
  in
  let drain_arg =
    let doc =
      "Shutdown drain budget in seconds: on a shutdown request, SIGTERM or \
       SIGINT, in-flight work gets this long to finish and flush before \
       stragglers are force-closed."
    in
    Arg.(
      value
      & opt float Serve.Daemon.default_limits.drain_s
      & info [ "drain" ] ~docv:"SECONDS" ~doc)
  in
  let breaker_threshold_arg =
    let doc =
      "Circuit breaker: this many ASP step-limit degradations within one \
       cooldown window shunt subsequent ASP requests to the direct (VF2) \
       backend for the cooldown. 0 disables."
    in
    Arg.(
      value
      & opt int Serve.Daemon.default_limits.breaker_threshold
      & info [ "breaker-threshold" ] ~docv:"N" ~doc)
  in
  let breaker_cooldown_arg =
    let doc = "Circuit-breaker cooldown (and failure-counting window) in seconds." in
    Arg.(
      value
      & opt float Serve.Daemon.default_limits.breaker_cooldown_s
      & info [ "breaker-cooldown" ] ~docv:"SECONDS" ~doc)
  in
  let run socket jobs queue_bound opts store no_store trace deadline idle_timeout max_line_bytes
      max_conns drain breaker_threshold breaker_cooldown =
    let store = store_of ~store ~no_store in
    let endpoint = endpoint_of socket in
    if max_line_bytes <= 0 then invalid_config "--max-line-bytes must be positive";
    if max_conns <= 0 then invalid_config "--max-conns must be positive";
    if drain < 0. then invalid_config "--drain must be non-negative";
    let limits =
      {
        Serve.Daemon.idle_timeout_s = (if idle_timeout <= 0. then None else Some idle_timeout);
        max_line_bytes;
        max_conns;
        drain_s = drain;
        deadline_s = deadline;
        breaker_threshold;
        breaker_cooldown_s = breaker_cooldown;
      }
    in
    let cfg = { Serve.Daemon.endpoint; jobs; queue_bound; store; trace; limits; opts } in
    let on_ready () =
      Printf.eprintf "provmark serve: listening on %s (%d worker%s)\n%!"
        (Serve.Protocol.endpoint_to_string endpoint)
        (max 1 jobs)
        (if max 1 jobs = 1 then "" else "s")
    in
    let served = Serve.Daemon.run ~on_ready cfg in
    Printf.eprintf "provmark serve: shut down after %d compute request%s\n%!" served
      (if served = 1 then "" else "s");
    print_store_stats store
  in
  let term =
    Term.(
      const run $ socket_arg $ jobs_arg $ queue_bound_arg $ opts_arg ~takes_fallback:true
      $ store_arg $ no_store_arg $ trace_arg $ deadline_arg $ idle_timeout_arg $ max_line_bytes_arg $ max_conns_arg $ drain_arg
      $ breaker_threshold_arg $ breaker_cooldown_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the warm benchmark daemon: accept benchmark/match/stats requests from \
          many concurrent clients over a line-delimited JSON protocol, sharing the \
          solve memo, canonical-form cache, artifact store and worker-domain pool \
          across all of them. Responses are byte-identical to the batch CLI's output \
          for the same inputs. Stop it with a shutdown request, SIGTERM or SIGINT \
          (both drain gracefully within $(b,--drain) seconds).")
    term

(* ------------------------------------------------------------------ *)
(* request: one client request against a running daemon                *)
(* ------------------------------------------------------------------ *)

let request_cmd =
  let op_arg =
    let doc = "Request: benchmark SYSCALL, match KIND FILE_A FILE_B, stats, ping or shutdown." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OP" ~doc)
  in
  let rest_arg = Arg.(value & pos_right 0 string [] & info [] ~docv:"ARG") in
  let tool_opt_arg =
    let doc = "Capture tool for benchmark requests (default spg)." in
    Arg.(value & opt tool_conv Recorders.Recorder.Spade & info [ "tool" ] ~docv:"TOOL" ~doc)
  in
  let raw_arg =
    let doc = "Print the raw JSON response line instead of the embedded output text." in
    Arg.(value & flag & info [ "raw" ] ~doc)
  in
  let site_arg =
    let doc =
      "Fault-injection site name for $(b,--faults): the socket-tap decision for \
       this request is a pure function of (plan seed, site), so distinct sites \
       sample distinct faults and the same site replays the same fault."
    in
    Arg.(value & opt string "request" & info [ "site" ] ~docv:"SITE" ~doc)
  in
  let run socket op rest tool trials backend seed result_type format raw faults site =
    let endpoint = endpoint_of socket in
    let req =
      match (op, rest) with
      | "ping", [] -> { Serve.Protocol.id = None; op = Serve.Protocol.Ping }
      | "stats", [] -> { Serve.Protocol.id = None; op = Serve.Protocol.Stats }
      | "shutdown", [] -> { Serve.Protocol.id = None; op = Serve.Protocol.Shutdown }
      | "benchmark", [ syscall ] ->
          {
            Serve.Protocol.id = None;
            op =
              Serve.Protocol.Benchmark
                { tool; syscall; trials; seed; backend; result_type };
          }
      | "match", [ kind; file_a; file_b ] ->
          let kind =
            match Provmark.Match_op.kind_of_string kind with
            | Ok k -> k
            | Error msg -> invalid_config msg
          in
          let format =
            match format with
            | None -> Provmark.Match_op.format_for_file file_a
            | Some s -> (
                match Provmark.Match_op.format_of_string s with
                | Ok f -> f
                | Error msg -> invalid_config msg)
          in
          {
            Serve.Protocol.id = None;
            op =
              Serve.Protocol.Match
                {
                  kind;
                  format;
                  a = read_file file_a;
                  b = read_file file_b;
                  m_backend = Some backend;
                };
          }
      | op, rest ->
          invalid_config
            (Printf.sprintf "bad request %S with %d argument%s (expected: benchmark \
                             SYSCALL | match KIND FILE_A FILE_B | stats | ping | shutdown)"
               op (List.length rest)
               (if List.length rest = 1 then "" else "s"))
    in
    Faults.Injector.set_plan faults;
    let response =
      let plain () =
        match Serve.Client.with_connection endpoint (fun c -> Serve.Client.call c req) with
        | Ok response -> Ok response
        | Error msg -> Error msg
      in
      let chaos () =
        (* Wire-level chaos mode: abuse the socket the way the plan
           prescribes for this site.  A deliberate mid-request hangup
           forecloses a response by design — that is a successful
           injection, not a failure. *)
        match Serve.Client.chaos_call ~site endpoint req with
        | Serve.Client.Response response -> Ok response
        | Serve.Client.No_response msg ->
            Printf.eprintf "provmark request: no response (%s)\n" msg;
            exit 0
      in
      match (if faults = None then plain () else chaos ()) with
      | Ok response -> response
      | Error msg ->
          Printf.eprintf "provmark request: %s\n" msg;
          exit 1
      | exception Unix.Unix_error (e, _, _) ->
          Printf.eprintf "provmark request: cannot connect to %s (%s)\n"
            (Serve.Protocol.endpoint_to_string endpoint)
            (Unix.error_message e);
          exit 1
    in
    if raw then print_endline (Minijson.Json.to_string response)
    else begin
      (match Serve.Client.response_status response with
      | "ok" -> print_string (Serve.Client.response_output response)
      | _ ->
          let str name =
            match Minijson.Json.member name response with
            | Minijson.Json.String s -> s
            | _ -> "?"
          in
          Printf.eprintf "provmark request: %s: %s\n" (str "error") (str "message"));
      exit (Serve.Client.response_exit response)
    end
  in
  let term =
    Term.(
      const run $ socket_arg $ op_arg $ rest_arg $ tool_opt_arg $ trials_arg $ backend_arg
      $ seed_arg $ result_type_arg $ format_arg $ raw_arg $ faults_arg $ site_arg)
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Send one request to a running provmark serve daemon and print the response: \
          the embedded output text (byte-identical to the equivalent run/match \
          subcommand), or the raw JSON line with --raw. Exits with the code the batch \
          CLI would have used. With --faults, the request is sent through the \
          wire-level chaos driver: the plan's socket tap decides (per --site) whether \
          to stall, tear, dribble or abandon the request on the wire.")
    term

(* ------------------------------------------------------------------ *)
(* list: available benchmarks                                          *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    List.iter
      (fun (p : Oskernel.Program.t) ->
        Printf.printf "%d  %-12s %s\n"
          (Provmark.Bench_registry.group_of p.Oskernel.Program.syscall)
          p.Oskernel.Program.syscall p.Oskernel.Program.name)
      Provmark.Bench_registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark programs (Table 1).") Term.(const run $ const ())

let main_cmd =
  let doc = "provenance expressiveness benchmarking (ProvMark reproduction)" in
  Cmd.group (Cmd.info "provmark" ~version:"1.0.0" ~doc) [ run_cmd; batch_cmd; report_cmd; failures_cmd; trace_cmd; export_cmd; corpus_cmd; match_cmd; serve_cmd; request_cmd; list_cmd ]

let () = exit (Cmd.eval main_cmd)
