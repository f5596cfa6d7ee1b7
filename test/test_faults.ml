(* The deterministic fault-injection harness and its graceful-degradation
   answers: plan parsing, seeded injector decisions, per-stage deadlines,
   the ASP->VF2 fallback, retry/backoff accounting in the span tree,
   quarantine reporting, store-fault value preservation and byte
   identity of faulted suites across -j levels. *)

module Plan = Faults.Plan
module Injector = Faults.Injector
module Recorder = Recorders.Recorder
module Config = Provmark.Config
module Res = Provmark.Result

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Every test leaves the process-wide fault plan the way it found it:
   the suites share one binary with the plan in an atomic. *)
let with_plan plan f =
  Injector.set_plan (Some plan);
  Injector.reset_counters ();
  Fun.protect ~finally:(fun () -> Injector.set_plan None) f

let plan_of_string_exn spec =
  match Plan.of_string spec with
  | Ok p -> p
  | Error m -> Alcotest.failf "plan %S rejected: %s" spec m

let config ?(tool = Recorder.Spade) ?(trials = 2) ?(backend = Gmatch.Engine.Direct)
    ?(opts = Gmatch.Match_opts.default) ?store ?deadline ?(retry = Config.default_retry)
    ?(seed = 1) () =
  {
    (Config.default tool) with
    Config.trials;
    backend;
    opts;
    seed;
    store;
    flakiness = 0.;
    retry;
    deadline_s = deadline;
  }

let bench name =
  match Provmark.Bench_registry.find name with
  | Some p -> p
  | None -> Alcotest.failf "benchmark %s missing from registry" name

let tmp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "provmark-faults-%d-%s" (Unix.getpid ()) name)

(* ------------------------------------------------------------------ *)
(* Fault plans                                                         *)
(* ------------------------------------------------------------------ *)

let test_plan_roundtrip () =
  let spec = "seed=7,recorder.truncate=0.25,recorder.garble=0.5,store.eio=0.1,solver.exhaust=1" in
  let p = plan_of_string_exn spec in
  check_int "seed" 7 p.Plan.seed;
  check_int "recorder kinds" 2 (List.length p.Plan.recorder);
  (* The canonical rendering re-parses to the same plan: it participates
     in artifact-store keys, so it must be stable. *)
  check_bool "roundtrip" true (Plan.of_string (Plan.to_string p) = Ok p)

let test_plan_rejects_garbage () =
  let rejected spec =
    match Plan.of_string spec with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "plan %S should have been rejected" spec
  in
  rejected "";
  rejected "seed=x";
  rejected "recorder.nope=0.5";
  rejected "recorder.truncate=1.5";
  rejected "store.eio=-0.1";
  rejected "solver.exhaust";
  rejected "bogus=1"

let test_socket_plan_roundtrip () =
  let spec = "seed=11,socket.stall=0.1,socket.torn=0.2,socket.disconnect=0.1,socket.shortwrite=0.2" in
  let p = plan_of_string_exn spec in
  check_int "socket kinds" 4 (List.length p.Plan.socket);
  check_bool "roundtrip" true (Plan.of_string (Plan.to_string p) = Ok p);
  check_bool "unknown socket kind rejected" true
    (match Plan.of_string "socket.nope=0.5" with Error _ -> true | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Injector decisions                                                  *)
(* ------------------------------------------------------------------ *)

let test_decisions_deterministic () =
  let p = plan_of_string_exn "seed=42,recorder.garble=0.5" in
  List.iter
    (fun rate ->
      List.iter
        (fun site ->
          let a = Injector.decide p ~site ~kind:"k" rate in
          let b = Injector.decide p ~site ~kind:"k" rate in
          check_bool (Printf.sprintf "stable at %s/%g" site rate) a b)
        [ "s1"; "s2"; "s3" ])
    [ 0.; 0.3; 0.7; 1. ];
  check_bool "rate 0 never fires" false (Injector.decide p ~site:"s" ~kind:"k" 0.);
  check_bool "rate 1 always fires" true (Injector.decide p ~site:"s" ~kind:"k" 1.)

let test_decisions_vary_by_site () =
  let p = plan_of_string_exn "seed=42,recorder.garble=0.5" in
  let sites = List.init 64 (fun i -> Printf.sprintf "site-%d" i) in
  let hits =
    List.length (List.filter (fun s -> Injector.decide p ~site:s ~kind:"k" 0.5) sites)
  in
  (* A 0.5 rate over 64 independent sites must hit some and miss some;
     all-or-nothing would mean the site is not in the hash. *)
  check_bool "some fire" true (hits > 0);
  check_bool "some do not" true (hits < 64)

let test_socket_decisions_deterministic () =
  let plan =
    plan_of_string_exn
      "seed=11,socket.stall=0.2,socket.torn=0.3,socket.disconnect=0.1,socket.shortwrite=0.2"
  in
  with_plan plan (fun () ->
      let sites = List.init 64 (fun i -> Printf.sprintf "c%d/r%d" (i mod 8) (i / 8)) in
      (* Same plan, same site, same answer — and across 64 sites the
         moderate rates must both fire and not fire. *)
      let decisions = List.map (fun s -> Injector.socket_fault ~site:s) sites in
      List.iter2
        (fun s d ->
          check_bool (Printf.sprintf "stable at %s" s) true (Injector.socket_fault ~site:s = d))
        sites decisions;
      let firing = List.filter Option.is_some decisions in
      check_bool "some sites faulted" true (firing <> []);
      check_bool "some sites clean" true (List.length firing < List.length sites);
      (* Each decision was counted against the socket tap (the stability
         re-queries above count too, so: at least one per firing site). *)
      check_bool "socket tap counted" true
        (match List.assoc_opt "socket" (Injector.injected ()) with
        | Some n -> n >= List.length firing
        | None -> false);
      (* The auxiliary draws are seeded too: a torn line splits at a
         stable interior offset, short-write chunks are stable and in
         bounds. *)
      let off = Injector.torn_offset plan ~site:"c0/r0" 40 in
      check_int "torn offset stable" off (Injector.torn_offset plan ~site:"c0/r0" 40);
      check_bool "torn offset interior" true (off >= 1 && off < 40);
      List.iter
        (fun i ->
          let n = Injector.short_write_chunk plan ~site:"c0/r0" i in
          check_int "chunk stable" n (Injector.short_write_chunk plan ~site:"c0/r0" i);
          check_bool "chunk in bounds" true (n >= 1 && n <= 7))
        [ 0; 1; 2; 3 ])

let test_perturbations_deterministic () =
  let p = plan_of_string_exn "seed=9,recorder.truncate=1" in
  let text = "digraph g {\n  a;\n  b;\n  a -> b;\n}\n" in
  let t1 = Injector.truncate p ~site:"s" text in
  check_string "truncate deterministic" t1 (Injector.truncate p ~site:"s" text);
  check_bool "truncate shortens" true (String.length t1 < String.length text);
  let g1 = Injector.garble p ~site:"s" text in
  check_string "garble deterministic" g1 (Injector.garble p ~site:"s" text);
  check_bool "garble changes bytes" true (g1 <> text);
  check_int "garble preserves length" (String.length text) (String.length g1);
  let d1 = Injector.drop_line p ~site:"s" text in
  check_bool "drop removes a line" true
    (List.length (String.split_on_char '\n' d1) < List.length (String.split_on_char '\n' text));
  let u1 = Injector.duplicate_line p ~site:"s" text in
  check_bool "duplicate adds a line" true
    (List.length (String.split_on_char '\n' u1) > List.length (String.split_on_char '\n' text))

(* ------------------------------------------------------------------ *)
(* Deadlines                                                           *)
(* ------------------------------------------------------------------ *)

let test_deadline_expiry () =
  let cfg = config ~deadline:0. () in
  let r = Provmark.Runner.run_once cfg (bench "open") in
  match r.Res.status with
  | Res.Failed { stage = "recording"; reason = Res.Deadline_exceeded budget; _ } ->
      (* The diagnosis carries the configured budget, never the measured
         duration — the rendering must be identical across reruns. *)
      check_string "budget rendering" "0s" budget
  | _ -> Alcotest.failf "expected recording deadline failure, got %s" (Res.summary r)

let test_deadline_generous () =
  let r = Provmark.Runner.run_once (config ~deadline:1000. ()) (bench "open") in
  match r.Res.status with
  | Res.Target _ | Res.Empty -> ()
  | Res.Failed _ -> Alcotest.failf "generous deadline failed: %s" (Res.summary r)

let test_deadline_quarantines () =
  let retry = { Config.default_retry with Config.attempts = 2 } in
  let r = Provmark.Runner.run (config ~deadline:0. ~retry ()) (bench "open") in
  check_bool "quarantined" true (Res.quarantined r);
  check_int "both attempts recorded" 2 (Res.attempts r)

(* ------------------------------------------------------------------ *)
(* ASP -> VF2 fallback                                                 *)
(* ------------------------------------------------------------------ *)

let exhaust_plan = "seed=5,solver.exhaust=1"

let test_fallback_degrades_and_matches_direct () =
  let clean = Provmark.Runner.run_once (config ~backend:Gmatch.Engine.Direct ()) (bench "open") in
  let faulted =
    with_plan (plan_of_string_exn exhaust_plan) (fun () ->
        Provmark.Runner.run_once (config ~backend:Gmatch.Engine.Asp ()) (bench "open"))
  in
  check_bool "result is degraded" true (faulted.Res.degraded <> []);
  check_bool "solver tap counted" true (List.mem_assoc "solver" (Injector.injected ()));
  (* Soundness of the fallback: with every solve exhausted, the ASP run
     answered entirely by VF2 must land on the Direct backend's result
     (the two matchers are pinned equal by the differential suite). *)
  match (clean.Res.status, faulted.Res.status) with
  | Res.Target a, Res.Target b ->
      check_bool "same target graph" true (Pgraph.Graph.equal a b)
  | a, b ->
      check_string "same status word" (Res.status_word clean) (Res.status_word faulted);
      ignore (a, b)

let test_fallback_deterministic () =
  let run () =
    with_plan (plan_of_string_exn exhaust_plan) (fun () ->
        Provmark.Runner.run_once (config ~backend:Gmatch.Engine.Asp ()) (bench "open"))
  in
  let r1 = run () and r2 = run () in
  check_string "same summary" (Res.summary r1) (Res.summary r2);
  check_bool "same notes" true (r1.Res.degraded = r2.Res.degraded)

let test_fallback_disabled () =
  let opts = { Gmatch.Match_opts.default with fallback = false } in
  let r =
    with_plan (plan_of_string_exn exhaust_plan) (fun () ->
        Provmark.Runner.run_once (config ~backend:Gmatch.Engine.Asp ~opts ()) (bench "open"))
  in
  (* Without the fallback an exhausted solver degrades nothing — the
     benchmark just fails to find similar pairs; either way nothing
     escapes as an exception. *)
  check_bool "no degradation notes" true (r.Res.degraded = [])

(* ------------------------------------------------------------------ *)
(* Retry accounting and quarantine                                     *)
(* ------------------------------------------------------------------ *)

let quarantine_run () =
  let retry =
    { Config.attempts = 2; trial_growth = 2; backoff_s = 0.001; seed_stride = 101 }
  in
  with_plan (plan_of_string_exn "seed=3,recorder.truncate=1") (fun () ->
      Provmark.Runner.run (config ~retry ()) (bench "open"))

let test_retry_accounting_in_span_tree () =
  let r = quarantine_run () in
  check_bool "quarantined" true (Res.quarantined r);
  let attempts = Provmark.Trace_span.find_all r.Res.span "attempt" in
  check_int "attempt spans" 2 (List.length attempts);
  let tag_of span key =
    match Provmark.Trace_span.tag span key with
    | Some v -> v
    | None -> Alcotest.failf "attempt span missing %s tag" key
  in
  (match attempts with
  | [ a1; a2 ] ->
      check_string "first attempt number" "1" (tag_of a1 "attempt");
      check_string "second attempt number" "2" (tag_of a2 "attempt");
      check_string "base trials" "2" (tag_of a1 "trials");
      check_string "grown trials" "4" (tag_of a2 "trials");
      check_string "backoff recorded" "0.001" (tag_of a2 "backoff_s");
      check_bool "no backoff before first attempt" true
        (Provmark.Trace_span.tag a1 "backoff_s" = None);
      check_bool "failures diagnosed per attempt" true
        (Provmark.Trace_span.tag a1 "failed" <> None
        && Provmark.Trace_span.tag a2 "failed" <> None)
  | _ -> Alcotest.fail "expected exactly two attempt spans")

let test_quarantine_reporting () =
  let r = quarantine_run () in
  let lines = Provmark.Report.quarantine_lines [ r ] in
  check_bool "header present" true
    (String.length lines > 0 && String.sub lines 0 11 = "quarantined");
  check_bool "names the benchmark" true
    (Helpers.contains_substring lines "open" && Helpers.contains_substring lines "2 attempts");
  check_string "fault outcome accounting"
    "fault outcomes: 1 benchmarks, 1 retried, 0 degraded, 1 quarantined"
    (Provmark.Report.fault_outcome_line [ r ]);
  check_string "nothing quarantined renders empty" ""
    (Provmark.Report.quarantine_lines
       [ Provmark.Runner.run_once (config ()) (bench "open") ])

(* ------------------------------------------------------------------ *)
(* Artifact-store faults and validation                                *)
(* ------------------------------------------------------------------ *)

let test_store_validation () =
  let file = tmp_path "not-a-dir" in
  Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc "x");
  (match Provmark.Artifact_store.create ~dir:file with
  | _ -> Alcotest.fail "store over a regular file accepted"
  | exception Sys_error msg ->
      check_bool "error names the path" true (Helpers.contains_substring msg file));
  Sys.remove file;
  (* Nested directories are created up front, so a bad path fails before
     any benchmark runs rather than halfway through the suite. *)
  let dir = Filename.concat (tmp_path "nested") "store" in
  ignore (Provmark.Artifact_store.create ~dir);
  check_bool "directory created" true (Sys.is_directory dir)

let test_store_faults_preserve_values () =
  let clean = Provmark.Runner.run (config ()) (bench "open") in
  let dir = tmp_path "chaos-store" in
  let faulted =
    with_plan
      (plan_of_string_exn "seed=11,store.corrupt=0.5,store.partial=0.5,store.eio=0.5")
      (fun () ->
        let store = Provmark.Artifact_store.create ~dir in
        (* Twice through the same store: whatever survives of the first
           run's cache must replay to the same values. *)
        let r1 = Provmark.Runner.run (config ~store ()) (bench "open") in
        let r2 = Provmark.Runner.run (config ~store ()) (bench "open") in
        check_string "warm replay identical" (Res.summary r1) (Res.summary r2);
        r1)
  in
  (* Store faults are value-preserving by construction: a corrupt or
     torn entry decodes as a miss and the stage recomputes, so the
     benchmark's outcome never changes — only cache effectiveness. *)
  check_string "faulted store changes nothing" (Res.summary clean) (Res.summary faulted);
  check_string "status stable" (Res.status_word clean) (Res.status_word faulted)

(* ------------------------------------------------------------------ *)
(* Byte identity across -j under a fault plan                          *)
(* ------------------------------------------------------------------ *)

let test_parallel_byte_identity_under_faults () =
  let plan =
    plan_of_string_exn "seed=13,recorder.garble=0.3,recorder.truncate=0.2,solver.exhaust=0.5"
  in
  let progs = List.map bench [ "open"; "close"; "read"; "dup" ] in
  let render results =
    String.concat "\n" (List.map Res.summary results)
    ^ "\n" ^ Provmark.Report.fault_outcome_line results
    ^ "\n" ^ Provmark.Report.quarantine_lines results
  in
  let run jobs =
    with_plan plan (fun () ->
        render
          (Provmark.Parallel_runner.run_all ~jobs
             (config ~backend:Gmatch.Engine.Asp ()) progs))
  in
  check_string "-j 1 vs -j 4" (run 1) (run 4)

let () =
  Alcotest.run "faults"
    [
      ( "plan",
        [
          Alcotest.test_case "spec roundtrips" `Quick test_plan_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_plan_rejects_garbage;
          Alcotest.test_case "socket tap roundtrips" `Quick test_socket_plan_roundtrip;
        ] );
      ( "injector",
        [
          Alcotest.test_case "decisions deterministic" `Quick test_decisions_deterministic;
          Alcotest.test_case "decisions vary by site" `Quick test_decisions_vary_by_site;
          Alcotest.test_case "socket decisions deterministic" `Quick
            test_socket_decisions_deterministic;
          Alcotest.test_case "perturbations deterministic" `Quick test_perturbations_deterministic;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "zero budget expires" `Quick test_deadline_expiry;
          Alcotest.test_case "generous budget passes" `Quick test_deadline_generous;
          Alcotest.test_case "expiry quarantines after retries" `Quick test_deadline_quarantines;
        ] );
      ( "fallback",
        [
          Alcotest.test_case "degrades and matches direct" `Quick
            test_fallback_degrades_and_matches_direct;
          Alcotest.test_case "deterministic" `Quick test_fallback_deterministic;
          Alcotest.test_case "can be disabled" `Quick test_fallback_disabled;
        ] );
      ( "retry",
        [
          Alcotest.test_case "span-tree accounting" `Quick test_retry_accounting_in_span_tree;
          Alcotest.test_case "quarantine reporting" `Quick test_quarantine_reporting;
        ] );
      ( "store",
        [
          Alcotest.test_case "directory validated up front" `Quick test_store_validation;
          Alcotest.test_case "faults preserve values" `Quick test_store_faults_preserve_values;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "byte-identical across -j" `Quick
            test_parallel_byte_identity_under_faults;
        ] );
    ]
