(* The runner's retry policy (Section 3.2's answer to flaky recorders).

   [Runner.run_with] accepts an injected recorder, so the retry path can
   be driven deterministically: a recorder that fails the first N
   attempts (by returning output the transformation stage rejects)
   exposes the trial-count growth, the seed perturbation and the
   accumulated stage times of the retry loop. *)

module Recorder = Recorders.Recorder
module Config = Provmark.Config
module Runner = Provmark.Runner
module Recording = Provmark.Recording
module Result_ = Provmark.Result

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let config = Config.default Recorder.Spade
let prog = Provmark.Bench_registry.find_exn "open"

(* A recording whose output the transformation stage rejects, failing
   the attempt without touching the real pipeline. *)
let poisoned_recording =
  [
    {
      Recording.variant = Oskernel.Program.Background;
      trial = 0;
      run_id = 0;
      output = Recorder.Dot_text "this is not a dot digraph";
    };
  ]

(* A recorder that fails the first [failures] attempts and then defers
   to the real one, logging the (trials, seed) it was invoked with. *)
let flaky ~failures log : Runner.recorder =
 fun config prog ->
  log := (config.Config.trials, config.Config.seed) :: !log;
  Unix.sleepf 0.005;
  if List.length !log <= failures then (poisoned_recording, poisoned_recording)
  else Recording.record_all config prog

let test_retry_recovers () =
  let log = ref [] in
  let r = Runner.run_with ~record:(flaky ~failures:2 log) config prog in
  check_int "three attempts" 3 (List.length !log);
  check_bool "third attempt succeeded" true
    (match r.Result_.status with Result_.Failed _ -> false | _ -> true)

let test_retry_grows_trials_and_perturbs_seed () =
  let log = ref [] in
  let r = Runner.run_with ~record:(flaky ~failures:2 log) config prog in
  let t = config.Config.trials and s = config.Config.seed in
  Alcotest.(check (list (pair int int)))
    "trials grow by 2, seed by 101, per attempt"
    [ (t, s); (t + 2, s + 101); (t + 4, s + 202) ]
    (List.rev !log);
  check_int "result reports the final attempt's trials" (t + 4) r.Result_.trials

let test_retry_accumulates_times () =
  let log = ref [] in
  let r = Runner.run_with ~record:(flaky ~failures:2 log) config prog in
  (* Each attempt's recording stage slept 5ms; the reported recording
     time spans all three attempts, not just the successful one. *)
  check_bool "recording time spans all attempts" true
    ((Result_.times r).Result_.recording_s >= 0.015)

let test_gives_up_after_max_attempts () =
  let log = ref [] in
  let r = Runner.run_with ~record:(flaky ~failures:99 log) config prog in
  check_int "stops at three attempts" 3 (List.length !log);
  check_bool "reports the failure" true
    (match r.Result_.status with
    | Result_.Failed e -> String.length (Result_.stage_error_to_string e) > 0
    | _ -> false)

let test_run_once_does_not_retry () =
  let log = ref [] in
  let r = Runner.run_once_with ~record:(flaky ~failures:99 log) config prog in
  check_int "single attempt" 1 (List.length !log);
  check_bool "fails without retrying" true
    (match r.Result_.status with Result_.Failed _ -> true | _ -> false)

let test_injected_equals_default () =
  (* With a recorder that never fails, run_with is exactly run. *)
  let r1 = Runner.run config prog in
  let r2 = Runner.run_with ~record:Recording.record_all config prog in
  Alcotest.(check string) "same summary" (Result_.summary r1) (Result_.summary r2)

(* The retry policy grows the trial count, so a count of zero or less
   must be refused before any attempt runs rather than silently
   replaced by the second attempt's. *)
(* Each case must exit with the invalid-config code and name the
   offending option on stderr — the serve case would exit 2 for its
   unusable socket too, so the message is what shows the option was
   checked first. *)
let test_cli_rejects_nonpositive_trials () =
  let err = Filename.temp_file "provmark_cli" ".err" in
  List.iter
    (fun (option, args) ->
      check_int
        (Printf.sprintf "%s exits with the invalid-config code" args)
        (Provmark.Exit_code.to_int Provmark.Exit_code.Invalid_config)
        (Sys.command
           (Printf.sprintf "../bin/provmark_cli.exe %s 2>%s" args (Filename.quote err)));
      let msg = In_channel.with_open_bin err In_channel.input_all in
      check_bool
        (Printf.sprintf "%s names %s" args option)
        true
        (String.starts_with ~prefix:option msg))
    [
      ("--trials", "run spg open --no-store --trials=0");
      ("--trials", "run spg open --no-store --trials=-3");
      (* A negative or non-finite deadline would quarantine every
         benchmark; retries below one would be clamped silently. *)
      ("--deadline", "run spg open --no-store --deadline=-1");
      ("--deadline", "run spg open --no-store --deadline=nan");
      ("--deadline", "run spg open --no-store --deadline=inf");
      ("--deadline", "batch --tool spg --no-store --deadline=-0.5");
      ("--deadline", "serve --socket /nonexistent/pm.sock --no-store --deadline=-1");
      ("--retries", "run spg open --no-store --retries=0");
      ("--retries", "run spg open --no-store --retries=-1");
      ("--retries", "batch --tool spg --no-store --retries=0");
    ];
  Sys.remove err

(* Batch stdout is the suite's result and nothing else.  The statistics
   epilogue goes to stderr: its counters depend on what a run
   recomputed (a warm store replays without solving) and on how
   concurrent ASP solves met (coalescing), so on stdout it would break
   the byte identity of cold and warm runs, and of -j 1 and -j 4. *)
let test_cli_stdout_deterministic () =
  let out = Filename.temp_file "provmark_cli" ".out" in
  let stdout_of args =
    check_int
      (Printf.sprintf "%s exits 0" args)
      0
      (Sys.command
         (Printf.sprintf "../bin/provmark_cli.exe %s >%s 2>/dev/null" args (Filename.quote out)));
    In_channel.with_open_bin out In_channel.input_all
  in
  let store =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "provmark_cli_store_%d" (Unix.getpid ()))
  in
  let batch =
    Printf.sprintf "batch --tool spg --backend incremental --store %s" (Filename.quote store)
  in
  let cold = stdout_of batch in
  let warm = stdout_of batch in
  ignore (Sys.command ("rm -rf " ^ Filename.quote store));
  Alcotest.(check string) "incremental: warm store stdout equals cold" cold warm;
  let asp jobs = stdout_of (Printf.sprintf "batch --tool opu --backend asp --no-store -j %d" jobs) in
  let j1 = asp 1 in
  Alcotest.(check string) "asp: -j 4 stdout equals -j 1" j1 (asp 4);
  Sys.remove out

let () =
  Alcotest.run "runner"
    [
      ( "retry",
        [
          Alcotest.test_case "recovers after transient failures" `Quick test_retry_recovers;
          Alcotest.test_case "grows trials and perturbs seed" `Quick
            test_retry_grows_trials_and_perturbs_seed;
          Alcotest.test_case "accumulates stage times" `Quick test_retry_accumulates_times;
          Alcotest.test_case "gives up after max attempts" `Quick test_gives_up_after_max_attempts;
          Alcotest.test_case "run_once does not retry" `Quick test_run_once_does_not_retry;
          Alcotest.test_case "injection is transparent" `Quick test_injected_equals_default;
          Alcotest.test_case "CLI rejects non-positive trials" `Quick
            test_cli_rejects_nonpositive_trials;
          Alcotest.test_case "CLI batch stdout is deterministic" `Slow
            test_cli_stdout_deterministic;
        ] );
    ]
