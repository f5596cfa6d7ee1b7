(* The parallel suite runner and its determinism guarantees.

   Three layers are pinned here:
   - Pool: the fixed-size domain pool (ordering, exceptions, lifecycle);
   - Parallel_runner: the full benchmark registry must produce the same
     per-benchmark results sequentially and at every job count, because
     each benchmark's effective seed is derived from (base seed, name)
     rather than from scheduling;
   - the ASP solve memo: caching must never change solver answers. *)

module Recorder = Recorders.Recorder
module Result_ = Provmark.Result
module Config = Provmark.Config
module Runner = Provmark.Runner
module Parallel_runner = Provmark.Parallel_runner
module Pool = Provmark.Pool

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Pool                                                               *)
(* ------------------------------------------------------------------ *)

let test_pool_map_preserves_order () =
  let xs = List.init 50 (fun i -> i) in
  let ys = Pool.map ~jobs:4 (fun x -> x * x) xs in
  Alcotest.(check (list int)) "squares in order" (List.map (fun x -> x * x) xs) ys

let test_pool_map_sequential_degenerate () =
  let xs = [ "a"; "b"; "c" ] in
  Alcotest.(check (list string)) "jobs=1 is the identity pipeline" xs (Pool.map ~jobs:1 Fun.id xs)

let test_pool_propagates_exceptions () =
  match Pool.map ~jobs:2 (fun x -> if x = 3 then failwith "boom" else x) [ 1; 2; 3; 4 ] with
  | exception Failure m -> Alcotest.(check string) "original exception" "boom" m
  | _ -> Alcotest.fail "expected the job's exception to re-raise"

let test_pool_survives_failed_jobs () =
  (* One poisoned job must not take the workers down: the others finish. *)
  let pool = Pool.create ~size:2 in
  let ok = Pool.async pool (fun () -> 41 + 1) in
  let bad = Pool.async pool (fun () -> raise Not_found) in
  let ok2 = Pool.async pool (fun () -> 2 * 21) in
  check_int "first result" 42 (Pool.await ok);
  check_bool "poisoned job re-raises" true
    (match Pool.await bad with exception Not_found -> true | _ -> false);
  check_int "later job still runs" 42 (Pool.await ok2);
  Pool.shutdown pool

let test_pool_rejects_after_shutdown () =
  let pool = Pool.create ~size:1 in
  Pool.shutdown pool;
  check_bool "async after shutdown raises" true
    (match Pool.async pool (fun () -> ()) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Parallel_runner determinism                                        *)
(* ------------------------------------------------------------------ *)

(* The comparable view of a result: everything except wall-clock times.
   Target graphs are compared by isomorphism-invariant fingerprint. *)
let view (r : Result_.t) =
  let fingerprint =
    match r.Result_.status with
    | Result_.Target g -> Pgraph.Fingerprint.to_hex (Pgraph.Fingerprint.of_graph g)
    | Result_.Empty -> "-"
    | Result_.Failed e -> "failed: " ^ Result_.stage_error_to_string e
  in
  Printf.sprintf "%s %s %s trials=%d" r.Result_.benchmark (Result_.status_word r) fingerprint
    r.Result_.trials

let views results = List.map view results

let test_parallel_equals_sequential () =
  let config = Config.default Recorder.Spade in
  let progs = Provmark.Bench_registry.all in
  let reference = views (Parallel_runner.run_all_sequential config progs) in
  check_int "covers the registry" (List.length progs) (List.length reference);
  List.iter
    (fun jobs ->
      Alcotest.(check (list string))
        (Printf.sprintf "j=%d equals sequential" jobs)
        reference
        (views (Parallel_runner.run_all ~jobs config progs)))
    [ 1; 2; 4 ]

let test_seed_derivation () =
  (* Schedule-independent, name-sensitive, base-sensitive, positive. *)
  let s1 = Parallel_runner.seed_for ~base:7 "cmdOpen" in
  check_int "stable across calls" s1 (Parallel_runner.seed_for ~base:7 "cmdOpen");
  check_bool "positive" true (s1 > 0);
  check_bool "differs by name" true (s1 <> Parallel_runner.seed_for ~base:7 "cmdClose");
  check_bool "differs by base" true (s1 <> Parallel_runner.seed_for ~base:8 "cmdOpen")

let test_config_derivation () =
  let config = Config.default Recorder.Spade in
  let prog = Provmark.Bench_registry.find_exn "open" in
  let derived = Parallel_runner.config_for config prog in
  check_int "seed is the derived one"
    (Parallel_runner.seed_for ~base:config.Config.seed prog.Oskernel.Program.name)
    derived.Config.seed;
  check_int "everything else unchanged" config.Config.trials derived.Config.trials

let test_run_matrix_equals_columns () =
  (* The flattened matrix must regroup into exactly the per-tool runs. *)
  let configs = [ Config.default Recorder.Spade; Config.default Recorder.Camflow ] in
  let matrix = Parallel_runner.run_matrix ~jobs:3 configs in
  check_int "one column per config" (List.length configs) (List.length matrix);
  List.iter2
    (fun config (tool, results) ->
      check_bool "column tool" true (tool = config.Config.tool);
      Alcotest.(check (list string))
        (Recorder.tool_name tool ^ " column equals run_all")
        (views (Parallel_runner.run_all ~jobs:1 config Provmark.Bench_registry.all))
        (views results))
    configs matrix

(* Configs that differ only in their matching options run side by side
   in one pool: each cell must print exactly what its config prints when
   run alone, so no option leaks into a concurrently running config.
   Every ASP solve is made to exhaust its budget and fall back to VF2,
   so a cell's degradation notes show which solves its options sent to
   the solver; at the default plan every cell would print the same
   bytes and a leak would go unseen. *)
let test_options_are_per_config () =
  let plan = Result.get_ok (Faults.Plan.of_string "seed=5,solver.exhaust=1") in
  Faults.Injector.set_plan (Some plan);
  Fun.protect ~finally:(fun () -> Faults.Injector.set_plan None) @@ fun () ->
  let base = { (Config.default Recorder.Spade) with Config.backend = Gmatch.Engine.Asp } in
  let config_with canon segment_min_nodes =
    { base with Config.opts = { base.Config.opts with canon; segment_min_nodes } }
  in
  let configs =
    [ config_with true (Some 0); config_with false None; config_with false (Some 0); base ]
  in
  let printed results = List.map (Provmark.Report.run_output ~result_type:"rg") results in
  let cells = List.map (fun (_, results) -> printed results) (Parallel_runner.run_matrix ~jobs:4 configs) in
  List.iter2
    (fun config cell ->
      Alcotest.(check (list string))
        (Config.backend_fp config ^ " cell equals its -j1 run")
        (printed (Parallel_runner.run_all ~jobs:1 config Provmark.Bench_registry.all))
        cell)
    configs cells;
  check_bool "canon on and off print differently" true (List.nth cells 0 <> List.nth cells 1)

let test_on_result_sees_every_benchmark () =
  let config = Config.default Recorder.Spade in
  let progs = Provmark.Bench_registry.all in
  let seen = ref [] in
  let mutex = Mutex.create () in
  let on_result (r : Result_.t) =
    Mutex.lock mutex;
    seen := r.Result_.benchmark :: !seen;
    Mutex.unlock mutex
  in
  ignore (Parallel_runner.run_all ~jobs:4 ~on_result config progs);
  Alcotest.(check (list string))
    "every benchmark reported exactly once (completion order varies)"
    (List.sort String.compare (List.map (fun (p : Oskernel.Program.t) -> p.Oskernel.Program.name) progs))
    (List.sort String.compare !seen)

(* ------------------------------------------------------------------ *)
(* ASP solve memo: caching never changes answers                      *)
(* ------------------------------------------------------------------ *)

let asp_config = { (Config.default Recorder.Spade) with Config.backend = Gmatch.Engine.Asp }
let no_memo = { Gmatch.Match_opts.default with memo = false }

let fresh_memo () =
  Asp.Memo.clear ();
  Asp.Memo.reset_stats ()

let test_cache_consistency () =
  let prog = Provmark.Bench_registry.find_exn "open" in
  fresh_memo ();
  let uncached = view (Runner.run { asp_config with Config.opts = no_memo } prog) in
  let cold = view (Runner.run asp_config prog) in
  let warm = view (Runner.run asp_config prog) in
  let hits = List.fold_left (fun acc (_, s) -> acc + s.Asp.Memo.hits) 0 (Asp.Memo.stats ()) in
  Alcotest.(check string) "cold run equals uncached" uncached cold;
  Alcotest.(check string) "warm run equals uncached" uncached warm;
  check_bool "warm run actually hit the cache" true (hits > 0)

let test_cache_key_ignores_irrelevant_facts () =
  (* The similarity program reads only shape facts; property facts must
     not wash out the cache key.  Two property-perturbed copies of the
     same shape therefore produce one miss and then hits. *)
  fresh_memo ();
  let g1 = Helpers.random_graph (Random.State.make [| 1 |]) in
  let props = Pgraph.Props.of_list [ ("pid", "12345") ] in
  let g2 =
    match Pgraph.Graph.nodes g1 with
    | n :: _ -> Pgraph.Graph.set_node_props g1 n.Pgraph.Graph.node_id props
    | [] -> g1
  in
  check_bool "same verdict" true
    (Gmatch.Asp_backend.similar g1 g1 = Gmatch.Asp_backend.similar g2 g2);
  match List.assoc_opt "similarity" (Asp.Memo.stats ()) with
  | Some { Asp.Memo.hits; misses } ->
      check_int "one shape, one miss" 1 misses;
      check_bool "second solve hit" true (hits >= 1)
  | None -> Alcotest.fail "similarity counter missing"

let test_cache_disabled_counts_nothing () =
  fresh_memo ();
  let g = Helpers.random_graph (Random.State.make [| 2 |]) in
  ignore (Gmatch.Asp_backend.similar ~opts:no_memo g g);
  check_int "no counters when disabled" 0 (List.length (Asp.Memo.stats ()))

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_pool_map_preserves_order;
          Alcotest.test_case "jobs=1 degenerate" `Quick test_pool_map_sequential_degenerate;
          Alcotest.test_case "exceptions propagate" `Quick test_pool_propagates_exceptions;
          Alcotest.test_case "pool survives failed jobs" `Quick test_pool_survives_failed_jobs;
          Alcotest.test_case "rejects after shutdown" `Quick test_pool_rejects_after_shutdown;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "parallel equals sequential (j=1,2,4)" `Slow
            test_parallel_equals_sequential;
          Alcotest.test_case "seed derivation" `Quick test_seed_derivation;
          Alcotest.test_case "config derivation" `Quick test_config_derivation;
          Alcotest.test_case "matrix equals per-tool columns" `Slow test_run_matrix_equals_columns;
          Alcotest.test_case "matching options are per config" `Slow test_options_are_per_config;
          Alcotest.test_case "on_result coverage" `Quick test_on_result_sees_every_benchmark;
        ] );
      ( "memo",
        [
          Alcotest.test_case "caching never changes answers" `Slow test_cache_consistency;
          Alcotest.test_case "key ignores irrelevant facts" `Quick
            test_cache_key_ignores_irrelevant_facts;
          Alcotest.test_case "disabled cache counts nothing" `Quick
            test_cache_disabled_counts_nothing;
        ] );
    ]
