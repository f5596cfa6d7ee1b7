(* The native backend's cascade and the delta re-solve fast path.

   Four layers are pinned here:
   - the decision log: notes drain into the span-tag log exactly once,
     and match ops (which run outside any stage) leave none behind;
   - the differential contract: [Direct] returns the witnesses of the
     Vf2 reference module, called directly, and agrees with the
     incremental and ASP backends on verdicts and optimal costs — over
     random pairs, ProvGen corpus pairs, perturbed and transient-only
     variants, with canon on and off;
   - delta soundness: consecutive transient-only trials of a rigid
     structure reuse the certified canonical witness (trial 2 hits the
     rigidity cache), non-rigid structures fall back to a real solve,
     pairs the segment plan takes skip the delta step, and no graph is
     canonicalized twice along the way;
   - the pipeline: suite output is byte-identical across job counts,
     and so is the cascade's decision mix. *)

open Pgraph
module Engine = Gmatch.Engine
module Matching = Gmatch.Matching
module Planner = Gmatch.Planner
module Incremental = Gmatch.Incremental
module Recorder = Recorders.Recorder
module Result_ = Provmark.Result
module Config = Provmark.Config
module Parallel_runner = Provmark.Parallel_runner
module Bench_gen = Provmark.Bench_gen

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Decision log                                                        *)
(* ------------------------------------------------------------------ *)

let test_decision_log_drains () =
  Planner.reset ();
  Fun.protect ~finally:Planner.reset (fun () ->
      Planner.note ~task:"similarity" Planner.Incr;
      Planner.note ~task:"generalization" Planner.Delta;
      Alcotest.(check (list string))
        "two decisions drained, oldest first"
        [ "similarity=incremental"; "generalization=delta" ]
        (Planner.drain_decisions ());
      check_int "drain clears the log" 0 (List.length (Planner.drain_decisions ()));
      check_int "decisions counted" 2 (Planner.decisions_total ()))

(* ------------------------------------------------------------------ *)
(* Differential: Direct equals VF2 and every other backend              *)
(* ------------------------------------------------------------------ *)

let cost_view = function None -> None | Some (m : Matching.t) -> Some m.Matching.cost

(* Sorted, like [Match_op]'s rendering: the bytes a user sees. *)
let witness_view (m : Matching.t) =
  String.concat "|"
    (List.map (fun (a, b) -> a ^ ">" ^ b)
       (List.sort compare m.Matching.node_map @ List.sort compare m.Matching.edge_map))

(* The cascade's bypasses must not show in its witnesses: the delta
   witness is the unique one, so it is VF2's.  The one exception is
   the zero-cost canonical witness, which may be another of several
   zero-cost witnesses; every zero-cost matching yields the same
   downstream result, so there only the cost is pinned. *)
let check_witness msg ~sub g h reference (m : Matching.t option) =
  Alcotest.(check (option int)) (msg ^ ": cost") (cost_view reference) (cost_view m);
  match (reference, m) with
  | Some r, Some m ->
      check_bool (msg ^ ": verifies") true (Matching.verify ~sub g h m = Ok ());
      check_int (msg ^ ": reported cost is the witness cost") m.Matching.cost
        (Matching.cost_of g h m);
      if m.Matching.cost > 0 then
        Alcotest.(check string) (msg ^ ": witness bytes") (witness_view r) (witness_view m)
  | _ -> ()

(* One pair: [Direct] must return VF2's answers (the module called
   directly, no engine in between), and agree with each [others]
   backend on the similarity verdict and both optimal costs. *)
let direct_agrees ?opts ~others g h =
  let sim = Engine.similar ?opts ~backend:Engine.Direct g h in
  check_bool "similar equals vf2" (Gmatch.Vf2.similar g h) sim;
  let gen = Engine.generalization_matching ?opts ~backend:Engine.Direct g h in
  check_witness "generalization" ~sub:false g h (Gmatch.Vf2.iso_min_cost g h) gen;
  let sub = Engine.subgraph_matching ?opts ~backend:Engine.Direct g h in
  check_witness "comparison" ~sub:true g h (Gmatch.Vf2.sub_iso_min_cost g h) sub;
  List.iter
    (fun backend ->
      check_bool "similar agrees" (Engine.similar ?opts ~backend g h) sim;
      Alcotest.(check (option int))
        "generalization cost agrees"
        (cost_view (Engine.generalization_matching ?opts ~backend g h))
        (cost_view gen);
      Alcotest.(check (option int))
        "comparison cost agrees"
        (cost_view (Engine.subgraph_matching ?opts ~backend g h))
        (cost_view sub))
    others

let perturb_prop g =
  match Graph.nodes g with
  | n :: _ ->
      Graph.set_node_props g n.Graph.node_id (Props.add "perturbed" "yes" n.Graph.node_props)
  | [] -> g

let perturb_shape g = Graph.add_node g ~id:"zzz-extra" ~label:"extra" ~props:Props.empty

(* Canon on and off are different cascades (the digest bypasses
   answer digest-equal pairs first; with canon off every instance
   reaches the solvers), so both run. *)
let both_regimes f =
  f Gmatch.Match_opts.default;
  f { Gmatch.Match_opts.default with canon = false }

let test_differential_vf2_incremental () =
  Planner.reset ();
  let st = Random.State.make [| 23 |] in
  for _ = 1 to 25 do
    let g = Helpers.random_graph st in
    let iso = Helpers.permute_ids g in
    let other = Helpers.random_graph st in
    both_regimes (fun opts ->
        let agrees = direct_agrees ~opts ~others:[ Engine.Incremental ] in
        agrees g iso;
        agrees g (perturb_prop iso);
        agrees g (perturb_shape iso);
        agrees g other)
  done

let test_differential_asp () =
  (* The ASP backend is the reference semantics; smaller graphs keep
     the grounding tractable. *)
  Planner.reset ();
  let st = Random.State.make [| 24 |] in
  for _ = 1 to 5 do
    let g = Helpers.random_graph ~max_nodes:4 ~max_edges:4 st in
    let iso = Helpers.rename_with_prefix "r:" g in
    both_regimes (fun opts ->
        direct_agrees ~opts ~others:[ Engine.Asp ] g iso;
        direct_agrees ~opts ~others:[ Engine.Asp ] g (perturb_prop iso))
  done

let test_differential_provgen_and_transient () =
  Planner.reset ();
  List.iter
    (fun nodes ->
      let spec = Provgen.default_spec ~nodes in
      both_regimes (fun opts ->
          let agrees = direct_agrees ~opts ~others:[ Engine.Incremental ] in
          (* A permuted cross-run pair, a transient-only variant pair,
             and a cross-seed pair with no reason to align. *)
          let g, h = Provgen.match_pair ~seed:(400 + nodes) spec in
          agrees g h;
          let v1, v2 = Provgen.pair ~seed:(500 + nodes) spec in
          agrees v1 v2;
          agrees g (Provgen.generate ~seed:(600 + nodes) spec);
          (* The bench generator's transient-only rewrite: identical ids
             and structure, fresh transient values — the delta fast
             path's home turf, which must stay invisible in the
             answers. *)
          let b, _ = Bench_gen.match_pair ~nodes ~seed:(700 + nodes) in
          agrees b (Bench_gen.transient_variant ~seed:(800 + nodes) b);
          agrees b (Bench_gen.transient_variant ~seed:(900 + nodes) b)))
    [ 24; 48 ]

(* ------------------------------------------------------------------ *)
(* Delta re-solve                                                      *)
(* ------------------------------------------------------------------ *)

(* A directed chain with transient values everywhere: WL refinement
   separates every position by its distance from the ends, so the
   structure is rigid and the delta path's uniqueness theorem applies. *)
let chain n =
  let g = ref Graph.empty in
  for i = 0 to n - 1 do
    g :=
      Graph.add_node !g
        ~id:(Printf.sprintf "n%d" i)
        ~label:"activity"
        ~props:(Props.of_list [ ("token", Printf.sprintf "t%d" i) ])
  done;
  for i = 0 to n - 2 do
    g :=
      Graph.add_edge !g
        ~id:(Printf.sprintf "e%d" i)
        ~src:(Printf.sprintf "n%d" i)
        ~tgt:(Printf.sprintf "n%d" (i + 1))
        ~label:"used"
        ~props:(Props.of_list [ ("op", Printf.sprintf "o%d" i) ])
  done;
  !g

(* [Match_op.run] calls the engine outside any stage, so nothing
   drains the decision log after it: a long-lived daemon would grow it
   without bound and hand the lines to the next stage on that domain. *)
let test_match_op_leaves_no_decisions () =
  Planner.reset ();
  Fun.protect ~finally:Planner.reset (fun () ->
      let g = chain 6 in
      let h = Bench_gen.transient_variant ~seed:7 g in
      for _ = 1 to 1000 do
        ignore (Provmark.Match_op.run ~backend:Engine.Direct Provmark.Match_op.Generalize g h)
      done;
      check_bool "the match ops were decisions" true (Planner.decisions_total () >= 1000);
      Alcotest.(check (list string)) "decision log empty" [] (Planner.drain_decisions ()))

let test_delta_reuses_trial_witness () =
  Incremental.reset_delta ();
  Fun.protect ~finally:Incremental.reset_delta (fun () ->
      let g = chain 12 in
      let trial k = Bench_gen.transient_variant ~seed:(1000 + k) g in
      let solve h =
        match Engine.generalization_matching ~backend:Engine.Direct g h with
        | Some m -> m
        | None -> Alcotest.fail "transient-only pair must match"
      in
      let m1 = solve (trial 1) in
      let certified1, fallbacks1, _ = Incremental.delta_stats () in
      check_int "trial 1 certified" 1 certified1;
      check_int "no fallbacks on a rigid pair" 0 fallbacks1;
      (* Trials 2..N: same structure digest, so the rigidity verdict is
         cached and the trial-1 witness is reused byte-for-byte. *)
      let m2 = solve (trial 2) in
      let m3 = solve (trial 3) in
      let certified, fallbacks, cache_hits = Incremental.delta_stats () in
      check_int "every trial certified" 3 certified;
      check_int "still no fallbacks" 0 fallbacks;
      check_bool "trials 2..N hit the rigidity cache" true (cache_hits >= 2);
      Alcotest.(check string) "trial 2 reuses the witness" (witness_view m1) (witness_view m2);
      Alcotest.(check string) "trial 3 reuses the witness" (witness_view m1) (witness_view m3);
      (* The certified witness is the true optimum: exact search agrees
         on cost. *)
      Alcotest.(check (option int))
        "delta cost equals vf2's" (Some m2.Matching.cost)
        (cost_view (Gmatch.Vf2.iso_min_cost g (trial 2)));
      (* Comparison rides the same theorem (equal digests pin sizes). *)
      (match Engine.subgraph_matching ~backend:Engine.Direct g (trial 4) with
      | Some m ->
          check_bool "embedding verifies" true (Matching.verify ~sub:true g (trial 4) m = Ok ())
      | None -> Alcotest.fail "transient-only pair must embed");
      let certified', _, _ = Incremental.delta_stats () in
      check_int "comparison certified too" 4 certified')

let test_non_rigid_falls_back () =
  Incremental.reset_delta ();
  Fun.protect ~finally:Incremental.reset_delta (fun () ->
      (* Two disconnected same-label nodes: WL cannot separate them, the
         automorphism group is nontrivial, and delta must decline —
         distinct transient values keep the zero-cost bypass out of the
         way, so the pair genuinely reaches the fast path. *)
      let twins a b =
        let g = Graph.add_node Graph.empty ~id:"p" ~label:"process"
            ~props:(Props.of_list [ ("token", a) ]) in
        Graph.add_node g ~id:"q" ~label:"process" ~props:(Props.of_list [ ("token", b) ])
      in
      let g = twins "a" "b" and h = twins "c" "d" in
      Alcotest.(check (option int))
        "non-rigid pair still optimally matched"
        (cost_view (Gmatch.Vf2.iso_min_cost g h))
        (cost_view (Engine.generalization_matching ~backend:Engine.Direct g h));
      let certified, fallbacks, _ = Incremental.delta_stats () in
      check_int "nothing certified" 0 certified;
      check_bool "fallback counted" true (fallbacks >= 1))

(* A generalization pair the segment plan takes skips the delta step:
   on a rigid pair the plan forces every node and stitches the unique
   witness, which is exactly [Matching.of_canon]'s bijection. *)
let test_segmentable_skips_delta () =
  Incremental.reset_delta ();
  Fun.protect ~finally:Incremental.reset_delta (fun () ->
      let g = Bench_gen.rigid_trace ~nodes:Gmatch.Match_opts.default_segment_min_nodes ~seed:5 in
      let h = Bench_gen.transient_variant ~seed:6 g in
      let unique =
        match (Canon.form g, Canon.form h) with
        | Some f1, Some f2 -> Matching.of_canon f1 f2
        | _ -> Alcotest.fail "canonical forms must be available"
      in
      let before = Incremental.delta_stats () in
      match Engine.generalization_matching ~backend:Engine.Direct g h with
      | None -> Alcotest.fail "transient-only pair must match"
      | Some m ->
          check_bool "a costly pair (no zero-cost bypass)" true (m.Matching.cost > 0);
          check_bool "delta counters unchanged" true (Incremental.delta_stats () = before);
          Alcotest.(check string) "the unique witness" (witness_view unique) (witness_view m))

let test_delta_direct_api () =
  Incremental.reset_delta ();
  Fun.protect ~finally:Incremental.reset_delta (fun () ->
      let g = chain 8 in
      let h = Bench_gen.transient_variant ~seed:42 g in
      match (Canon.form g, Canon.form h) with
      | Some f1, Some f2 -> (
          match Incremental.delta ~sub:false f1 f2 g h with
          | Some m ->
              check_bool "delta witness verifies" true (Matching.verify ~sub:false g h m = Ok ());
              check_int "delta cost is the witness cost" m.Matching.cost (Matching.cost_of g h m)
          | None -> Alcotest.fail "rigid digest-equal pair must certify")
      | _ -> Alcotest.fail "canonical forms must be available")

let test_no_duplicate_canonicalization () =
  Canon.reset_stats ();
  Incremental.reset_delta ();
  Fun.protect
    ~finally:(fun () ->
      Canon.reset_stats ();
      Incremental.reset_delta ())
    (fun () ->
      let g = chain 10 in
      let v2 = Bench_gen.transient_variant ~seed:2000 g in
      let v3 = Bench_gen.transient_variant ~seed:2001 g in
      ignore (Engine.generalization_matching ~backend:Engine.Direct g v2);
      ignore (Engine.generalization_matching ~backend:Engine.Direct g v3);
      let computed, hits = Canon.stats () in
      (* The form cache is keyed on identifiers and structure, not
         property values, so every transient variant shares g's entry:
         one canonicalization serves both trials of both sides, and the
         delta path reuses the engine's forms instead of recomputing. *)
      check_int "one canonical form per structure" 1 computed;
      check_bool "every other lookup hits the shared cache" true (hits >= 3))

(* ------------------------------------------------------------------ *)
(* Suite-level byte identity                                           *)
(* ------------------------------------------------------------------ *)

let exact_view (r : Result_.t) =
  let body =
    match r.Result_.status with
    | Result_.Target g -> "target:" ^ Datalog.Encode.graph_to_string ~gid:"d" g
    | Result_.Empty -> "empty"
    | Result_.Failed e -> "failed:" ^ Result_.stage_error_to_string e
  in
  String.concat "|"
    ((r.Result_.benchmark :: body :: r.Result_.degraded) @ [ string_of_int r.Result_.trials ])

let suite_views ~jobs config progs =
  List.map exact_view (Parallel_runner.run_all ~jobs config progs)

let test_suite_identical_across_planner_and_jobs () =
  let progs = Provmark.Bench_registry.all in
  let config = Config.default Recorder.Spade in
  Planner.reset ();
  let reference = suite_views ~jobs:1 config progs in
  let counts_j1 = Planner.decision_counts () in
  check_bool "the cascade decided something" true (Planner.decisions_total () > 0);
  Planner.reset ();
  Alcotest.(check (list string))
    "-j4 equals -j1" reference
    (suite_views ~jobs:4 config progs);
  (* No choice depends on timing, so the decision mix is a function of
     the suite alone — whichever domain made each decision. *)
  Alcotest.(check (list (pair string int)))
    "decision counts equal at -j1 and -j4" counts_j1 (Planner.decision_counts ())

let () =
  Alcotest.run "planner"
    [
      ( "mechanics",
        [
          Alcotest.test_case "decision log drains once" `Quick test_decision_log_drains;
          Alcotest.test_case "match ops leave no decision lines" `Quick
            test_match_op_leaves_no_decisions;
        ] );
      ( "differential",
        [
          Alcotest.test_case "direct equals vf2 and incremental" `Quick
            test_differential_vf2_incremental;
          Alcotest.test_case "direct equals asp" `Slow test_differential_asp;
          Alcotest.test_case "direct equals vf2 on provgen pairs" `Slow
            test_differential_provgen_and_transient;
        ] );
      ( "delta",
        [
          Alcotest.test_case "transient trials reuse the certified witness" `Quick
            test_delta_reuses_trial_witness;
          Alcotest.test_case "non-rigid pairs fall back soundly" `Quick test_non_rigid_falls_back;
          Alcotest.test_case "segmentable rigid pairs skip delta" `Quick
            test_segmentable_skips_delta;
          Alcotest.test_case "delta API certifies rigid pairs" `Quick test_delta_direct_api;
          Alcotest.test_case "no duplicate canonicalization" `Quick
            test_no_duplicate_canonicalization;
        ] );
      ( "suite",
        [
          Alcotest.test_case "byte-identical across planner and -j" `Slow
            test_suite_identical_across_planner_and_jobs;
        ] );
    ]
