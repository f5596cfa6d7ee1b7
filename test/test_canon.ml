(* Canonical forms and the fast paths built on them.

   Four layers are pinned here:
   - Pgraph.Canon: digests are invariant under relabelling and insertion
     order, and decide label-isomorphism exactly (differentially against
     both matching backends);
   - the engine bypass: canon-on and canon-off agree on every verdict
     and optimal cost, for isomorphic, property-perturbed and
     shape-perturbed pairs alike;
   - the canonically rekeyed solve memo: renamed instances replay warm,
     and translated witnesses verify on the original graphs;
   - the pair-parallel pipeline: suite output is byte-identical across
     canon off/default and across job counts. *)

open Pgraph
module Engine = Gmatch.Engine
module Matching = Gmatch.Matching
module Recorder = Recorders.Recorder
module Result_ = Provmark.Result
module Config = Provmark.Config
module Parallel_runner = Provmark.Parallel_runner
module Pool = Provmark.Pool

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let canon_opts canon = { Gmatch.Match_opts.default with canon }

(* ------------------------------------------------------------------ *)
(* Digest invariance                                                   *)
(* ------------------------------------------------------------------ *)

let rebuild_reversed g =
  let g' =
    List.fold_left
      (fun acc (n : Graph.node) ->
        Graph.add_node acc ~id:n.Graph.node_id ~label:n.Graph.node_label ~props:n.Graph.node_props)
      Graph.empty
      (List.rev (Graph.nodes g))
  in
  List.fold_left
    (fun acc (e : Graph.edge) ->
      Graph.add_edge acc ~id:e.Graph.edge_id ~src:e.Graph.edge_src ~tgt:e.Graph.edge_tgt
        ~label:e.Graph.edge_label ~props:e.Graph.edge_props)
    g'
    (List.rev (Graph.edges g))

let prop_digest_invariant =
  Helpers.qcheck "digest invariant under relabelling and insertion order"
    (Helpers.graph_arbitrary ())
    (fun g ->
      let d = Canon.digest g in
      d = Canon.digest (Helpers.permute_ids g)
      && d = Canon.digest (Helpers.rename_with_prefix "z:" g)
      && d = Canon.digest (rebuild_reversed g))

let prop_digest_decides_similarity =
  (* The iff direction: digests agree exactly when the solver-free VF2
     matcher finds a label-isomorphism.  (Both graphs canonicalize —
     the generator's graphs sit far below the leaf budget.) *)
  Helpers.qcheck "digest equality is exactly VF2 similarity"
    (QCheck.pair (Helpers.graph_arbitrary ()) (Helpers.graph_arbitrary ()))
    (fun (g, h) ->
      match (Canon.digest g, Canon.digest h) with
      | Some dg, Some dh -> String.equal dg dh = Gmatch.Vf2.similar g h
      | _ -> false)

let test_witness_is_isomorphism () =
  let st = Random.State.make [| 11 |] in
  for _ = 1 to 25 do
    let g = Helpers.random_graph st in
    let h = Helpers.permute_ids g in
    match (Canon.form g, Canon.form h) with
    | Some f1, Some f2 ->
        let m = Matching.of_canon f1 f2 in
        (match Matching.verify ~sub:false g h m with
        | Ok () -> ()
        | Error e -> Alcotest.failf "canonical witness rejected: %s" e)
    | _ -> Alcotest.fail "generator graphs must canonicalize"
  done

(* ------------------------------------------------------------------ *)
(* Engine bypass: canon-on equals canon-off                            *)
(* ------------------------------------------------------------------ *)

let cost_view = function None -> None | Some (m : Matching.t) -> Some m.Matching.cost

let agree ~backend g h =
  let on = canon_opts true and off = canon_opts false in
  let sim_on = Engine.similar ~opts:on ~backend g h in
  let sim_off = Engine.similar ~opts:off ~backend g h in
  check_bool "similar agrees" sim_off sim_on;
  let gen_on = Engine.generalization_matching ~opts:on ~backend g h in
  let gen_off = Engine.generalization_matching ~opts:off ~backend g h in
  Alcotest.(check (option int)) "generalization cost agrees" (cost_view gen_off) (cost_view gen_on);
  (match gen_on with
  | Some m ->
      check_bool "generalization witness verifies" true (Matching.verify ~sub:false g h m = Ok ());
      check_int "witness cost is the reported cost" m.Matching.cost (Matching.cost_of g h m)
  | None -> ());
  let sub_on = Engine.subgraph_matching ~opts:on ~backend g h in
  let sub_off = Engine.subgraph_matching ~opts:off ~backend g h in
  Alcotest.(check (option int)) "comparison cost agrees" (cost_view sub_off) (cost_view sub_on);
  match sub_on with
  | Some m ->
      check_bool "comparison witness verifies" true (Matching.verify ~sub:true g h m = Ok ())
  | None -> ()

let perturb_prop g =
  match Graph.nodes g with
  | n :: _ ->
      Graph.set_node_props g n.Graph.node_id
        (Props.add "perturbed" "yes" n.Graph.node_props)
  | [] -> g

let perturb_shape g =
  Graph.add_node g ~id:"zzz-extra" ~label:"extra" ~props:Props.empty

let test_bypass_differential () =
  let st = Random.State.make [| 7 |] in
  for _ = 1 to 40 do
    let g = Helpers.random_graph st in
    let iso = Helpers.permute_ids g in
    agree ~backend:Engine.Direct g iso;
    (* One perturbed property: digests still equal (shape-only), but the
       zero-cost gate must push the matchings back to the solver. *)
    agree ~backend:Engine.Direct g (perturb_prop iso);
    (* One perturbed shape: digests differ, nothing may bypass wrongly. *)
    agree ~backend:Engine.Direct g (perturb_shape iso)
  done

let test_bypass_differential_asp () =
  (* The ASP backend is the reference semantics; smaller graphs keep the
     grounding tractable. *)
  let st = Random.State.make [| 8 |] in
  for _ = 1 to 6 do
    let g = Helpers.random_graph ~max_nodes:4 ~max_edges:4 st in
    let iso = Helpers.rename_with_prefix "r:" g in
    agree ~backend:Engine.Asp g iso;
    agree ~backend:Engine.Asp g (perturb_prop iso)
  done;
  (* Larger provenance-shaped DAGs against a pure rename: the bypass
     must reach the cold solve's cost and witness here too. *)
  List.iter
    (fun nodes ->
      let g, _ = Provmark.Bench_gen.match_pair ~nodes ~seed:(41 + nodes) in
      agree ~backend:Engine.Asp g (Graph.map_ids (fun id -> "r:" ^ id) g))
    [ 4; 8; 12 ]

let test_skip_counters () =
  Engine.reset_canon_skips ();
  Fun.protect ~finally:Engine.reset_canon_skips (fun () ->
      let g = Helpers.random_graph (Random.State.make [| 9 |]) in
      let h = Helpers.permute_ids g in
      check_bool "iso pair is similar" true (Engine.similar g h);
      ignore (Engine.generalization_matching g h);
      check_bool "skips recorded" true (Engine.canon_skip_total () >= 2);
      check_bool "tagged per stage" true
        (List.mem_assoc "similarity" (Engine.canon_skips ())
        && List.mem_assoc "generalization" (Engine.canon_skips ())))

(* ------------------------------------------------------------------ *)
(* Canonically rekeyed solve memo                                      *)
(* ------------------------------------------------------------------ *)

let memo_counts tag =
  match List.assoc_opt tag (Asp.Memo.stats ()) with
  | Some { Asp.Memo.hits; misses } -> (hits, misses)
  | None -> (0, 0)

let solve_pair ~canon g h = Gmatch.Asp_backend.iso_min_cost ~opts:(canon_opts canon) g h

let test_memo_rename_invariant () =
  (* A property-perturbed pair (cost > 0, so the engine bypass cannot
     answer it) solved once, then re-solved under fresh names: with
     canonicalization the renamed instance is the same canonical
     instance and hits; without it, the raw facts differ and miss. *)
  let g = Helpers.random_graph ~max_nodes:4 ~max_edges:4 (Random.State.make [| 21 |]) in
  let h = perturb_prop (Helpers.rename_with_prefix "r:" g) in
  let renamed_hits canon =
    Asp.Memo.clear ();
    Asp.Memo.reset_stats ();
    let first = solve_pair ~canon g h in
    let _, misses_before = memo_counts "generalization" in
    let g' = Helpers.rename_with_prefix "a:" g in
    let h' = Helpers.rename_with_prefix "b:" h in
    let second = solve_pair ~canon g' h' in
    let hits, misses = memo_counts "generalization" in
    Alcotest.(check (option int))
      "renamed pair solves to the same cost" (cost_view first) (cost_view second);
    (match second with
    | Some m ->
        check_bool "translated witness verifies on renamed graphs" true
          (Matching.verify ~sub:false g' h' m = Ok ())
    | None -> Alcotest.fail "perturbed iso pair must align");
    (hits > 0, misses > misses_before)
  in
  let hit, _ = renamed_hits true in
  check_bool "canon on: renamed instance hits" true hit;
  let hit, missed = renamed_hits false in
  check_bool "canon off: renamed instance misses" false hit;
  check_bool "canon off: renamed instance recomputes" true missed

(* ------------------------------------------------------------------ *)
(* Pair pool plumbing                                                  *)
(* ------------------------------------------------------------------ *)

let test_run_pair_no_deadlock () =
  (* Size 1 is the adversarial case: the only worker must be able to
     wait on a help job by running it itself, including when the pair is
     submitted from inside a pooled job. *)
  let pool = Pool.create ~size:1 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Alcotest.(check (pair int int))
        "pair from the submitting thread" (1, 2)
        (Pool.run_pair pool (fun () -> 1) (fun () -> 2));
      let nested =
        Pool.async pool (fun () -> Pool.run_pair pool (fun () -> 3) (fun () -> 4))
      in
      Alcotest.(check (pair int int)) "pair from inside a pooled job" (3, 4) (Pool.await nested))

let test_run_pair_propagates_exceptions () =
  let pool = Pool.create ~size:1 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      check_bool "help-side exception re-raises" true
        (match Pool.run_pair pool (fun () -> 1) (fun () -> failwith "boom") with
        | exception Failure m -> m = "boom"
        | _ -> false))

(* ------------------------------------------------------------------ *)
(* Suite-level byte identity                                           *)
(* ------------------------------------------------------------------ *)

(* The exact view of a result: status with the target graph's full fact
   rendering, plus the degradation notes — everything the suite prints
   per benchmark, minus wall-clock times. *)
let exact_view (r : Result_.t) =
  let body =
    match r.Result_.status with
    | Result_.Target g -> "target:" ^ Datalog.Encode.graph_to_string ~gid:"d" g
    | Result_.Empty -> "empty"
    | Result_.Failed e -> "failed:" ^ Result_.stage_error_to_string e
  in
  String.concat "|" ((r.Result_.benchmark :: body :: r.Result_.degraded) @ [ string_of_int r.Result_.trials ])

let suite_views ~jobs config progs =
  List.map exact_view (Parallel_runner.run_all ~jobs config progs)

let test_suite_identical_across_canon_and_jobs () =
  let config = Config.default Recorder.Spade in
  let progs = Provmark.Bench_registry.all in
  let reference = suite_views ~jobs:1 config progs in
  Alcotest.(check (list string))
    "-j4 (pair pool engaged) equals -j1" reference (suite_views ~jobs:4 config progs);
  Alcotest.(check (list string))
    "canon off equals default" reference
    (suite_views ~jobs:1 { config with Config.opts = canon_opts false } progs)

let () =
  Alcotest.run "canon"
    [
      ( "digest",
        [
          prop_digest_invariant;
          prop_digest_decides_similarity;
          Alcotest.test_case "canonical witness is an isomorphism" `Quick
            test_witness_is_isomorphism;
        ] );
      ( "bypass",
        [
          Alcotest.test_case "differential vs solver (direct)" `Quick test_bypass_differential;
          Alcotest.test_case "differential vs solver (asp)" `Slow test_bypass_differential_asp;
          Alcotest.test_case "skip counters" `Quick test_skip_counters;
        ] );
      ( "memo",
        [ Alcotest.test_case "renamed instances replay warm" `Slow test_memo_rename_invariant ] );
      ( "pool",
        [
          Alcotest.test_case "run_pair never deadlocks at size 1" `Quick test_run_pair_no_deadlock;
          Alcotest.test_case "run_pair propagates exceptions" `Quick
            test_run_pair_propagates_exceptions;
        ] );
      ( "suite",
        [
          Alcotest.test_case "byte-identical across canon and -j" `Slow
            test_suite_identical_across_canon_and_jobs;
        ] );
    ]
