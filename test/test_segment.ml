(* The hierarchical matching prepass: quotient graphs, segmentation
   plans and the segmented solve path.

   Four layers are pinned here:
   - Pgraph.Summarize: quotients are invariant under relabelling and
     refute non-similar pairs soundly; plans are deterministic and
     decompose the expected shapes (fully forced chains, merged
     symmetric fans, histogram mismatches);
   - the engine: segmented and whole-graph matching agree on every
     verdict and optimal cost — over random pairs, ProvGen corpus pairs
     of every motif mix, and transient-only variants — and stitched
     witnesses always verify;
   - graceful degradation: a segment solve that exhausts the ASP budget
     under --fallback tags the merged result degraded exactly once, on
     the calling domain, sequentially and under the pool runner alike;
   - the pipeline: suite output is byte-identical with segmentation off
     and at the default, and across job counts with segmentation forced on
     for every pair. *)

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

(* Canon stays off in the engine-level tests: the digest bypass would
   answer most pairs before either path under test is reached.  The
   segment floor is zero on the segmented side so even tiny pairs
   decompose. *)
let seg = { Gmatch.Match_opts.default with canon = false; segment_min_nodes = Some 0 }
let whole = { seg with segment_min_nodes = None }

let with_plan plan f =
  Faults.Injector.set_plan (Some plan);
  Faults.Injector.reset_counters ();
  Fun.protect ~finally:(fun () -> Faults.Injector.set_plan None) f

let plan_of_string_exn spec =
  match Faults.Plan.of_string spec with
  | Ok p -> p
  | Error m -> Alcotest.failf "plan %S rejected: %s" spec m

let common_rounds g h = max (Fingerprint.stable_rounds g) (Fingerprint.stable_rounds h)

(* ------------------------------------------------------------------ *)
(* Quotient graphs                                                     *)
(* ------------------------------------------------------------------ *)

let prop_quotient_invariant =
  Helpers.qcheck "quotient digest invariant under relabelling"
    (Helpers.graph_arbitrary ())
    (fun g ->
      let d = Summarize.quotient_digest (Summarize.quotient g) in
      d = Summarize.quotient_digest (Summarize.quotient (Helpers.permute_ids g))
      && d = Summarize.quotient_digest (Summarize.quotient (Helpers.rename_with_prefix "z:" g)))

let prop_similar_pairs_have_equal_quotients =
  (* The soundness direction the refutation rests on: any label-
     isomorphism preserves colours, so similar pairs aggregate to
     structurally equal quotients at a common refinement depth.  (The
     converse is false — equal quotients never *prove* similarity.) *)
  Helpers.qcheck "similar pairs have structurally equal quotients"
    (QCheck.pair (Helpers.graph_arbitrary ()) (Helpers.graph_arbitrary ()))
    (fun (g, h) ->
      let rounds = common_rounds g h in
      let qg = Summarize.quotient ~rounds g and qh = Summarize.quotient ~rounds h in
      (not (Gmatch.Vf2.similar g h)) || Graph.equal_structure qg.Summarize.qgraph qh.Summarize.qgraph)

let prop_quotient_classes_partition =
  Helpers.qcheck "quotient classes partition the nodes"
    (Helpers.graph_arbitrary ())
    (fun g ->
      let q = Summarize.quotient g in
      let members = List.concat_map snd q.Summarize.classes in
      List.length members = Graph.node_count g
      && List.sort_uniq compare members = List.sort compare members)

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

(* A directed chain of identically labelled nodes: refinement separates
   every position by its distance from the ends, so the plan is fully
   forced — no segment ever reaches a solver. *)
let chain n =
  let g = ref Graph.empty in
  for i = 0 to n - 1 do
    g := Graph.add_node !g ~id:(Printf.sprintf "n%d" i) ~label:"activity" ~props:Props.empty
  done;
  for i = 0 to n - 2 do
    g :=
      Graph.add_edge !g
        ~id:(Printf.sprintf "e%d" i)
        ~src:(Printf.sprintf "n%d" i)
        ~tgt:(Printf.sprintf "n%d" (i + 1))
        ~label:"used" ~props:Props.empty
  done;
  !g

(* A short chain feeding a root with [k] indistinguishable leaves: the
   chain and root individualize (forced) while the leaves stay one
   colour class and must become one merged segment instance.  The chain
   matters — without it the leaves-plus-anchor instance would be as
   large as the whole graph and the planner would rightly refuse to
   decompose. *)
let fan k =
  let g = ref (Graph.add_node Graph.empty ~id:"root" ~label:"agent" ~props:Props.empty) in
  List.iter
    (fun (id, label) -> g := Graph.add_node !g ~id ~label ~props:Props.empty)
    [ ("c0", "activity"); ("c1", "document") ];
  g := Graph.add_edge !g ~id:"ce0" ~src:"c0" ~tgt:"c1" ~label:"wasInformedBy" ~props:Props.empty;
  g := Graph.add_edge !g ~id:"ce1" ~src:"c1" ~tgt:"root" ~label:"wasInformedBy" ~props:Props.empty;
  for i = 0 to k - 1 do
    g := Graph.add_node !g ~id:(Printf.sprintf "l%d" i) ~label:"entity" ~props:Props.empty;
    g :=
      Graph.add_edge !g
        ~id:(Printf.sprintf "e%d" i)
        ~src:"root"
        ~tgt:(Printf.sprintf "l%d" i)
        ~label:"used" ~props:Props.empty
  done;
  !g

let segments_of = function
  | Summarize.Segmented p -> p.Summarize.segments
  | Summarize.Whole -> Alcotest.fail "expected a segmented plan, got Whole"
  | Summarize.Mismatch -> Alcotest.fail "expected a segmented plan, got Mismatch"

let test_chain_is_fully_forced () =
  let g = chain 10 in
  let h = Helpers.permute_ids g in
  match Summarize.plan g h with
  | Summarize.Segmented p ->
      check_int "all nodes forced" 10 (List.length p.Summarize.forced_nodes);
      check_int "all edges forced" 9 (List.length p.Summarize.forced_edges);
      check_int "no segments" 0 (List.length p.Summarize.segments);
      check_int "max segment is empty" 0 (Summarize.max_segment_nodes p)
  | Summarize.Whole -> Alcotest.fail "chain plan fell back to whole"
  | Summarize.Mismatch -> Alcotest.fail "isomorphic chains refuted"

let test_fan_merges_symmetric_leaves () =
  let g = fan 5 in
  let h = Helpers.permute_ids g in
  let segs = segments_of (Summarize.plan g h) in
  check_int "one merged segment" 1 (List.length segs);
  let s = List.hd segs in
  check_int "all leaves are one instance" 5 s.Summarize.pieces;
  (* The instance carries the five leaves plus the root's anchor copy,
     whose reserved label no real graph can collide with. *)
  let anchors =
    List.filter
      (fun (n : Graph.node) -> Summarize.is_anchor_label n.Graph.node_label)
      (Graph.nodes s.Summarize.left)
  in
  check_int "exactly one anchor" 1 (List.length anchors);
  check_int "leaves + anchor" 6 (Graph.node_count s.Summarize.left)

let test_histogram_mismatch_refutes () =
  let g = chain 8 in
  (check_bool "extra node refutes" true
     (match Summarize.plan g (Graph.add_node g ~id:"zzz" ~label:"extra" ~props:Props.empty) with
     | Summarize.Mismatch -> true
     | _ -> false));
  let relabelled =
    Graph.empty
    |> fun e ->
    List.fold_left
      (fun acc (n : Graph.node) ->
        Graph.add_node acc ~id:n.Graph.node_id
          ~label:(if n.Graph.node_id = "n0" then "entity" else n.Graph.node_label)
          ~props:n.Graph.node_props)
      e (Graph.nodes g)
  in
  check_bool "label histogram mismatch refutes" true
    (match Summarize.plan g relabelled with Summarize.Mismatch -> true | _ -> false)

let prop_plan_mismatch_is_sound =
  Helpers.qcheck "a Mismatch plan implies VF2 disagreement"
    (QCheck.pair (Helpers.graph_arbitrary ()) (Helpers.graph_arbitrary ()))
    (fun (g, h) ->
      match Summarize.plan g h with
      | Summarize.Mismatch -> not (Gmatch.Vf2.similar g h)
      | Summarize.Whole | Summarize.Segmented _ -> true)

let prop_plan_deterministic =
  Helpers.qcheck "plans are a pure function of the pair"
    (Helpers.graph_arbitrary ())
    (fun g ->
      let h = Helpers.permute_ids g in
      let view = function
        | Summarize.Mismatch -> "mismatch"
        | Summarize.Whole -> "whole"
        | Summarize.Segmented p ->
            String.concat "|"
              (List.map
                 (fun (a, b) -> a ^ ">" ^ b)
                 (p.Summarize.forced_nodes @ p.Summarize.forced_edges)
              @ List.map
                  (fun (s : Summarize.segment) ->
                    Printf.sprintf "%s*%d" s.Summarize.digest s.Summarize.pieces)
                  p.Summarize.segments)
      in
      view (Summarize.plan g h) = view (Summarize.plan g h))

(* ------------------------------------------------------------------ *)
(* Differential: segmented equals whole-graph                          *)
(* ------------------------------------------------------------------ *)

let cost_view = function None -> None | Some (m : Matching.t) -> Some m.Matching.cost

let seg_agree ~backend g h =
  let sim_seg = Engine.similar ~opts:seg ~backend g h in
  let sim_whole = Engine.similar ~opts:whole ~backend g h in
  check_bool "similar agrees" sim_whole sim_seg;
  let gen_seg = Engine.generalization_matching ~opts:seg ~backend g h in
  let gen_whole = Engine.generalization_matching ~opts:whole ~backend g h in
  Alcotest.(check (option int))
    "generalization cost agrees" (cost_view gen_whole) (cost_view gen_seg);
  match gen_seg with
  | Some m ->
      check_bool "stitched witness verifies" true (Matching.verify ~sub:false g h m = Ok ());
      check_int "stitched cost is the witness cost" m.Matching.cost (Matching.cost_of g h m)
  | None -> ()

let perturb_prop g =
  match Graph.nodes g with
  | n :: _ ->
      Graph.set_node_props g n.Graph.node_id (Props.add "perturbed" "yes" n.Graph.node_props)
  | [] -> g

let perturb_shape g = Graph.add_node g ~id:"zzz-extra" ~label:"extra" ~props:Props.empty

let test_differential_direct () =
  let st = Random.State.make [| 17 |] in
  for _ = 1 to 40 do
    let g = Helpers.random_graph st in
    let iso = Helpers.permute_ids g in
    seg_agree ~backend:Engine.Direct g iso;
    seg_agree ~backend:Engine.Direct g (perturb_prop iso);
    seg_agree ~backend:Engine.Direct g (perturb_shape iso);
    (* Unrelated pairs: whatever the verdict, both paths must share it. *)
    seg_agree ~backend:Engine.Direct g (Helpers.random_graph st)
  done

let test_differential_asp () =
  (* The ASP backend is the reference semantics; smaller graphs keep the
     grounding tractable. *)
  let st = Random.State.make [| 18 |] in
  for _ = 1 to 6 do
    let g = Helpers.random_graph ~max_nodes:4 ~max_edges:4 st in
    let iso = Helpers.rename_with_prefix "r:" g in
    seg_agree ~backend:Engine.Asp g iso;
    seg_agree ~backend:Engine.Asp g (perturb_prop iso)
  done

let mixes =
  [
    ("chain", [ (Provgen.Chain, 1) ]);
    ("fan", [ (Provgen.Fan, 1) ]);
    ("diamond", [ (Provgen.Diamond, 1) ]);
    ("even", [ (Provgen.Chain, 1); (Provgen.Fan, 1); (Provgen.Diamond, 1) ]);
  ]

let test_differential_provgen () =
  List.iter
    (fun (_name, motif_weights) ->
      List.iter
        (fun nodes ->
          let spec = { (Provgen.default_spec ~nodes) with Provgen.motif_weights } in
          (* A permuted cross-run pair (similar, small nonzero cost)… *)
          let g, h = Provgen.match_pair ~seed:(100 + nodes) spec in
          seg_agree ~backend:Engine.Direct g h;
          (* …a transient-only variant pair (same identifiers, noise in
             the property values)… *)
          let v1, v2 = Provgen.pair ~seed:(200 + nodes) spec in
          seg_agree ~backend:Engine.Direct v1 v2;
          (* …and a cross-seed pair, which has no reason to align. *)
          let other = Provgen.generate ~seed:(300 + nodes) spec in
          seg_agree ~backend:Engine.Direct g other)
        [ 24; 48 ])
    (List.map (fun (n, w) -> (n, w)) mixes)

(* The serve daemon's [match generalize] requests at the sizes it is
   sent (ProvGen pairs of 128-256 nodes, where every pair segments):
   the rendered text under each backend is pinned to digests of the
   recorded output, so a change to refinement, planning or stitching
   that moves any witness line shows here. *)
let test_serve_texts_pinned () =
  List.iter
    (fun (nodes, seed, expected) ->
      let a, b = Provgen.pair ~seed (Provgen.default_spec ~nodes) in
      List.iter
        (fun backend ->
          let text = Provmark.Match_op.run ~backend Provmark.Match_op.Generalize a b in
          Alcotest.(check string)
            (Printf.sprintf "%d nodes, %s" nodes (Engine.backend_to_string backend))
            expected
            (Digest.to_hex (Digest.string text)))
        [ Engine.Direct; Engine.Incremental ])
    [
      (128, 11, "27b0da4749ff1506297fd23dea3d6350");
      (192, 12, "1b73088b62c711d207e6c2e06710c8a2");
      (256, 13, "eb71540e2a40202d924e9617aa1a5785");
    ];
  (* The daemon's exact input path: each graph crosses the wire as
     PROV-JSON and is parsed back before the default backend runs. *)
  let wire g =
    match
      Provmark.Match_op.parse_graph Provmark.Match_op.Provjson (Recorders.Provjson.to_string g)
    with
    | Ok g -> g
    | Error m -> Alcotest.fail m
  in
  List.iter
    (fun (nodes, seed, expected) ->
      let a, b = Provgen.pair ~seed (Provgen.default_spec ~nodes) in
      let text = Provmark.Match_op.run Provmark.Match_op.Generalize (wire a) (wire b) in
      Alcotest.(check string)
        (Printf.sprintf "%d nodes, seed %d, over PROV-JSON" nodes seed)
        expected
        (Digest.to_hex (Digest.string text)))
    [
      (128, 21, "2c67fa54ed5f8e40163b01d5c6979a72");
      (128, 22, "6094ecf54fa7c34b1ef723bb52f5e697");
      (128, 23, "58bf388cbb6008580e96731a5afca46a");
      (192, 21, "3a1730c6a7f00b48e28b6bd5fd3e9b8f");
      (192, 22, "86416495537f22bfefe27254f77c817c");
      (192, 23, "27da24f26000a69f40c57e492e38d609");
      (256, 21, "768078824d990e3e8a1af176b16c9e45");
      (256, 22, "0a6645282599d3956c9b2f2eacba0ce1");
      (256, 23, "54542b9e01c40743c758f49a5d969c7a");
    ]

(* The canonical form of one request-sized graph: its digest and both
   canonical orders, which the witness lines of every equal-digest pair
   are read off. *)
let test_canon_form_pinned () =
  let g = Provgen.generate ~seed:31 (Provgen.default_spec ~nodes:256) in
  match Canon.form g with
  | None -> Alcotest.fail "no canonical form"
  | Some f ->
      let joined a = Digest.to_hex (Digest.string (String.concat "," (Array.to_list a))) in
      Alcotest.(check string) "digest" "de6ff153c31842818b26e2b04d69cb1f" f.Canon.digest;
      Alcotest.(check string) "node order" "02339c44671a319e29a30acb630b7570" (joined f.Canon.node_order);
      Alcotest.(check string) "edge order" "cd868055ab43a013423a49ca55ed82df" (joined f.Canon.edge_order)

let matching_view = function
  | None -> "none"
  | Some (m : Matching.t) ->
      String.concat "|"
        (List.map (fun (a, b) -> a ^ ">" ^ b) (m.Matching.node_map @ m.Matching.edge_map)
        @ [ string_of_int m.Matching.cost ])

(* The pool help-queue runner must return the same stitched witness as
   the sequential default: thunks fill disjoint array slots, so the
   only thing scheduling could change is nothing.  Size 1 is the
   adversarial pool — the submitting domain must help instead of
   deadlocking on its own queue. *)
let test_pool_runner_deterministic () =
  let spec = Provgen.default_spec ~nodes:48 in
  let g, h = Provgen.match_pair ~seed:148 spec in
  let solve () = Engine.generalization_matching ~opts:seg ~backend:Engine.Direct g h in
  let reference = matching_view (solve ()) in
  List.iter
    (fun size ->
      let pool = Pool.create ~size in
      Engine.set_segment_runner
        (Some
           (fun thunks ->
             match thunks with
             | [] -> ()
             | first :: rest ->
                 let promises = List.map (fun t -> Pool.async ~help:true pool t) rest in
                 first ();
                 List.iter (fun p -> Pool.await_or_help pool p) promises));
      Fun.protect
        ~finally:(fun () ->
          Engine.set_segment_runner None;
          Pool.shutdown pool)
        (fun () ->
          Alcotest.(check string)
            (Printf.sprintf "pool size %d equals sequential" size)
            reference
            (matching_view (solve ()))))
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Exactly-once degradation                                            *)
(* ------------------------------------------------------------------ *)

(* Two fans under differently labelled roots: two colour classes of
   interchangeable leaves, hence two independent segment instances —
   both of which exhaust under a total solver.exhaust fault, and the
   merged result must still carry exactly one degradation note. *)
let double_fan () =
  let g = ref Graph.empty in
  List.iter
    (fun (root, label, leaf_label) ->
      g := Graph.add_node !g ~id:root ~label ~props:Props.empty;
      for i = 0 to 2 do
        let leaf = Printf.sprintf "%s-l%d" root i in
        g := Graph.add_node !g ~id:leaf ~label:leaf_label ~props:Props.empty;
        g :=
          Graph.add_edge !g
            ~id:(Printf.sprintf "%s-e%d" root i)
            ~src:root ~tgt:leaf ~label:"used" ~props:Props.empty
      done)
    [ ("ra", "agent", "entity"); ("rb", "activity", "document") ];
  !g

let exhaust = "seed=7,solver.exhaust=1"

let degraded_notes_of = Engine.collect_notes

let test_fallback_degrades_exactly_once () =
  let g = double_fan () in
  let h = Helpers.permute_ids g in
  check_bool "double fan yields two segments" true
    (List.length (segments_of (Summarize.plan g h)) = 2);
  with_plan (plan_of_string_exn exhaust) (fun () ->
      let verdict, notes =
        degraded_notes_of (fun () -> Engine.similar ~opts:seg ~backend:Engine.Asp g h)
      in
      check_bool "degraded verdict still correct" true verdict;
      Alcotest.(check (list string))
        "one similarity note for two degrading segments"
        [ "asp similarity hit its step limit; fell back to vf2" ]
        notes;
      let m, notes =
        degraded_notes_of (fun () ->
            Engine.generalization_matching ~opts:seg ~backend:Engine.Asp g h)
      in
      Alcotest.(check (list string))
        "one generalization note for two degrading segments"
        [ "asp generalization hit its step limit; fell back to vf2" ]
        notes;
      match m with
      | Some m ->
          check_bool "degraded witness verifies" true (Matching.verify ~sub:false g h m = Ok ())
      | None -> Alcotest.fail "degraded pair must still align")

let test_fallback_note_lands_on_calling_domain () =
  (* Under the pool runner the degrading segments run on worker domains;
     the single note must still reach the submitting domain's buffer —
     per-segment notes would be stranded in per-domain buffers nobody
     drains. *)
  let g = double_fan () in
  let h = Helpers.permute_ids g in
  let pool = Pool.create ~size:4 in
  Engine.set_segment_runner
    (Some
       (fun thunks ->
         match thunks with
         | [] -> ()
         | first :: rest ->
             let promises = List.map (fun t -> Pool.async ~help:true pool t) rest in
             first ();
             List.iter (fun p -> Pool.await_or_help pool p) promises));
  Fun.protect
    ~finally:(fun () ->
      Engine.set_segment_runner None;
      Pool.shutdown pool)
    (fun () ->
      with_plan (plan_of_string_exn exhaust) (fun () ->
          let m, notes =
            degraded_notes_of (fun () ->
                Engine.generalization_matching ~opts:seg ~backend:Engine.Asp g h)
          in
          check_bool "pooled degraded pair aligns" true (m <> None);
          Alcotest.(check (list string))
            "exactly one note on the calling domain"
            [ "asp generalization hit its step limit; fell back to vf2" ]
            notes))

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let test_segment_counters () =
  Engine.reset_segment_stats ();
  Fun.protect ~finally:Engine.reset_segment_stats (fun () ->
      let g = fan 4 in
      let h = Helpers.permute_ids g in
      check_bool "fan pair is similar" true (Engine.similar ~opts:seg ~backend:Engine.Direct g h);
      ignore (Engine.generalization_matching ~opts:seg ~backend:Engine.Direct g h);
      check_bool "quotient refutes the shape-perturbed pair" false
        (Engine.similar ~opts:seg ~backend:Engine.Direct g (perturb_shape h));
      check_bool "similarity pair counted" true
        (List.mem_assoc "similarity" (Engine.segment_pairs ()));
      check_bool "generalization pair counted" true
        (List.mem_assoc "generalization" (Engine.segment_pairs ()));
      check_bool "refutation counted as a skip" true
        (List.mem_assoc "similarity" (Engine.segment_skips ()));
      check_bool "segment instances counted" true (Engine.segment_solves () >= 2);
      check_int "no stitch fallbacks" 0 (Engine.segment_fallbacks ()))

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

let test_suite_identical_across_segment_and_jobs () =
  let config = Config.default Recorder.Spade in
  let progs = Provmark.Bench_registry.all in
  let reference = suite_views ~jobs:1 config progs in
  Alcotest.(check (list string))
    "-j4 equals -j1" reference
    (suite_views ~jobs:4 config progs);
  let segmented segment_min_nodes =
    { config with Config.opts = { config.Config.opts with segment_min_nodes } }
  in
  Alcotest.(check (list string))
    "segmentation off equals default" reference
    (suite_views ~jobs:1 (segmented None) progs);
  (* With the floor at zero every pair the canon gate does not answer
     goes through the segmented path; the stitched witness may differ
     from the whole-graph solver's (that is why the threshold is in the
     backend fingerprint), but the output must not depend on -j. *)
  let forced j = suite_views ~jobs:j (segmented (Some 0)) progs in
  Alcotest.(check (list string)) "floor 0: -j4 equals -j1" (forced 1) (forced 4)

let () =
  Alcotest.run "segment"
    [
      ( "quotient",
        [
          prop_quotient_invariant;
          prop_similar_pairs_have_equal_quotients;
          prop_quotient_classes_partition;
        ] );
      ( "plan",
        [
          Alcotest.test_case "identical-label chain is fully forced" `Quick
            test_chain_is_fully_forced;
          Alcotest.test_case "symmetric fan leaves merge into one instance" `Quick
            test_fan_merges_symmetric_leaves;
          Alcotest.test_case "histogram mismatches refute" `Quick test_histogram_mismatch_refutes;
          prop_plan_mismatch_is_sound;
          prop_plan_deterministic;
        ] );
      ( "differential",
        [
          Alcotest.test_case "segmented equals whole (direct)" `Quick test_differential_direct;
          Alcotest.test_case "segmented equals whole (asp)" `Slow test_differential_asp;
          Alcotest.test_case "segmented equals whole (provgen mixes)" `Slow
            test_differential_provgen;
          Alcotest.test_case "serve texts at 128-256 nodes are pinned" `Quick
            test_serve_texts_pinned;
          Alcotest.test_case "pool runner equals sequential" `Quick test_pool_runner_deterministic;
          Alcotest.test_case "canonical form of a 256-node graph is pinned" `Quick
            test_canon_form_pinned;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "two degrading segments, one note" `Quick
            test_fallback_degrades_exactly_once;
          Alcotest.test_case "note lands on the calling domain" `Quick
            test_fallback_note_lands_on_calling_domain;
        ] );
      ( "counters", [ Alcotest.test_case "skips, pairs and solves" `Quick test_segment_counters ] );
      ( "suite",
        [
          Alcotest.test_case "byte-identical across segment and -j" `Slow
            test_suite_identical_across_segment_and_jobs;
        ] );
    ]
