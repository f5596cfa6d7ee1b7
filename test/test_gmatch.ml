open Pgraph
open Gmatch

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let props = Props.of_list

(* A small provenance-flavoured graph: process reads a file. *)
let read_graph () =
  let g = Graph.add_node Graph.empty ~id:"p1" ~label:"Process" ~props:(props [ ("pid", "100") ]) in
  let g = Graph.add_node g ~id:"f1" ~label:"Artifact" ~props:(props [ ("path", "/tmp/x") ]) in
  Graph.add_edge g ~id:"u1" ~src:"p1" ~tgt:"f1" ~label:"Used" ~props:(props [ ("t", "1") ])

let test_similar_reflexive () =
  let g = read_graph () in
  check_bool "direct" true (Vf2.similar g g);
  check_bool "asp" true (Asp_backend.similar g g)

let test_similar_renamed () =
  let g = read_graph () in
  let h = Helpers.rename_with_prefix "other_" g in
  check_bool "direct" true (Vf2.similar g h);
  check_bool "asp" true (Asp_backend.similar g h)

let test_similar_ignores_props () =
  let g = read_graph () in
  let h = Graph.set_node_props g "p1" (props [ ("pid", "999"); ("extra", "1") ]) in
  check_bool "direct" true (Vf2.similar g h);
  check_bool "asp" true (Asp_backend.similar g h)

let test_not_similar_extra_edge () =
  let g = read_graph () in
  let h = Graph.add_edge g ~id:"u2" ~src:"p1" ~tgt:"f1" ~label:"Used" ~props:Props.empty in
  check_bool "direct" false (Vf2.similar g h);
  check_bool "asp" false (Asp_backend.similar g h)

let test_iso_min_cost_counts_transients () =
  (* Same structure, one transient property differs: cost 1 each way. *)
  let g = read_graph () in
  let h = Graph.set_edge_props (Helpers.rename_with_prefix "r" g) "ru1" (props [ ("t", "2") ]) in
  (match Vf2.iso_min_cost g h with
  | Some m -> check_int "direct cost" 1 m.Matching.cost
  | None -> Alcotest.fail "direct: expected matching");
  match Asp_backend.iso_min_cost g h with
  | Some m -> check_int "asp cost" 1 m.Matching.cost
  | None -> Alcotest.fail "asp: expected matching"

let test_subgraph_in_larger () =
  let bg = read_graph () in
  (* Foreground adds one node and edge — the "target activity". *)
  let fg = Graph.add_node (Helpers.rename_with_prefix "F" bg) ~id:"new" ~label:"Artifact" ~props:Props.empty in
  let fg = Graph.add_edge fg ~id:"gen" ~src:"Fp1" ~tgt:"new" ~label:"WasGeneratedBy" ~props:Props.empty in
  (match Vf2.sub_iso_min_cost bg fg with
  | Some m ->
      check_int "direct cost" 0 m.Matching.cost;
      Alcotest.(check (result unit string)) "verifies" (Ok ()) (Matching.verify ~sub:true bg fg m)
  | None -> Alcotest.fail "direct: expected embedding");
  match Asp_backend.sub_iso_min_cost bg fg with
  | Some m ->
      check_int "asp cost" 0 m.Matching.cost;
      Alcotest.(check (result unit string)) "verifies" (Ok ()) (Matching.verify ~sub:true bg fg m)
  | None -> Alcotest.fail "asp: expected embedding"

let test_matching_verify_detects_garbage () =
  let g = read_graph () in
  let h = Helpers.rename_with_prefix "X" g in
  let bogus = { Matching.node_map = [ ("p1", "Xf1") ]; edge_map = []; cost = 0 } in
  check_bool "rejects label change" true (Result.is_error (Matching.verify ~sub:true g h bogus))

(* [Matching.verify]'s messages and the order of its checks, one row
   per failure class (values recorded from the Set-based
   implementation): injectivity, then left coverage of nodes and edges,
   then surjectivity, then node pairs in map order, then edge pairs. *)
let test_verify_messages () =
  let left = Graph.add_node (read_graph ()) ~id:"f2" ~label:"Artifact" ~props:Props.empty in
  let left = Graph.add_edge left ~id:"u2" ~src:"p1" ~tgt:"f2" ~label:"Used" ~props:Props.empty in
  let right = Helpers.rename_with_prefix "X" left in
  let bigger = Graph.add_node right ~id:"Xextra" ~label:"Artifact" ~props:Props.empty in
  let relabelled =
    Graph.add_edge
      (Graph.remove_edge right "Xu2")
      ~id:"Xu2" ~src:"Xp1" ~tgt:"Xf2" ~label:"WasGeneratedBy" ~props:Props.empty
  in
  let nodes = [ ("p1", "Xp1"); ("f1", "Xf1"); ("f2", "Xf2") ] in
  let edges = [ ("u1", "Xu1"); ("u2", "Xu2") ] in
  let rows =
    [
      ("identity", false, right, nodes, edges, "ok");
      ("node image repeated", false, right, [ ("p1", "Xp1"); ("f1", "Xf1"); ("f2", "Xf1") ], edges,
        "matching is not injective");
      ("node repeated", false, right, [ ("p1", "Xp1"); ("f1", "Xf1"); ("f1", "Xf2") ], edges,
        "matching is not injective");
      ("edge image repeated", false, right, nodes, [ ("u1", "Xu1"); ("u2", "Xu1") ], "matching is not injective");
      ("left node missing", false, right, [ ("p1", "Xp1"); ("f1", "Xf1") ], edges, "not all left nodes are matched");
      ("left edge missing", false, right, nodes, [ ("u1", "Xu1") ], "not all left edges are matched");
      ("not surjective", false, bigger, nodes, edges, "matching is not surjective");
      ("embedding need not be surjective", true, bigger, nodes, edges, "ok");
      ("node label changes", false, right, [ ("p1", "Xf1"); ("f1", "Xp1"); ("f2", "Xf2") ], edges,
        "node p1 -> Xf1 changes label");
      ("edge label changes", false, relabelled, nodes, edges, "edge u2 -> Xu2 changes label");
      ("endpoints change", false, right, [ ("p1", "Xp1"); ("f1", "Xf2"); ("f2", "Xf1") ], edges,
        "edge u1 -> Xu1 does not preserve endpoints");
      ("unknown right node", false, right, [ ("p1", "Xp1"); ("f1", "Xzz"); ("f2", "Xf2") ], edges,
        "node pair f1 -> Xzz refers to missing nodes");
      ("unknown left node", false, right, [ ("zz", "Xp1"); ("f1", "Xf1"); ("f2", "Xf2") ], edges,
        "node pair zz -> Xp1 refers to missing nodes");
      ("unknown right edge", false, right, nodes, [ ("u1", "Xzz"); ("u2", "Xu2") ], "edge pair u1 -> Xzz refers to missing edges");
      ("unknown left edge", false, right, nodes, [ ("zz", "Xu1"); ("u2", "Xu2") ], "edge pair zz -> Xu1 refers to missing edges");
      ("injectivity before coverage", false, bigger, [ ("p1", "Xp1"); ("f1", "Xp1") ], edges,
        "matching is not injective");
      ("node coverage before edge coverage", false, right, [ ("p1", "Xp1") ], [], "not all left nodes are matched");
      ("coverage before surjectivity", true, right, nodes, [ ("u1", "Xu1") ], "not all left edges are matched");
      ("node pairs before edge pairs", false, relabelled,
        [ ("p1", "Xp1"); ("f1", "Xf2"); ("f2", "Xzz") ], edges, "node pair f2 -> Xzz refers to missing nodes");
      ("first failing node pair wins", false, right,
        [ ("p1", "Xzz"); ("f1", "Xp1"); ("f2", "Xf2") ], edges, "node pair p1 -> Xzz refers to missing nodes");
    ]
  in
  List.iter
    (fun (name, sub, right, node_map, edge_map, expected) ->
      let m = { Matching.node_map; edge_map; cost = 0 } in
      let got = match Matching.verify ~sub left right m with Ok () -> "ok" | Error e -> e in
      Alcotest.(check string) name expected got)
    rows

let test_paper_choice_note () =
  (* Section 3.4: matching the larger graph into the smaller one fails,
     while smaller-into-larger succeeds. *)
  let small = read_graph () in
  let large = Graph.add_node (Helpers.rename_with_prefix "L" small) ~id:"extra" ~label:"Artifact" ~props:Props.empty in
  let large = Graph.add_edge large ~id:"e_extra" ~src:"Lp1" ~tgt:"extra" ~label:"Used" ~props:Props.empty in
  check_bool "small embeds in large" true (Option.is_some (Vf2.sub_iso_min_cost small large));
  check_bool "large does not embed in small" true (Option.is_none (Vf2.sub_iso_min_cost large small))

let test_engine_dispatch () =
  let g = read_graph () in
  check_bool "asp backend" true (Engine.similar ~backend:Engine.Asp g g);
  check_bool "direct backend" true (Engine.similar ~backend:Engine.Direct g g);
  check_bool "of_string" true (Engine.backend_of_string "asp" = Ok Engine.Asp);
  check_bool "of_string bad" true (Result.is_error (Engine.backend_of_string "nope"))

let small_arb = Helpers.graph_arbitrary ~max_nodes:4 ~max_edges:4 ()

let pair_arb = QCheck.pair small_arb small_arb

(* ------------------------------------------------------------------ *)
(* Incremental backend (Section 5.4 suggestion)                        *)
(* ------------------------------------------------------------------ *)

let test_incremental_certifies_aligned_graphs () =
  Incremental.reset_stats ();
  (* Two runs of the same deterministic program produce elements in the
     same creation order: the greedy path must certify. *)
  let g1 = read_graph () in
  let g2 = Graph.set_edge_props (Helpers.rename_with_prefix "x" (read_graph ())) "xu1"
      (props [ ("t", "99") ]) in
  (match Incremental.iso_min_cost g1 g2 with
  | Some m -> check_int "optimal cost via fast path" 1 m.Matching.cost
  | None -> Alcotest.fail "expected matching");
  let cert, fb = Incremental.stats () in
  check_int "certified" 1 cert;
  check_int "no fallback" 0 fb

let test_incremental_falls_back () =
  Incremental.reset_stats ();
  (* Reversed creation order breaks the greedy alignment (labels land in
     a different sequence), forcing the exact fallback — same result. *)
  let g1 = read_graph () in
  let g2 = Helpers.permute_ids (Graph.set_node_props g1 "p1" (props [ ("pid", "7") ])) in
  let direct = Vf2.iso_min_cost g1 g2 in
  let inc = Incremental.iso_min_cost g1 g2 in
  (match (direct, inc) with
  | Some a, Some b -> check_int "same cost" a.Matching.cost b.Matching.cost
  | None, None -> ()
  | _ -> Alcotest.fail "backends disagree")

let prop_incremental_agrees_with_direct =
  Helpers.qcheck ~count:80 "incremental backend returns exact costs" pair_arb (fun (g1, g2) ->
      match (Vf2.sub_iso_min_cost g1 g2, Incremental.sub_iso_min_cost g1 g2) with
      | None, None -> true
      | Some a, Some b -> a.Matching.cost = b.Matching.cost
      | Some _, None | None, Some _ -> false)

let prop_incremental_similar_agrees =
  Helpers.qcheck ~count:80 "incremental similarity equals direct" pair_arb (fun (g1, g2) ->
      Incremental.similar g1 g2 = Vf2.similar g1 g2)

(* ------------------------------------------------------------------ *)
(* Cross-checking the two backends on random graphs                    *)
(* ------------------------------------------------------------------ *)

let prop_backends_agree_similar =
  Helpers.qcheck ~count:60 "backends agree on similarity" pair_arb (fun (g1, g2) ->
      Vf2.similar g1 g2 = Asp_backend.similar g1 g2)

let prop_backends_agree_on_self_similarity =
  Helpers.qcheck ~count:60 "every graph is similar to a renamed copy (both backends)" small_arb
    (fun g ->
      let h = Helpers.permute_ids g in
      Vf2.similar g h && Asp_backend.similar g h)

let prop_backends_agree_subgraph_cost =
  Helpers.qcheck ~count:40 "backends agree on optimal embedding cost" pair_arb (fun (g1, g2) ->
      match (Vf2.sub_iso_min_cost g1 g2, Asp_backend.sub_iso_min_cost g1 g2) with
      | None, None -> true
      | Some a, Some b -> a.Matching.cost = b.Matching.cost
      | Some _, None | None, Some _ -> false)

let prop_subgraph_of_self_is_free =
  Helpers.qcheck ~count:60 "embedding a graph into itself has zero cost" small_arb (fun g ->
      match Vf2.sub_iso_min_cost g g with
      | Some m -> m.Matching.cost = 0
      | None -> false)

let prop_random_subgraph_embeds =
  Helpers.qcheck ~count:60 "a random subgraph embeds into its supergraph" small_arb (fun g ->
      let st = Random.State.make [| Graph.size g; 42 |] in
      let sub = Helpers.random_subgraph st g in
      match Vf2.sub_iso_min_cost sub g with
      | Some m -> m.Matching.cost = 0 && Result.is_ok (Matching.verify ~sub:true sub g m)
      | None -> false)

let prop_reported_cost_is_recomputable =
  Helpers.qcheck ~count:40 "reported cost equals recomputed cost" pair_arb (fun (g1, g2) ->
      match Vf2.sub_iso_min_cost g1 g2 with
      | None -> true
      | Some m -> m.Matching.cost = Matching.cost_of g1 g2 m)

let prop_matchings_verify =
  Helpers.qcheck ~count:40 "optimal matchings verify structurally (both backends)" pair_arb
    (fun (g1, g2) ->
      let ok = function
        | None -> true
        | Some m -> Result.is_ok (Matching.verify ~sub:true g1 g2 m)
      in
      ok (Vf2.sub_iso_min_cost g1 g2) && ok (Asp_backend.sub_iso_min_cost g1 g2))

let () =
  Alcotest.run "gmatch"
    [
      ( "similar",
        [
          Alcotest.test_case "reflexive" `Quick test_similar_reflexive;
          Alcotest.test_case "invariant under renaming" `Quick test_similar_renamed;
          Alcotest.test_case "ignores properties" `Quick test_similar_ignores_props;
          Alcotest.test_case "extra edge breaks similarity" `Quick test_not_similar_extra_edge;
        ] );
      ( "matching",
        [
          Alcotest.test_case "generalization counts transients" `Quick test_iso_min_cost_counts_transients;
          Alcotest.test_case "background embeds in foreground" `Quick test_subgraph_in_larger;
          Alcotest.test_case "verify rejects bogus matchings" `Quick test_matching_verify_detects_garbage;
          Alcotest.test_case "pair-choice note from section 3.4" `Quick test_paper_choice_note;
          Alcotest.test_case "engine dispatch" `Quick test_engine_dispatch;
          Alcotest.test_case "verify messages and check order" `Quick test_verify_messages;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "fast path certifies" `Quick test_incremental_certifies_aligned_graphs;
          Alcotest.test_case "fallback agrees" `Quick test_incremental_falls_back;
          prop_incremental_agrees_with_direct;
          prop_incremental_similar_agrees;
        ] );
      ( "properties",
        [
          prop_backends_agree_similar;
          prop_backends_agree_on_self_similarity;
          prop_backends_agree_subgraph_cost;
          prop_subgraph_of_self_is_free;
          prop_random_subgraph_embeds;
          prop_reported_cost_is_recomputable;
          prop_matchings_verify;
        ] );
    ]
