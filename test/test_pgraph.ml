open Pgraph

let props l = Props.of_list l

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Props                                                               *)
(* ------------------------------------------------------------------ *)

let test_props_basic () =
  let p = props [ ("a", "1"); ("b", "2") ] in
  check_int "cardinal" 2 (Props.cardinal p);
  check_bool "mem a" true (Props.mem "a" p);
  Alcotest.(check (option string)) "find b" (Some "2") (Props.find "b" p);
  Alcotest.(check (option string)) "find missing" None (Props.find "c" p);
  let p' = Props.remove "a" p in
  check_int "after remove" 1 (Props.cardinal p');
  check_bool "empty" true (Props.is_empty Props.empty)

let test_props_override () =
  let p = props [ ("k", "old"); ("k", "new") ] in
  Alcotest.(check (option string)) "later wins" (Some "new") (Props.find "k" p);
  check_int "single binding" 1 (Props.cardinal p)

let test_props_intersect () =
  let p = props [ ("a", "1"); ("b", "2"); ("c", "3") ] in
  let q = props [ ("a", "1"); ("b", "different"); ("d", "4") ] in
  let i = Props.intersect p q in
  Alcotest.(check (list (pair string string))) "keeps equal bindings" [ ("a", "1") ] (Props.to_list i)

let test_props_mismatch_cost () =
  let p = props [ ("a", "1"); ("b", "2"); ("c", "3") ] in
  let q = props [ ("a", "1"); ("b", "x") ] in
  check_int "cost p->q" 2 (Props.mismatch_cost p q);
  check_int "cost q->p" 1 (Props.mismatch_cost q p);
  check_int "symmetric" 3 (Props.symmetric_mismatch p q);
  check_int "self cost" 0 (Props.mismatch_cost p p)

let test_props_sorted () =
  let p = props [ ("z", "1"); ("a", "2"); ("m", "3") ] in
  Alcotest.(check (list string)) "keys sorted" [ "a"; "m"; "z" ] (Props.keys p)

(* ------------------------------------------------------------------ *)
(* Graph construction                                                  *)
(* ------------------------------------------------------------------ *)

let two_node_graph () =
  let g = Graph.empty in
  let g = Graph.add_node g ~id:"n1" ~label:"entity" ~props:(props [ ("name", "f" ) ]) in
  let g = Graph.add_node g ~id:"n2" ~label:"activity" ~props:Props.empty in
  Graph.add_edge g ~id:"e1" ~src:"n2" ~tgt:"n1" ~label:"used" ~props:Props.empty

let test_graph_basic () =
  let g = two_node_graph () in
  check_int "nodes" 2 (Graph.node_count g);
  check_int "edges" 1 (Graph.edge_count g);
  check_int "size" 3 (Graph.size g);
  check_bool "mem n1" true (Graph.mem_node g "n1");
  check_bool "no n3" false (Graph.mem_node g "n3");
  check_string "summary" "2 nodes, 1 edges" (Graph.summary g)

let test_graph_duplicate_node () =
  let g = two_node_graph () in
  Alcotest.check_raises "duplicate node id"
    (Invalid_argument "Pgraph.Graph.add_node: duplicate identifier n1") (fun () ->
      ignore (Graph.add_node g ~id:"n1" ~label:"x" ~props:Props.empty))

let test_graph_dangling_edge () =
  let g = two_node_graph () in
  Alcotest.check_raises "unknown endpoint"
    (Invalid_argument "Pgraph.Graph.add_edge: unknown source nope") (fun () ->
      ignore (Graph.add_edge g ~id:"e2" ~src:"nope" ~tgt:"n1" ~label:"x" ~props:Props.empty))

let test_graph_edge_id_clash_with_node () =
  let g = two_node_graph () in
  Alcotest.check_raises "edge id reuses node id"
    (Invalid_argument "Pgraph.Graph.add_edge: duplicate identifier n1") (fun () ->
      ignore (Graph.add_edge g ~id:"n1" ~src:"n2" ~tgt:"n1" ~label:"x" ~props:Props.empty))

let test_incidence () =
  let g = two_node_graph () in
  check_int "out of n2" 1 (List.length (Graph.out_edges g "n2"));
  check_int "in of n2" 0 (List.length (Graph.in_edges g "n2"));
  check_int "incident n1" 1 (List.length (Graph.incident_edges g "n1"))

let test_remove_node_cascades () =
  let g = two_node_graph () in
  let g = Graph.remove_node g "n1" in
  check_int "node removed" 1 (Graph.node_count g);
  check_int "incident edge removed" 0 (Graph.edge_count g)

let test_map_ids () =
  let g = two_node_graph () in
  let g' = Graph.map_ids (fun id -> "p_" ^ id) g in
  check_bool "renamed node" true (Graph.mem_node g' "p_n1");
  check_bool "old id gone" false (Graph.mem_node g' "n1");
  let e = Option.get (Graph.find_edge g' "p_e1") in
  check_string "edge src renamed" "p_n2" e.Graph.edge_src

let test_equality () =
  let g = two_node_graph () in
  let h = two_node_graph () in
  check_bool "equal" true (Graph.equal g h);
  check_bool "equal structure" true (Graph.equal_structure g h);
  let h' = Graph.set_node_props h "n1" (props [ ("name", "other") ]) in
  check_bool "props differ" false (Graph.equal g h');
  check_bool "structure same" true (Graph.equal_structure g h')

(* ------------------------------------------------------------------ *)
(* Subtraction with dummy nodes                                        *)
(* ------------------------------------------------------------------ *)

let test_subtract_keeps_dummies () =
  (* n1 -> n2 -> n3; subtracting n1, n2 and the first edge must keep n2
     as a dummy because the surviving edge e2 still points out of it. *)
  let g = Graph.empty in
  let g = Graph.add_node g ~id:"n1" ~label:"a" ~props:Props.empty in
  let g = Graph.add_node g ~id:"n2" ~label:"b" ~props:(props [ ("k", "v") ]) in
  let g = Graph.add_node g ~id:"n3" ~label:"c" ~props:Props.empty in
  let g = Graph.add_edge g ~id:"e1" ~src:"n1" ~tgt:"n2" ~label:"x" ~props:Props.empty in
  let g = Graph.add_edge g ~id:"e2" ~src:"n2" ~tgt:"n3" ~label:"y" ~props:Props.empty in
  let d = Graph.subtract_matched g ~matched_nodes:[ "n1"; "n2" ] ~matched_edges:[ "e1" ] in
  check_int "nodes left" 2 (Graph.node_count d);
  check_int "edges left" 1 (Graph.edge_count d);
  let n2 = Option.get (Graph.find_node d "n2") in
  check_bool "n2 is dummy" true (Graph.is_dummy n2);
  check_bool "dummy props cleared" true (Props.is_empty n2.Graph.node_props);
  check_bool "n1 fully gone" false (Graph.mem_node d "n1")

let test_subtract_all () =
  let g = two_node_graph () in
  let d =
    Graph.subtract_matched g ~matched_nodes:[ "n1"; "n2" ] ~matched_edges:[ "e1" ]
  in
  check_int "empty result" 0 (Graph.size d)

let test_subtract_nothing () =
  let g = two_node_graph () in
  let d = Graph.subtract_matched g ~matched_nodes:[] ~matched_edges:[] in
  check_bool "unchanged" true (Graph.equal g d)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats () =
  let g = two_node_graph () in
  let s = Stats.of_graph g in
  check_int "nodes" 2 s.Stats.nodes;
  check_int "edges" 1 s.Stats.edges;
  check_int "props" 1 s.Stats.properties;
  check_int "components" 1 s.Stats.connected_components;
  check_string "shape" "2n/1e" (Stats.shape_line s)

let test_stats_components () =
  let g = Graph.empty in
  let g = Graph.add_node g ~id:"a" ~label:"x" ~props:Props.empty in
  let g = Graph.add_node g ~id:"b" ~label:"x" ~props:Props.empty in
  let s = Stats.of_graph g in
  check_int "two components" 2 s.Stats.connected_components;
  check_string "shape mentions components" "2n/0e (2 components)" (Stats.shape_line s)

(* ------------------------------------------------------------------ *)
(* Fingerprints (property-based)                                       *)
(* ------------------------------------------------------------------ *)

let arb = Helpers.graph_arbitrary ()

let prop_fingerprint_rename_invariant =
  Helpers.qcheck "fingerprint invariant under id renaming" arb (fun g ->
      Fingerprint.equal (Fingerprint.of_graph g)
        (Fingerprint.of_graph (Helpers.rename_with_prefix "z" g)))

let prop_fingerprint_permute_invariant =
  Helpers.qcheck "fingerprint invariant under id permutation" arb (fun g ->
      Fingerprint.equal (Fingerprint.of_graph g) (Fingerprint.of_graph (Helpers.permute_ids g)))

let prop_fingerprint_ignores_props =
  Helpers.qcheck "fingerprint ignores properties" arb (fun g ->
      let stripped =
        List.fold_left
          (fun acc (n : Graph.node) -> Graph.set_node_props acc n.Graph.node_id Props.empty)
          g (Graph.nodes g)
      in
      Fingerprint.equal (Fingerprint.of_graph g) (Fingerprint.of_graph stripped))

let prop_fingerprint_detects_label_change =
  Helpers.qcheck "fingerprint changes when a node label changes" arb (fun g ->
      match Graph.nodes g with
      | [] -> true
      | (n : Graph.node) :: _ ->
          let changed =
            Graph.remove_node g n.Graph.node_id |> fun g' ->
            Graph.add_node g' ~id:n.Graph.node_id ~label:"completely-fresh-label"
              ~props:n.Graph.node_props
          in
          (* Removing the node also removes its incident edges, so only
             compare when the node was isolated. *)
          Graph.incident_edges g n.Graph.node_id <> []
          || not (Fingerprint.equal (Fingerprint.of_graph g) (Fingerprint.of_graph changed)))

(* [Fingerprint.Hash.string] against the definition it replaced: a
   [String.iter] fold of FNV-1a steps.  Every byte value occurs, so
   bytes at and above 0x80 (which [Char.code] must not sign-extend)
   are covered, and so is the empty string. *)
let reference_hash_string h s =
  let h = ref h in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  !h

let prop_hash_string_reference =
  let any_byte = QCheck.Gen.map Char.chr (QCheck.Gen.int_range 0 255) in
  let bytes = QCheck.string_gen_of_size (QCheck.Gen.int_range 0 40) any_byte in
  Helpers.qcheck ~count:500 "Hash.string equals the String.iter fold"
    (QCheck.pair (QCheck.oneof [ QCheck.always Fingerprint.Hash.seed; QCheck.int64 ]) bytes)
    (fun (seed, s) ->
      Int64.equal (Fingerprint.Hash.string seed s) (reference_hash_string seed s)
      && Int64.equal (Fingerprint.Hash.string seed "") seed)

(* One refinement round against the list-based definition it
   replaced: each side's (edge label, neighbour colour) hashes sorted
   and folded.  Dense graphs on few nodes give degrees past the
   insertion-sort cut-off, so both sorting paths are compared. *)
let reference_refine g colours =
  let module H = Fingerprint.Hash in
  let index = Hashtbl.create 16 in
  List.iteri (fun i id -> Hashtbl.replace index id i) (Graph.node_ids g);
  let out_side id =
    List.map
      (fun (e : Graph.edge) -> (H.string H.seed e.Graph.edge_label, Hashtbl.find index e.Graph.edge_tgt))
      (List.filter (fun (e : Graph.edge) -> e.Graph.edge_src = id) (Graph.edges g))
  and in_side id =
    List.map
      (fun (e : Graph.edge) ->
        (H.string (H.string H.seed "in") e.Graph.edge_label, Hashtbl.find index e.Graph.edge_src))
      (List.filter (fun (e : Graph.edge) -> e.Graph.edge_tgt = id) (Graph.edges g))
  in
  let ids = Array.of_list (Graph.node_ids g) in
  Array.mapi
    (fun i c ->
      let fold side =
        List.map (fun (lab, j) -> H.int64 lab colours.(j)) side
        |> List.sort Int64.compare
        |> List.fold_left H.int64 H.seed
      in
      H.int64 (H.int64 c (fold (out_side ids.(i)))) (fold (in_side ids.(i))))
    colours

let prop_refine_reference =
  Helpers.qcheck ~count:200 "refinement rounds equal the list-based definition"
    (QCheck.pair (Helpers.graph_arbitrary ~max_nodes:4 ~max_edges:60 ()) arb)
    (fun (dense, sparse) ->
      List.for_all
        (fun g ->
          let s = Fingerprint.settled g in
          let c0 = Fingerprint.label_colours g in
          let c1 = reference_refine g c0 in
          Fingerprint.refine s 1 c0 = c1
          && Fingerprint.refine s 2 c0 = reference_refine g c1)
        [ dense; sparse ])

(* ------------------------------------------------------------------ *)
(* Element order and incidence against whole-list definitions          *)

(* The definitions the frozen graph replaced, kept as the oracle: [g]
   built from [nodes] and [edges] lists them in id order, and each
   incidence query is a filter of the whole id-ordered edge list (an id
   that is no node gets nothing). *)
let matches_list_definitions ~nodes ~edges g =
  let by_id id = List.sort (fun a b -> String.compare (id a) (id b)) in
  let edges = by_id (fun (e : Graph.edge) -> e.Graph.edge_id) edges in
  let ids = "no such node" :: List.map (fun (n : Graph.node) -> n.Graph.node_id) nodes in
  let query q keep = List.for_all (fun id -> q g id = List.filter (keep id) edges) ids in
  Graph.nodes g = by_id (fun (n : Graph.node) -> n.Graph.node_id) nodes
  && Graph.edges g = edges
  && query Graph.out_edges (fun id e -> String.equal e.Graph.edge_src id)
  && query Graph.in_edges (fun id e -> String.equal e.Graph.edge_tgt id)
  && query Graph.incident_edges (fun id e ->
         String.equal e.Graph.edge_src id || String.equal e.Graph.edge_tgt id)

(* The elements added to a builder in a shuffled order, nodes first. *)
let build_shuffled st nodes edges =
  let shuffle l =
    List.map (fun x -> (Random.State.bits st, x)) l
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map snd
  in
  let b = Graph.Builder.create () in
  List.iter
    (fun (n : Graph.node) ->
      Graph.Builder.add_node b ~id:n.Graph.node_id ~label:n.Graph.node_label ~props:n.Graph.node_props)
    (shuffle nodes);
  List.iter
    (fun (e : Graph.edge) ->
      Graph.Builder.add_edge b ~id:e.Graph.edge_id ~src:e.Graph.edge_src ~tgt:e.Graph.edge_tgt
        ~label:e.Graph.edge_label ~props:e.Graph.edge_props)
    (shuffle edges);
  Graph.Builder.freeze b

let check_list_definitions st g =
  let nodes = Graph.nodes g and edges = Graph.edges g in
  matches_list_definitions ~nodes ~edges g
  && matches_list_definitions ~nodes ~edges (build_shuffled st nodes edges)

(* ProvGen graphs with self-loops and parallel copies of edges added. *)
let prop_incidence_provgen =
  Helpers.qcheck ~count:60 "incidence equals whole-edge-list filters (ProvGen, loops, parallels)"
    QCheck.(triple (int_range 1 80) small_nat int)
    (fun (n, extra, seed) ->
      let st = Random.State.make [| seed |] in
      let g = Provgen.generate ~seed (Provgen.default_spec ~nodes:n) in
      let node_ids = Array.of_list (Graph.node_ids g) and edges = Array.of_list (Graph.edges g) in
      let pick a = a.(Random.State.int st (Array.length a)) in
      let added =
        List.init extra (fun k ->
            if k mod 2 = 0 || Array.length edges = 0 then
              let v = pick node_ids in
              {
                Graph.edge_id = Printf.sprintf "loop%d" k;
                edge_src = v;
                edge_tgt = v;
                edge_label = "self";
                edge_props = Props.empty;
              }
            else { (pick edges) with Graph.edge_id = Printf.sprintf "par%d" k })
      in
      let nodes = Graph.nodes g and edges = Graph.edges g @ added in
      matches_list_definitions ~nodes ~edges (build_shuffled st nodes edges))

(* Graphs from every recorder, as built and as read back from their
   output formats, including the recorders' filtering paths. *)
let test_incidence_recorders () =
  let st = Random.State.make [| 29 |] in
  let programs = List.filteri (fun i _ -> i mod 4 = 0) Provmark.Bench_registry.all in
  List.iter
    (fun prog ->
      let trace = Oskernel.Kernel.run ~run_id:1 prog Oskernel.Program.Foreground in
      let spade_io = { Recorders.Spade.default_config with io_runs = true; io_runs_fixed = true } in
      let camflow_filtered = { Recorders.Camflow.default_config with filter_types = [ "path" ] } in
      List.iter
        (fun (name, g) ->
          check_bool (prog.Oskernel.Program.name ^ " " ^ name) true (check_list_definitions st g))
        [
          ("spade", Recorders.Spade.build trace);
          ("spade io runs", Recorders.Spade.build ~config:spade_io trace);
          ( "spade dot",
            Recorders.Dot.to_pgraph (Recorders.Dot.of_string (Recorders.Spade.record ~truncate_edges:1 trace)) );
          ("camflow", Recorders.Camflow.build ~drop_edge_index:3 trace);
          ("camflow filtered", Recorders.Camflow.build ~config:camflow_filtered trace);
          ("camflow json", Recorders.Provjson.of_string (Recorders.Camflow.record trace));
          ("opus", Recorders.Opus.of_dump (Graphstore.Store.dump (Recorders.Opus.record trace)));
          ("spade-camflow", Recorders.Spade_camflow.build trace);
        ])
    programs

let prop_subtract_never_raises =
  Helpers.qcheck "subtract_matched total on arbitrary subsets" arb (fun g ->
      let nodes = Graph.node_ids g in
      let edges = Graph.edge_ids g in
      let half l = List.filteri (fun i _ -> i mod 2 = 0) l in
      let d = Graph.subtract_matched g ~matched_nodes:(half nodes) ~matched_edges:(half edges) in
      Graph.size d <= Graph.size g)

let prop_components_bounds =
  Helpers.qcheck "component count is between 1 and node count" arb (fun g ->
      let s = Stats.of_graph g in
      s.Stats.connected_components >= min 1 s.Stats.nodes
      && s.Stats.connected_components <= max 1 s.Stats.nodes)

(* ------------------------------------------------------------------ *)
(* Pinned refinement values                                            *)
(* ------------------------------------------------------------------ *)

(* A fixed graph with a parallel bundle (e1/e2), a self-loop (e3), two
   interchangeable entities (c, f) and a seven-node chain of one label
   that takes three rounds to separate. *)
let pin_graph () =
  let n g id label l = Graph.add_node g ~id ~label ~props:(props l) in
  let e g id src tgt label = Graph.add_edge g ~id ~src ~tgt ~label ~props:Props.empty in
  let g = Graph.empty in
  let g = n g "a" "activity" [ ("name", "open") ] in
  let g = n g "b" "entity" [ ("path", "/tmp/x") ] in
  let g = n g "c" "entity" [] in
  let g = n g "d" "agent" [ ("uid", "0") ] in
  let g = n g "f" "entity" [] in
  let g = e g "e1" "a" "b" "used" in
  let g = e g "e2" "a" "b" "used" in
  let g = e g "e3" "b" "b" "wasDerivedFrom" in
  let g = e g "e4" "c" "a" "wasGeneratedBy" in
  let g = e g "e5" "a" "d" "wasAssociatedWith" in
  let g = e g "e6" "f" "a" "wasGeneratedBy" in
  let g = ref g in
  for i = 0 to 6 do
    g := n !g (Printf.sprintf "p%d" i) "process" []
  done;
  for i = 0 to 5 do
    g :=
      e !g (Printf.sprintf "w%d" i) (Printf.sprintf "p%d" i)
        (Printf.sprintf "p%d" (i + 1))
        "wasInformedBy"
  done;
  !g

let colours_digest l =
  Digest.to_hex
    (Digest.string
       (String.concat ";" (List.map (fun (id, c) -> Printf.sprintf "%s=%016Lx" id c) l)))

(* The refinement's hash values reach disk and the fault model: store
   keys (graph_digest folds in of_graph), canonical digests and
   witnesses, quotient digests, and the solver's fault-site names.  A
   drift in any of them orphans every artifact store and moves every
   chaos-plan fault, so the values are pinned, not just their
   invariances. *)
let test_refinement_pinned () =
  let g = pin_graph () in
  check_string "of_graph" "74db7f95956db36c" (Fingerprint.to_hex (Fingerprint.of_graph g));
  check_int "stable_rounds" 3 (Fingerprint.stable_rounds g);
  check_string "node_colours ~rounds:2" "13a716d0f91c628be7c1749276f2c03d"
    (colours_digest (Fingerprint.node_colours ~rounds:2 g));
  check_string "edge_colours ~rounds:3" "5a10432323713e712a8c3e16508e273b"
    (colours_digest (Fingerprint.edge_colours ~rounds:3 g));
  check_string "quotient_digest" "8c0e78af918498a5be34b9b9ff2ff896"
    (Summarize.quotient_digest (Summarize.quotient g));
  Alcotest.(check (option string))
    "Canon.digest" (Some "c939f12e4a3241623cc8c076974321b8") (Canon.digest g);
  check_string "Artifact_store.graph_digest" "48ce23ca7824d22a386494a757f744d4"
    (Provmark.Artifact_store.graph_digest g);
  let provgen nodes = fst (Provgen.pair ~seed:7 (Provgen.default_spec ~nodes)) in
  check_string "of_graph, provgen 16" "8c61387fc99581b8"
    (Fingerprint.to_hex (Fingerprint.of_graph (provgen 16)));
  check_string "of_graph, provgen 128" "670b5f0ed316951c"
    (Fingerprint.to_hex (Fingerprint.of_graph (provgen 128)))

(* The same pins one level up, on a segmenting ProvGen pair: the plan's
   forced pairs and segment digests, the quotient, and the canonical
   digest with its witness order. *)
let test_plan_pinned () =
  let a, b = Provgen.pair ~seed:11 (Provgen.default_spec ~nodes:128) in
  (match Summarize.plan a b with
  | Summarize.Segmented p ->
      let view =
        String.concat "|"
          (List.map (fun (x, y) -> x ^ ">" ^ y) (p.Summarize.forced_nodes @ p.Summarize.forced_edges)
          @ List.map
              (fun (s : Summarize.segment) -> Printf.sprintf "%s*%d" s.Summarize.digest s.Summarize.pieces)
              p.Summarize.segments)
      in
      check_int "plan rounds" 2 p.Summarize.rounds;
      check_int "plan segments" 1 (List.length p.Summarize.segments);
      check_string "plan digest" "152d73cdd857e16aa8a771f73e82d83c"
        (Digest.to_hex (Digest.string view))
  | Summarize.Whole | Summarize.Mismatch -> Alcotest.fail "expected a segmented plan");
  check_string "quotient_digest" "31340e8ac93782beb21e56e23273fc39"
    (Summarize.quotient_digest (Summarize.quotient a));
  match Canon.form a with
  | Some f ->
      check_string "Canon digest" "425ea52f4aeddc1b2a6fb9cbe64a9d17" f.Canon.digest;
      check_string "Canon order" "b7694187af0e2e0bc45dee78cae365c7"
        (Digest.to_hex
           (Digest.string
              (String.concat "," (Array.to_list f.Canon.node_order @ Array.to_list f.Canon.edge_order))))
  | None -> Alcotest.fail "expected a canonical form"

let () =
  Alcotest.run "pgraph"
    [
      ( "props",
        [
          Alcotest.test_case "basic operations" `Quick test_props_basic;
          Alcotest.test_case "later binding wins" `Quick test_props_override;
          Alcotest.test_case "intersect keeps equal bindings" `Quick test_props_intersect;
          Alcotest.test_case "mismatch cost" `Quick test_props_mismatch_cost;
          Alcotest.test_case "keys sorted" `Quick test_props_sorted;
        ] );
      ( "graph",
        [
          Alcotest.test_case "construction and counts" `Quick test_graph_basic;
          Alcotest.test_case "duplicate node rejected" `Quick test_graph_duplicate_node;
          Alcotest.test_case "dangling edge rejected" `Quick test_graph_dangling_edge;
          Alcotest.test_case "edge/node id clash rejected" `Quick test_graph_edge_id_clash_with_node;
          Alcotest.test_case "incidence queries" `Quick test_incidence;
          Alcotest.test_case "incidence on recorder graphs" `Quick test_incidence_recorders;
          Alcotest.test_case "remove node cascades" `Quick test_remove_node_cascades;
          Alcotest.test_case "map_ids renames consistently" `Quick test_map_ids;
          Alcotest.test_case "equality" `Quick test_equality;
        ] );
      ( "subtract",
        [
          Alcotest.test_case "keeps endpoints as dummies" `Quick test_subtract_keeps_dummies;
          Alcotest.test_case "full subtraction empties graph" `Quick test_subtract_all;
          Alcotest.test_case "empty subtraction is identity" `Quick test_subtract_nothing;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic stats" `Quick test_stats;
          Alcotest.test_case "components" `Quick test_stats_components;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "refinement values" `Quick test_refinement_pinned;
          Alcotest.test_case "plan, quotient and canonical form" `Quick test_plan_pinned;
        ] );
      ( "properties",
        [
          prop_fingerprint_rename_invariant;
          prop_fingerprint_permute_invariant;
          prop_fingerprint_ignores_props;
          prop_fingerprint_detects_label_change;
          prop_subtract_never_raises;
          prop_components_bounds;
          prop_hash_string_reference;
          prop_refine_reference;
          prop_incidence_provgen;
        ] );
    ]
