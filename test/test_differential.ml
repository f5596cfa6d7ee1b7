(* Differential testing of the two matching backends.

   The ASP backend (paper Listings 3 and 4 through the mini answer-set
   solver) is the reference semantics; the VF2-style direct matcher is
   the fast implementation.  This suite pins them against each other on
   randomly generated property graphs, for every entry point the
   pipeline uses: similarity, generalization matching and comparison
   (subgraph) matching, plus the full comparison stage built on top.
   A last group holds the recorders' parse rejects to located offsets:
   PROV-JSON's against Minijson's located parser.

   Graphs are generated from a shrinkable op-list encoding — QCheck
   shrinks the list and its integers, so a disagreement reduces to a
   minimal witness graph pair rather than an arbitrary random one. *)

open Pgraph
open Gmatch

let node_labels = [| "entity"; "activity"; "agent" |]
let edge_labels = [| "used"; "wasGeneratedBy"; "wasInformedBy" |]
let prop_keys = [| "type"; "pid"; "mode" |]

(* Interpret (kind, a, b, c) quadruples as graph-building operations:
   even kinds add a node, odd kinds add an edge between existing nodes
   (skipped while the graph is empty).  Node ids are v0, v1, ... in
   creation order, so shrinking the list prefix-stably shrinks the
   graph. *)
let props_of k =
  if k mod 4 = 0 then Props.empty
  else Props.of_list [ (prop_keys.(k mod 3), string_of_int (k mod 5)) ]

let graph_of_ops ops =
  let nodes = ref 0 and edges = ref 0 in
  List.fold_left
    (fun g (kind, a, b, c) ->
      if kind mod 2 = 0 || !nodes = 0 then (
        let id = Printf.sprintf "v%d" !nodes in
        incr nodes;
        Graph.add_node g ~id ~label:node_labels.(a mod 3) ~props:(props_of c))
      else (
        let src = Printf.sprintf "v%d" (a mod !nodes) in
        let tgt = Printf.sprintf "v%d" (b mod !nodes) in
        let id = Printf.sprintf "e%d" !edges in
        incr edges;
        Graph.add_edge g ~id ~src ~tgt ~label:edge_labels.(c mod 3) ~props:(props_of (a + b))))
    Graph.empty ops

let ops_arb =
  QCheck.(list_of_size Gen.(0 -- 8) (quad small_nat small_nat small_nat small_nat))

let graph_print ops = Format.asprintf "%a" Graph.pp (graph_of_ops ops)

let single_arb = QCheck.set_print graph_print ops_arb

let pair_arb =
  QCheck.set_print
    (fun (o1, o2) -> Printf.sprintf "g1 =\n%s\ng2 =\n%s" (graph_print o1) (graph_print o2))
    (QCheck.pair ops_arb ops_arb)

(* ------------------------------------------------------------------ *)
(* Similarity (Section 3.4)                                           *)
(* ------------------------------------------------------------------ *)

let prop_similar_agrees =
  Helpers.qcheck ~count:80 "VF2 and ASP agree on similarity" pair_arb (fun (o1, o2) ->
      let g1 = graph_of_ops o1 and g2 = graph_of_ops o2 in
      Vf2.similar g1 g2 = Asp_backend.similar g1 g2)

let prop_similar_under_permutation =
  Helpers.qcheck ~count:60 "both backends accept a permuted copy" single_arb (fun ops ->
      let g = graph_of_ops ops in
      let h = Helpers.permute_ids g in
      Vf2.similar g h && Asp_backend.similar g h)

(* ------------------------------------------------------------------ *)
(* Generalization matching (Section 3.4, Listing 4 cost model)        *)
(* ------------------------------------------------------------------ *)

let prop_generalization_cost_agrees =
  Helpers.qcheck ~count:50 "VF2 and ASP agree on generalization cost" pair_arb
    (fun (o1, o2) ->
      let g1 = graph_of_ops o1 and g2 = graph_of_ops o2 in
      match (Vf2.iso_min_cost g1 g2, Asp_backend.iso_min_cost g1 g2) with
      | None, None -> true
      | Some a, Some b -> a.Matching.cost = b.Matching.cost
      | Some _, None | None, Some _ -> false)

let prop_generalization_matchings_verify =
  Helpers.qcheck ~count:50 "generalization matchings verify as isomorphisms" pair_arb
    (fun (o1, o2) ->
      let g1 = graph_of_ops o1 and g2 = graph_of_ops o2 in
      let ok = function
        | None -> true
        | Some m -> Result.is_ok (Matching.verify ~sub:false g1 g2 m)
      in
      ok (Vf2.iso_min_cost g1 g2) && ok (Asp_backend.iso_min_cost g1 g2))

(* ------------------------------------------------------------------ *)
(* Comparison matching (Section 3.5)                                  *)
(* ------------------------------------------------------------------ *)

let prop_comparison_cost_agrees =
  Helpers.qcheck ~count:50 "VF2 and ASP agree on embedding cost" pair_arb (fun (o1, o2) ->
      let g1 = graph_of_ops o1 and g2 = graph_of_ops o2 in
      match (Vf2.sub_iso_min_cost g1 g2, Asp_backend.sub_iso_min_cost g1 g2) with
      | None, None -> true
      | Some a, Some b -> a.Matching.cost = b.Matching.cost
      | Some _, None | None, Some _ -> false)

(* The full comparison stage: both backends must agree on the verdict
   (embeddable or not), on the residual matching cost, and on whether a
   target activity remains.  The target graphs themselves may differ
   between equal-cost optimal matchings, so graph equality is not
   asserted — emptiness is matching-independent and is what the runner
   classifies on. *)
let prop_compare_stage_agrees =
  Helpers.qcheck ~count:40 "comparison stage agrees across backends" pair_arb
    (fun (o1, o2) ->
      let bg = graph_of_ops o1 and fg = graph_of_ops o2 in
      let direct = Provmark.Compare.compare ~backend:Engine.Direct ~bg ~fg in
      let asp = Provmark.Compare.compare ~backend:Engine.Asp ~bg ~fg in
      match (direct, asp) with
      | Error a, Error b -> a = b
      | Ok a, Ok b ->
          a.Provmark.Compare.matching_cost = b.Provmark.Compare.matching_cost
          && (Graph.size a.Provmark.Compare.target = 0)
             = (Graph.size b.Provmark.Compare.target = 0)
      | Ok _, Error _ | Error _, Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Candidate pruning: pruned and unpruned ASP encodings, and VF2, must
   agree on every verdict and every optimal cost                       *)
(* ------------------------------------------------------------------ *)

(* The unpruned run is the verbatim Listings 3/4 encoding: the paper
   oracle the pruned encoding answers to. *)
let unpruned = { Gmatch.Match_opts.default with prune = false }

let cost_opt = function None -> None | Some m -> Some m.Matching.cost

let prop_pruning_similar =
  Helpers.qcheck ~count:60 "pruned, unpruned and VF2 agree on similarity" pair_arb
    (fun (o1, o2) ->
      let g1 = graph_of_ops o1 and g2 = graph_of_ops o2 in
      let pruned = Asp_backend.similar g1 g2 in
      pruned = Asp_backend.similar ~opts:unpruned g1 g2 && pruned = Vf2.similar g1 g2)

let prop_pruning_generalization =
  Helpers.qcheck ~count:40 "pruned, unpruned and VF2 agree on generalization cost" pair_arb
    (fun (o1, o2) ->
      let g1 = graph_of_ops o1 and g2 = graph_of_ops o2 in
      let pruned = cost_opt (Asp_backend.iso_min_cost g1 g2) in
      pruned = cost_opt (Asp_backend.iso_min_cost ~opts:unpruned g1 g2)
      && pruned = cost_opt (Vf2.iso_min_cost g1 g2))

let prop_pruning_comparison =
  Helpers.qcheck ~count:40 "pruned, unpruned and VF2 agree on embedding cost" pair_arb
    (fun (o1, o2) ->
      let g1 = graph_of_ops o1 and g2 = graph_of_ops o2 in
      let pruned = cost_opt (Asp_backend.sub_iso_min_cost g1 g2) in
      pruned = cost_opt (Asp_backend.sub_iso_min_cost ~opts:unpruned g1 g2)
      && pruned = cost_opt (Vf2.sub_iso_min_cost g1 g2))

(* ------------------------------------------------------------------ *)
(* Parse rejects: located offsets                                      *)
(* ------------------------------------------------------------------ *)

(* The pinned offset regression: PROV-JSON offsets used to be recovered
   by re-parsing the JSON parser's message, which went wrong once the
   failure lay far enough into the document.  Corrupt and truncate a
   generated document past byte 64 and require every JSON-level reject
   of [Provjson.of_string] to carry exactly the offset and reason of
   [Minijson.Json.of_string_located] on the same text, and every DOT
   reject to point inside the text it was given. *)
let set_byte text i c =
  let b = Bytes.of_string text in
  Bytes.set b i c;
  Bytes.to_string b

let past = 64

(* Apply [case] to each corruption and truncation of [text] past byte
   [past], and fail unless at least one reject offset lies past it. *)
let sweep ~tag text case =
  if String.length text <= 2 * past then Alcotest.failf "%s: document too short to sweep" tag;
  let rejected_past = ref 0 in
  let check descr text' =
    match case text' with
    | None -> ()
    | Some off ->
        if off < 0 || off > String.length text' then
          Alcotest.failf "%s %s: reject offset %d outside [0, %d]" tag descr off
            (String.length text');
        if off > past then incr rejected_past
  in
  let rec go p =
    if p < String.length text then begin
      check (Printf.sprintf "corrupt@%d" p) (set_byte text p '\001');
      check (Printf.sprintf "truncate@%d" p) (String.sub text 0 p);
      go (p + 13)
    end
  in
  go (past + 1);
  if !rejected_past = 0 then Alcotest.failf "%s: no reject reported an offset past byte %d" tag past

let reject_offsets_deep_in_input () =
  let g = Pgraph.Provgen.generate ~seed:5 (Pgraph.Provgen.default_spec ~nodes:40) in
  sweep ~tag:"provjson" (Recorders.Provjson.to_string g) (fun t ->
      let json = Minijson.Json.of_string_located t in
      match (Recorders.Provjson.of_string t, json) with
      | (_ : Graph.t), Ok _ -> None
      | _, Error _ -> Alcotest.failf "provjson: of_string accepts what of_string_located rejects"
      | exception Recorders.Provjson.Format_error { offset = Some o; reason } -> (
          match json with
          | Error (o', r') when o = o' && String.equal reason ("invalid JSON: " ^ r') -> Some o
          | Error (o', r') ->
              Alcotest.failf "provjson: of_string rejects at %d (%s), of_string_located at %d (%s)" o
                reason o' r'
          | Ok _ -> Alcotest.failf "provjson: located reject at %d (%s) on well-formed JSON" o reason)
      | exception Recorders.Provjson.Format_error { offset = None; reason } -> (
          match json with
          | Ok _ -> None
          | Error _ -> Alcotest.failf "provjson: unlocated reject (%s) on malformed JSON" reason));
  let dot = Recorders.Dot.to_string (Recorders.Dot.of_pgraph ~name:"parity" g) in
  sweep ~tag:"dot" dot (fun t ->
      match Recorders.Dot.to_pgraph (Recorders.Dot.of_string t) with
      | (_ : Graph.t) -> None
      | exception Recorders.Dot.Parse_error { offset; _ } -> Some offset)

(* ------------------------------------------------------------------ *)
(* Engine dispatch: all three public backends, one verdict             *)
(* ------------------------------------------------------------------ *)

let prop_engine_backends_agree =
  Helpers.qcheck ~count:50 "Engine.similar agrees across all backends" pair_arb
    (fun (o1, o2) ->
      let g1 = graph_of_ops o1 and g2 = graph_of_ops o2 in
      let v b = Engine.similar ~backend:b g1 g2 in
      v Engine.Direct = v Engine.Asp && v Engine.Direct = v Engine.Incremental)

let () =
  Alcotest.run "differential"
    [
      ( "similarity",
        [ prop_similar_agrees; prop_similar_under_permutation; prop_engine_backends_agree ] );
      ( "generalization",
        [ prop_generalization_cost_agrees; prop_generalization_matchings_verify ] );
      ("comparison", [ prop_comparison_cost_agrees; prop_compare_stage_agrees ]);
      ( "pruning",
        [ prop_pruning_similar; prop_pruning_generalization; prop_pruning_comparison ] );
      ( "parsing",
        [ Alcotest.test_case "reject offsets deep in the input" `Quick reject_offsets_deep_in_input ] );
    ]
