(* Differential testing of the two matching backends.

   The ASP backend (paper Listings 3 and 4 through the mini answer-set
   solver) is the reference semantics; the VF2-style direct matcher is
   the fast implementation.  This suite pins them against each other on
   randomly generated property graphs, for every entry point the
   pipeline uses: similarity, generalization matching and comparison
   (subgraph) matching, plus the full comparison stage built on top.

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
(* Streaming ingestion: the chunked readers and the whole-buffer
   parsers are two implementations of the same parse, so they must
   produce the same graph on every input that parses and the same
   structured reject — same absolute offset, same reason — on every
   input that does not.                                                *)
(* ------------------------------------------------------------------ *)

let prog_arb = Helpers.program_arbitrary ()

let record_spade prog = Recorders.Spade.record (Oskernel.Kernel.run ~run_id:1 prog Oskernel.Program.Foreground)

let record_camflow prog = Recorders.Camflow.record (Oskernel.Kernel.run ~run_id:1 prog Oskernel.Program.Foreground)

(* Chunk sizes straddling the interesting regimes: single-byte refills,
   chunks smaller than one token, and chunks larger than whole inputs. *)
let chunk_sizes = [ 1; 7; 64; 4096 ]

let reader ~chunk text = Recorders.Chunk_reader.of_string ~chunk text

let prop_dot_stream_equals_memory =
  Helpers.qcheck ~count:50 "DOT streaming parse equals in-memory parse" prog_arb (fun prog ->
      let text = record_spade prog in
      let mem = Recorders.Dot.to_pgraph (Recorders.Dot.of_string text) in
      List.for_all
        (fun chunk -> Graph.equal mem (Recorders.Dot.of_stream ~read:(reader ~chunk text)))
        chunk_sizes)

let prop_provjson_stream_equals_memory =
  Helpers.qcheck ~count:50 "PROV-JSON streaming parse equals in-memory parse" prog_arb
    (fun prog ->
      let text = record_camflow prog in
      let mem = Recorders.Provjson.of_string text in
      List.for_all
        (fun chunk -> Graph.equal mem (Recorders.Provjson.of_stream ~read:(reader ~chunk text)))
        chunk_sizes)

(* Seeded generator coordinates: the corpus the CI light tier
   materializes goes through exactly these serialize/parse paths. *)
let gen_arb =
  QCheck.make
    ~print:(fun (seed, nodes) -> Printf.sprintf "seed=%d nodes=%d" seed nodes)
    (fun st -> (Random.State.int st 1_000_000, 2 + Random.State.int st 79))

let prop_generated_corpus_stream_equals_memory =
  Helpers.qcheck ~count:40 "generated corpus parses identically via either path" gen_arb
    (fun (seed, nodes) ->
      let g = Pgraph.Provgen.generate ~seed (Pgraph.Provgen.default_spec ~nodes) in
      let json = Recorders.Provjson.to_string g in
      let dot = Recorders.Dot.to_string (Recorders.Dot.of_pgraph ~name:"c" g) in
      Graph.equal
        (Recorders.Provjson.of_string json)
        (Recorders.Provjson.of_stream ~read:(reader ~chunk:17 json))
      && Graph.equal
           (Recorders.Dot.to_pgraph (Recorders.Dot.of_string dot))
           (Recorders.Dot.of_stream ~read:(reader ~chunk:17 dot)))

(* Everything downstream keys on fingerprints and canonical digests, so
   "same graph" must also mean "same digests" — a parse divergence that
   WL colouring happens to mask would silently split the artifact
   store's key space. *)
let prop_stream_preserves_digests =
  Helpers.qcheck ~count:30 "fingerprint and canon digest agree via either path" gen_arb
    (fun (seed, nodes) ->
      let g = Pgraph.Provgen.generate ~seed (Pgraph.Provgen.default_spec ~nodes) in
      let json = Recorders.Provjson.to_string g in
      let mem = Recorders.Provjson.of_string json in
      let st = Recorders.Provjson.of_stream ~read:(reader ~chunk:13 json) in
      let fp g = Fingerprint.to_hex (Fingerprint.of_graph g) in
      Canon.clear ();
      String.equal (fp mem) (fp st) && Canon.digest mem = Canon.digest st
      && Canon.digest mem <> None)

(* The pinned offset-parity regression: PROV-JSON offsets used to be
   recovered by re-parsing the batch parser's message, which broke as
   soon as the failure lay past the streaming reader's first chunk.
   Corrupt and truncate a generated document strictly past the first
   64-byte chunk boundary and require bit-identical structured rejects
   from both paths. *)
let dot_outcome parse =
  match parse () with
  | (_ : Graph.t) -> Ok ()
  | exception Recorders.Dot.Parse_error { offset; reason } -> Error (offset, reason)

let provjson_outcome parse =
  match parse () with
  | (_ : Graph.t) -> Ok ()
  | exception Recorders.Provjson.Format_error { offset; reason } -> Error (offset, reason)

let set_byte text i c =
  let b = Bytes.of_string text in
  Bytes.set b i c;
  Bytes.to_string b

let offset_parity_past_chunk_boundary () =
  let chunk = 64 in
  let g = Pgraph.Provgen.generate ~seed:5 (Pgraph.Provgen.default_spec ~nodes:40) in
  let exercise ~tag ~outcome_mem ~outcome_stream text =
    if String.length text <= 2 * chunk then
      Alcotest.failf "%s: document too short to cross the chunk boundary" tag;
    let rejected_past_boundary = ref 0 in
    let case descr text' =
      match (outcome_mem text', outcome_stream text') with
      | Ok (), Ok () -> ()
      | Error (o1, r1), Error (o2, r2) ->
          if (o1, r1) <> (o2, r2) then
            Alcotest.failf "%s %s: memory rejects at %s (%s), stream at %s (%s)" tag descr
              (match o1 with Some o -> string_of_int o | None -> "-")
              r1
              (match o2 with Some o -> string_of_int o | None -> "-")
              r2
          else if (match o1 with Some o -> o > chunk | None -> false) then
            incr rejected_past_boundary
      | Ok (), Error _ | Error _, Ok () ->
          Alcotest.failf "%s %s: one path parses, the other rejects" tag descr
    in
    let len = String.length text in
    let rec sweep p =
      if p < len then begin
        case (Printf.sprintf "corrupt@%d" p) (set_byte text p '\001');
        case (Printf.sprintf "truncate@%d" p) (String.sub text 0 p);
        sweep (p + 13)
      end
    in
    sweep (chunk + 1);
    if !rejected_past_boundary = 0 then
      Alcotest.failf "%s: no reject reported an offset past the chunk boundary" tag
  in
  let json = Recorders.Provjson.to_string g in
  exercise ~tag:"provjson" json
    ~outcome_mem:(fun t -> provjson_outcome (fun () -> Recorders.Provjson.of_string t))
    ~outcome_stream:(fun t ->
      provjson_outcome (fun () -> Recorders.Provjson.of_stream ~read:(reader ~chunk t)));
  let dot = Recorders.Dot.to_string (Recorders.Dot.of_pgraph ~name:"parity" g) in
  let dot_mem t =
    match dot_outcome (fun () -> Recorders.Dot.to_pgraph (Recorders.Dot.of_string t)) with
    | Ok () -> Ok ()
    | Error (o, r) -> Error (Some o, r)
  in
  let dot_stream t =
    match dot_outcome (fun () -> Recorders.Dot.of_stream ~read:(reader ~chunk t)) with
    | Ok () -> Ok ()
    | Error (o, r) -> Error (Some o, r)
  in
  exercise ~tag:"dot" dot ~outcome_mem:dot_mem ~outcome_stream:dot_stream

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
      ( "streaming",
        [
          prop_dot_stream_equals_memory;
          prop_provjson_stream_equals_memory;
          prop_generated_corpus_stream_equals_memory;
          prop_stream_preserves_digests;
          Alcotest.test_case "offset parity past the chunk boundary" `Quick
            offset_parity_past_chunk_boundary;
        ] );
    ]
