(* Property suite for the synthetic corpus generator: determinism,
   shape envelope, serialization round trips, and jobs-independent
   corpus materialization. *)

open Pgraph
module Provgen = Pgraph.Provgen
module Corpus = Provmark.Corpus

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let seed_arb = QCheck.make ~print:string_of_int (fun st -> Random.State.int st 1_000_000)

(* A (seed, nodes) coordinate over the small-graph regime the property
   tests sweep. *)
let coord_arb =
  QCheck.make
    ~print:(fun (seed, nodes) -> Printf.sprintf "seed=%d nodes=%d" seed nodes)
    (fun st -> (Random.State.int st 1_000_000, 2 + Random.State.int st 119))

(* Structural equality modulo edge identifiers: what a DOT round trip
   preserves (edges are re-numbered in file order on re-parse). *)
let equal_mod_edge_ids a b =
  let nodes g =
    List.map
      (fun (n : Graph.node) -> (n.Graph.node_id, n.Graph.node_label, Props.to_list n.Graph.node_props))
      (Graph.nodes g)
  in
  let edges g =
    List.sort compare
      (List.map
         (fun (e : Graph.edge) ->
           (e.Graph.edge_src, e.Graph.edge_tgt, e.Graph.edge_label, Props.to_list e.Graph.edge_props))
         (Graph.edges g))
  in
  nodes a = nodes b && edges a = edges b

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

let generation_is_deterministic =
  Helpers.qcheck ~count:100 "same (spec, seed, run) generates the same graph" coord_arb
    (fun (seed, nodes) ->
      let spec = Provgen.default_spec ~nodes in
      Graph.equal (Provgen.generate ~seed spec) (Provgen.generate ~seed spec)
      && Graph.equal (Provgen.generate ~run:2 ~seed spec) (Provgen.generate ~run:2 ~seed spec))

let seeds_decorrelate =
  Helpers.qcheck ~count:60 "different seeds generate different graphs" seed_arb (fun seed ->
      let spec = Provgen.default_spec ~nodes:40 in
      not (Graph.equal (Provgen.generate ~seed spec) (Provgen.generate ~seed:(seed + 1) spec)))

let generate_defaults_to_run1 () =
  let spec = Provgen.default_spec ~nodes:30 in
  let r1, r2 = Provgen.pair ~seed:7 spec in
  check_bool "generate = run 1" true (Graph.equal r1 (Provgen.generate ~seed:7 spec));
  check_bool "pair run 2 = generate ~run:2" true
    (Graph.equal r2 (Provgen.generate ~run:2 ~seed:7 spec))

(* ------------------------------------------------------------------ *)
(* Shape envelope                                                      *)
(* ------------------------------------------------------------------ *)

let counts_within_envelope =
  Helpers.qcheck ~count:100 "node count exact, edge count within edge_bounds" coord_arb
    (fun (seed, nodes) ->
      let spec = Provgen.default_spec ~nodes in
      let g = Provgen.generate ~seed spec in
      let low, high = Provgen.edge_bounds spec in
      Graph.node_count g = nodes && low <= Graph.edge_count g && Graph.edge_count g <= high)

(* Each node label's frequency lands within six standard deviations of
   its weight share — loose enough to never flake on a fixed seed,
   tight enough to catch a broken weighted draw (uniform instead of
   weighted shifts the biggest bucket by tens of sigmas at this n). *)
let histogram_matches_weights () =
  let n = 10_000 in
  let spec = Provgen.default_spec ~nodes:n in
  let g = Provgen.generate ~seed:11 spec in
  let counts = Hashtbl.create 8 in
  List.iter
    (fun (node : Graph.node) ->
      let l = node.Graph.node_label in
      Hashtbl.replace counts l (1 + Option.value ~default:0 (Hashtbl.find_opt counts l)))
    (Graph.nodes g);
  let total_weight = List.fold_left (fun acc (_, w) -> acc + w) 0 spec.Provgen.node_types in
  List.iter
    (fun (label, w) ->
      let p = float_of_int w /. float_of_int total_weight in
      let expected = float_of_int n *. p in
      let sigma = sqrt (float_of_int n *. p *. (1. -. p)) in
      let actual = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts label)) in
      if Float.abs (actual -. expected) > 6. *. sigma then
        Alcotest.failf "label %s: %d nodes, expected %.0f +/- %.0f" label (int_of_float actual)
          expected (6. *. sigma))
    spec.Provgen.node_types

(* ------------------------------------------------------------------ *)
(* Serialization round trips                                           *)
(* ------------------------------------------------------------------ *)

let provjson_roundtrip =
  Helpers.qcheck ~count:80 "PROV-JSON serialize/parse round-trips exactly" coord_arb
    (fun (seed, nodes) ->
      let g = Provgen.generate ~seed (Provgen.default_spec ~nodes) in
      Graph.equal (Recorders.Provjson.of_string (Recorders.Provjson.to_string g)) g)

let dot_roundtrip =
  Helpers.qcheck ~count:80 "DOT serialize/parse round-trips modulo edge ids" coord_arb
    (fun (seed, nodes) ->
      let g = Provgen.generate ~seed (Provgen.default_spec ~nodes) in
      let rt = Recorders.Dot.to_pgraph (Recorders.Dot.of_string (Recorders.Dot.to_string (Recorders.Dot.of_pgraph ~name:"rt" g))) in
      let digests_agree =
        Canon.clear ();
        match (Canon.digest g, Canon.digest rt) with
        | Some a, Some b -> String.equal a b
        | _ -> false
      in
      equal_mod_edge_ids g rt && digests_agree)

(* ------------------------------------------------------------------ *)
(* Trial pairs                                                         *)
(* ------------------------------------------------------------------ *)

(* With transient_ratio 1.0 every element carries a transient property,
   so the two trials must differ as values but agree once the transient
   keys ([token] on nodes, [t] on edges) are stripped. *)
let pair_differs_only_transiently () =
  let spec = { (Provgen.default_spec ~nodes:50) with Provgen.transient_ratio = 1.0 } in
  let r1, r2 = Provgen.pair ~seed:3 spec in
  check_bool "structure equal" true (Graph.equal_structure r1 r2);
  check_bool "trials differ as values" false (Graph.equal r1 r2);
  let strip g =
    let nodes =
      List.map
        (fun (n : Graph.node) ->
          (n.Graph.node_id, n.Graph.node_label, Props.to_list (Props.remove "token" n.Graph.node_props)))
        (Graph.nodes g)
    in
    let edges =
      List.map
        (fun (e : Graph.edge) ->
          ( e.Graph.edge_id,
            e.Graph.edge_src,
            e.Graph.edge_tgt,
            e.Graph.edge_label,
            Props.to_list (Props.remove "t" e.Graph.edge_props) ))
        (Graph.edges g)
    in
    (nodes, edges)
  in
  check_bool "persistent properties identical" true (strip r1 = strip r2)

let match_pair_is_similar () =
  let g1, g2 = Provgen.match_pair ~seed:17 (Provgen.default_spec ~nodes:30) in
  check_bool "permuted trial pair is VF2-similar" true (Gmatch.Vf2.similar g1 g2);
  check_bool "ids were actually permuted" false
    (List.exists (fun id -> List.mem id (Graph.node_ids g1)) (Graph.node_ids g2))

(* ------------------------------------------------------------------ *)
(* Spec strings, tiers, validation                                     *)
(* ------------------------------------------------------------------ *)

let all_tier_specs () =
  List.concat_map (fun t -> Provgen.tier_specs t) [ Provgen.Light; Provgen.Scaled; Provgen.Large; Provgen.Full ]

let spec_string_roundtrips () =
  List.iter
    (fun (name, spec) ->
      match Provgen.spec_of_string (Provgen.spec_to_string spec) with
      | Ok spec' ->
          if spec' <> spec then Alcotest.failf "%s: spec changed across to/of_string" name
      | Error e -> Alcotest.failf "%s: %s" name e)
    (("default", Provgen.default_spec ~nodes:123) :: all_tier_specs ())

let tiers_are_cumulative () =
  let names t = List.map fst (Provgen.tier_specs t) in
  let is_prefix xs ys =
    List.length xs <= List.length ys
    && List.for_all2 (fun a b -> String.equal a b) xs (List.filteri (fun i _ -> i < List.length xs) ys)
  in
  check_bool "Light prefixes Scaled" true (is_prefix (names Provgen.Light) (names Provgen.Scaled));
  check_bool "Scaled prefixes Large" true (is_prefix (names Provgen.Scaled) (names Provgen.Large));
  check_bool "Large prefixes Full" true (is_prefix (names Provgen.Large) (names Provgen.Full));
  List.iter
    (fun t ->
      match Provgen.tier_of_string (Provgen.tier_name t) with
      | Ok t' -> check_string "tier name round-trips" (Provgen.tier_name t) (Provgen.tier_name t')
      | Error e -> Alcotest.fail e)
    [ Provgen.Light; Provgen.Scaled; Provgen.Large; Provgen.Full ]

let validation_rejects_bad_specs () =
  let base = Provgen.default_spec ~nodes:10 in
  let rejected spec = match Provgen.validate spec with Ok () -> false | Error _ -> true in
  check_bool "zero nodes" true (rejected { base with Provgen.nodes = 0 });
  check_bool "oversized" true (rejected { base with Provgen.nodes = 100_001 });
  check_bool "negative density" true (rejected { base with Provgen.density = -0.1 });
  check_bool "transient ratio > 1" true (rejected { base with Provgen.transient_ratio = 1.5 });
  check_bool "empty node types" true (rejected { base with Provgen.node_types = [] });
  check_bool "default is valid" false (rejected base);
  match Provgen.generate ~seed:1 { base with Provgen.nodes = 0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "generate accepted an invalid spec"

(* ------------------------------------------------------------------ *)
(* Corpus materialization                                              *)
(* ------------------------------------------------------------------ *)

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "provmark_provgen_test_%d_%d" (Unix.getpid ()) !dir_counter)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* The tentpole determinism claim, as a test: a -j1 and a -j4
   materialization of the same tier and seed are byte-identical
   directory trees with identical manifests. *)
let materialization_is_jobs_independent () =
  let dir1 = fresh_dir () and dir4 = fresh_dir () in
  let m1 = Corpus.materialize ~jobs:1 ~dir:dir1 ~seed:42 Provgen.Light in
  let m4 = Corpus.materialize ~jobs:4 ~dir:dir4 ~seed:42 Provgen.Light in
  check_bool "manifests equal" true (m1 = m4);
  check_int "light tier entry count" (List.length (Provgen.tier_specs Provgen.Light) * 2 * 2)
    (List.length m1.Corpus.entries);
  let tier1 = Filename.concat dir1 "light" and tier4 = Filename.concat dir4 "light" in
  let files = List.sort compare (Array.to_list (Sys.readdir tier1)) in
  check_bool "same file set" true (files = List.sort compare (Array.to_list (Sys.readdir tier4)));
  List.iter
    (fun f ->
      let b1 = read_file (Filename.concat tier1 f) and b4 = read_file (Filename.concat tier4 f) in
      if not (String.equal b1 b4) then Alcotest.failf "%s differs between -j1 and -j4" f)
    files;
  List.iter
    (fun (e : Corpus.entry) ->
      let bytes = read_file (Filename.concat tier1 e.Corpus.entry_file) in
      check_string
        (Printf.sprintf "md5 of %s" e.Corpus.entry_file)
        e.Corpus.entry_md5
        (Digest.to_hex (Digest.string bytes)))
    m1.Corpus.entries;
  let reloaded = Corpus.load_manifest ~dir:dir1 Provgen.Light in
  check_bool "manifest round-trips through disk" true (reloaded = m1);
  rm_rf dir1;
  rm_rf dir4

(* Corpus files parse back to the generator's graphs through both
   recorders — the on-disk tier is usable as matcher input as-is. *)
let materialized_files_parse_back () =
  let dir = fresh_dir () in
  let m = Corpus.materialize ~dir ~seed:42 Provgen.Light in
  let tier_dir = Filename.concat dir "light" in
  List.iter
    (fun (e : Corpus.entry) ->
      let spec =
        match Provgen.spec_of_string e.Corpus.entry_spec with
        | Ok s -> s
        | Error err -> Alcotest.failf "bad manifest spec: %s" err
      in
      let expected = Provgen.generate ~run:e.Corpus.entry_run ~seed:42 spec in
      let bytes = read_file (Filename.concat tier_dir e.Corpus.entry_file) in
      match e.Corpus.entry_format with
      | Corpus.Provjson ->
          check_bool (e.Corpus.entry_file ^ " parses back") true
            (Graph.equal (Recorders.Provjson.of_string bytes) expected)
      | Corpus.Dot ->
          check_bool (e.Corpus.entry_file ^ " parses back") true
            (equal_mod_edge_ids (Recorders.Dot.to_pgraph (Recorders.Dot.of_string bytes)) expected))
    m.Corpus.entries;
  rm_rf dir

let () =
  Alcotest.run "provgen"
    [
      ( "determinism",
        [
          generation_is_deterministic;
          seeds_decorrelate;
          Alcotest.test_case "generate defaults to run 1" `Quick generate_defaults_to_run1;
        ] );
      ( "shape",
        [
          counts_within_envelope;
          Alcotest.test_case "label histogram matches weights" `Quick histogram_matches_weights;
        ] );
      ("roundtrip", [ provjson_roundtrip; dot_roundtrip ]);
      ( "pairs",
        [
          Alcotest.test_case "pair differs only transiently" `Quick pair_differs_only_transiently;
          Alcotest.test_case "match_pair is VF2-similar" `Quick match_pair_is_similar;
        ] );
      ( "specs",
        [
          Alcotest.test_case "spec strings round-trip" `Quick spec_string_roundtrips;
          Alcotest.test_case "tiers are cumulative" `Quick tiers_are_cumulative;
          Alcotest.test_case "validation rejects bad specs" `Quick validation_rejects_bad_specs;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "materialization is jobs-independent" `Quick
            materialization_is_jobs_independent;
          Alcotest.test_case "materialized files parse back" `Quick materialized_files_parse_back;
        ] );
    ]
