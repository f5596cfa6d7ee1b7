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
(* Generator oracle                                                    *)
(* ------------------------------------------------------------------ *)

(* The generator as first written: every draw re-derives its splitmix64
   state from the whole site string, and every string goes through
   [Printf].  [Provgen.generate] derives the same states from shared
   prefixes; this copy pins that every graph, and every byte of its
   PROV-JSON, stays what this straightforward version produces. *)
module Oracle = struct
  let mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let state seed key =
    let h = ref (Int64.add (Int64.of_int seed) 0x9E3779B97F4A7C15L) in
    String.iter (fun c -> h := mix (Int64.add !h (Int64.of_int (Char.code c)))) key;
    mix !h

  let unit_float seed key i =
    let v = mix (Int64.add (state seed key) (Int64.of_int (i * 0x5851F42D))) in
    Int64.to_float (Int64.shift_right_logical v 11) /. 9007199254740992.

  let draw_int seed key i bound =
    if bound <= 0 then 0 else int_of_float (unit_float seed key i *. float_of_int bound)

  let hex_token seed key i =
    Printf.sprintf "%08Lx"
      (Int64.logand (mix (Int64.add (state seed key) (Int64.of_int (i * 0x2545F491)))) 0xFFFFFFFFL)

  let draw_weighted seed key i weights =
    let total = List.fold_left (fun acc (_, w) -> acc + max 0 w) 0 weights in
    if total <= 0 then fst (List.hd weights)
    else
      let target = draw_int seed key i total in
      let rec pick acc = function
        | [] -> fst (List.hd weights)
        | (k, w) :: rest ->
            let acc = acc + max 0 w in
            if target < acc then k else pick acc rest
      in
      pick 0 weights

  let motif_size = function Provgen.Chain -> 3 | Provgen.Fan -> 4 | Provgen.Diamond -> 4

  let motif_edges motif ~start ~size =
    let full = motif_size motif in
    if size < full then List.init (max 0 (size - 1)) (fun i -> (start + i + 1, start + i))
    else
      match motif with
      | Provgen.Chain -> [ (start + 1, start); (start + 2, start + 1) ]
      | Provgen.Fan -> [ (start + 3, start); (start + 3, start + 1); (start + 3, start + 2) ]
      | Provgen.Diamond ->
          [ (start + 1, start); (start + 2, start); (start + 3, start + 1); (start + 3, start + 2) ]

  let generate ?(run = 1) ~seed (spec : Provgen.spec) =
    let n = spec.Provgen.nodes in
    let node_id i = Printf.sprintf "n%d" i in
    let b = Graph.Builder.create () in
    for i = 0 to n - 1 do
      let site = Printf.sprintf "node/%d" i in
      let label = draw_weighted seed (site ^ "/label") 0 spec.Provgen.node_types in
      let persistent =
        [ ("seq", string_of_int i); ("name", Printf.sprintf "%s_%s" label (hex_token seed site 1)) ]
      in
      let props =
        if unit_float seed (site ^ "/transient?") 0 < spec.Provgen.transient_ratio then
          ("token", hex_token seed (Printf.sprintf "%s/run%d" site run) 2) :: persistent
        else persistent
      in
      Graph.Builder.add_node b ~id:(node_id i) ~label ~props:(Props.of_list props)
    done;
    let eid = ref 0 in
    let add_edge ~src ~tgt =
      let site = Printf.sprintf "edge/%d" !eid in
      let label = draw_weighted seed (site ^ "/label") 0 spec.Provgen.edge_types in
      let persistent = [ ("op", hex_token seed site 1) ] in
      let props =
        if unit_float seed (site ^ "/transient?") 0 < spec.Provgen.transient_ratio then
          ("t", hex_token seed (Printf.sprintf "%s/run%d" site run) 2) :: persistent
        else persistent
      in
      Graph.Builder.add_edge b
        ~id:(Printf.sprintf "e%d" !eid)
        ~src:(node_id src) ~tgt:(node_id tgt) ~label ~props:(Props.of_list props);
      incr eid
    in
    let i = ref 1 in
    let block = ref 0 in
    while !i < n do
      let start = !i in
      let motif =
        draw_weighted seed (Printf.sprintf "motif/%d" !block) 0 spec.Provgen.motif_weights
      in
      let size = min (motif_size motif) (n - start + 1) in
      List.iter
        (fun (s, t) -> add_edge ~src:(start - 1 + s) ~tgt:(start - 1 + t))
        (motif_edges motif ~start:0 ~size);
      if start > 1 then
        add_edge ~src:(start - 1)
          ~tgt:(draw_int seed (Printf.sprintf "connect/%d" !block) 0 (start - 1));
      i := start + size - 1;
      incr block
    done;
    for v = 1 to n - 1 do
      let site = Printf.sprintf "density/%d" v in
      let whole = int_of_float spec.Provgen.density in
      let frac = spec.Provgen.density -. float_of_int whole in
      let extra = whole + if unit_float seed (site ^ "/frac") 0 < frac then 1 else 0 in
      for k = 1 to extra do
        add_edge ~src:v ~tgt:(draw_int seed site k v)
      done
    done;
    Graph.Builder.freeze b

  let match_pair ~seed spec =
    let g1 = generate ~run:1 ~seed spec in
    let g2 = generate ~run:2 ~seed spec in
    let permute kind ids =
      let arr = Array.of_list ids in
      let key = "perm/" ^ kind in
      for i = Array.length arr - 1 downto 1 do
        let j = draw_int seed key i (i + 1) in
        let t = arr.(i) in
        arr.(i) <- arr.(j);
        arr.(j) <- t
      done;
      let tbl = Hashtbl.create (Array.length arr) in
      Array.iteri (fun i id -> Hashtbl.add tbl id (Printf.sprintf "%s%d" kind i)) arr;
      tbl
    in
    let node_map = permute "m" (Graph.node_ids g2) in
    let edge_map = permute "f" (Graph.edge_ids g2) in
    let lookup tbl id = match Hashtbl.find_opt tbl id with Some x -> x | None -> id in
    (g1, Graph.map_ids (fun id -> lookup node_map (lookup edge_map id)) g2)
end

(* Random valid specs over the whole parameter space: weights may be
   zero as long as one is positive, density runs past 2 so some nodes
   draw several extra edges, and the label vocabularies vary. *)
let spec_arb =
  let weights st names =
    let ws = List.map (fun k -> (k, Random.State.int st 4)) names in
    if List.exists (fun (_, w) -> w > 0) ws then ws
    else List.mapi (fun i (k, w) -> if i = 0 then (k, 1) else (k, w)) ws
  in
  let vocabulary st pool =
    let k = 1 + Random.State.int st (Array.length pool) in
    Array.to_list (Array.sub pool 0 k)
  in
  let gen st =
    let spec =
      {
        Provgen.nodes = 1 + Random.State.int st 600;
        density = Random.State.float st 2.5;
        motif_weights = weights st [ Provgen.Chain; Provgen.Fan; Provgen.Diamond ];
        node_types =
          weights st
            (vocabulary st [| "task"; "process_memory"; "file"; "path"; "pipe"; "machine" |]);
        edge_types =
          weights st
            (vocabulary st
               [| "used"; "wasGeneratedBy"; "wasInformedBy"; "wasDerivedFrom"; "wasTriggeredBy" |]);
        transient_ratio =
          (match Random.State.int st 4 with 0 -> 0. | 1 -> 1. | _ -> Random.State.float st 1.);
      }
    in
    (spec, Random.State.int st 1_000_000, 1 + Random.State.int st 3)
  in
  QCheck.make
    ~print:(fun (spec, seed, run) ->
      Printf.sprintf "%s seed=%d run=%d" (Provgen.spec_to_string spec) seed run)
    gen

let generator_matches_oracle =
  Helpers.qcheck ~count:150 "generate equals the oracle, graph and PROV-JSON bytes" spec_arb
    (fun (spec, seed, run) ->
      match Provgen.validate spec with
      | Error e -> QCheck.Test.fail_reportf "spec_arb made an invalid spec: %s" e
      | Ok () ->
          let g = Provgen.generate ~run ~seed spec and o = Oracle.generate ~run ~seed spec in
          Graph.equal g o
          && String.equal (Recorders.Provjson.to_string g) (Recorders.Provjson.to_string o))

let match_pair_matches_oracle =
  Helpers.qcheck ~count:40 "match_pair equals the oracle" coord_arb (fun (seed, nodes) ->
      let spec = Provgen.default_spec ~nodes in
      let g1, g2 = Provgen.match_pair ~seed spec and o1, o2 = Oracle.match_pair ~seed spec in
      Graph.equal g1 o1 && Graph.equal g2 o2)

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
          generator_matches_oracle;
          match_pair_matches_oracle;
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
