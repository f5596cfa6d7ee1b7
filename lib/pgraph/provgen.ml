type motif = Chain | Fan | Diamond

type spec = {
  nodes : int;
  density : float;
  motif_weights : (motif * int) list;
  node_types : (string * int) list;
  edge_types : (string * int) list;
  transient_ratio : float;
}

(* The node vocabulary mirrors what the recorders emit: "task" and
   "process_memory" land in the PROV-JSON activity section, "machine"
   in agent, the rest in entity.  The edge vocabulary covers the five
   standard relation sections plus one non-standard label that
   exercises the generic [relation] section. *)
let default_node_types =
  [ ("task", 3); ("process_memory", 1); ("file", 4); ("path", 2); ("pipe", 1); ("machine", 1) ]

let default_edge_types =
  [
    ("used", 3);
    ("wasGeneratedBy", 3);
    ("wasInformedBy", 2);
    ("wasDerivedFrom", 1);
    ("wasAssociatedWith", 1);
    ("wasTriggeredBy", 1);
  ]

let default_spec ~nodes =
  {
    nodes;
    density = 0.3;
    motif_weights = [ (Chain, 1); (Fan, 1); (Diamond, 1) ];
    node_types = default_node_types;
    edge_types = default_edge_types;
    transient_ratio = 0.25;
  }

let max_nodes = 100_000

let validate spec =
  let weights_ok ws = ws <> [] && List.for_all (fun (_, w) -> w >= 0) ws
                      && List.exists (fun (_, w) -> w > 0) ws in
  if spec.nodes < 1 || spec.nodes > max_nodes then
    Error (Printf.sprintf "nodes must be in [1, %d], got %d" max_nodes spec.nodes)
  else if not (Float.is_finite spec.density) || spec.density < 0. then
    Error "density must be a non-negative finite float"
  else if not (weights_ok spec.motif_weights) then Error "motif_weights needs a positive weight"
  else if not (weights_ok spec.node_types) then Error "node_types needs a positive weight"
  else if not (weights_ok spec.edge_types) then Error "edge_types needs a positive weight"
  else if
    (not (Float.is_finite spec.transient_ratio))
    || spec.transient_ratio < 0. || spec.transient_ratio > 1.
  then Error "transient_ratio must be in [0, 1]"
  else Ok ()

(* ------------------------------------------------------------------ *)
(* Canonical spec rendering                                            *)
(* ------------------------------------------------------------------ *)

let motif_name = function Chain -> "chain" | Fan -> "fan" | Diamond -> "diamond"

let motif_of_name = function
  | "chain" -> Ok Chain
  | "fan" -> Ok Fan
  | "diamond" -> Ok Diamond
  | m -> Error (Printf.sprintf "unknown motif %S" m)

let weights_to_string name_of ws =
  String.concat "," (List.map (fun (k, w) -> Printf.sprintf "%s:%d" (name_of k) w) ws)

let spec_to_string spec =
  Printf.sprintf "nodes=%d;density=%.4f;motifs=%s;types=%s;edges=%s;transient=%.4f" spec.nodes
    spec.density
    (weights_to_string motif_name spec.motif_weights)
    (weights_to_string Fun.id spec.node_types)
    (weights_to_string Fun.id spec.edge_types)
    spec.transient_ratio

let weights_of_string of_name s =
  let parse_one item =
    match String.rindex_opt item ':' with
    | None -> Error (Printf.sprintf "weight entry %S lacks ':'" item)
    | Some i -> (
        let name = String.sub item 0 i in
        let w = String.sub item (i + 1) (String.length item - i - 1) in
        match (of_name name, int_of_string_opt w) with
        | Ok k, Some w -> Ok (k, w)
        | Error e, _ -> Error e
        | _, None -> Error (Printf.sprintf "bad weight in %S" item))
  in
  List.fold_left
    (fun acc item ->
      match (acc, parse_one item) with
      | Ok acc, Ok kv -> Ok (acc @ [ kv ])
      | (Error _ as e), _ | _, (Error _ as e) -> e)
    (Ok [])
    (String.split_on_char ',' s)

let spec_of_string s =
  let fields =
    List.filter_map
      (fun part ->
        match String.index_opt part '=' with
        | None -> None
        | Some i ->
            Some (String.sub part 0 i, String.sub part (i + 1) (String.length part - i - 1)))
      (String.split_on_char ';' s)
  in
  let field k = List.assoc_opt k fields in
  let ( let* ) = Result.bind in
  let req k conv =
    match field k with
    | None -> Error (Printf.sprintf "spec %S lacks field %s" s k)
    | Some v -> conv v
  in
  let int_field v = Option.to_result ~none:"not an int" (int_of_string_opt v) in
  let float_field v = Option.to_result ~none:"not a float" (float_of_string_opt v) in
  let* nodes = req "nodes" int_field in
  let* density = req "density" float_field in
  let* motif_weights = req "motifs" (weights_of_string motif_of_name) in
  let* node_types = req "types" (weights_of_string Result.ok) in
  let* edge_types = req "edges" (weights_of_string Result.ok) in
  let* transient_ratio = req "transient" float_field in
  let spec = { nodes; density; motif_weights; node_types; edge_types; transient_ratio } in
  let* () = validate spec in
  Ok spec

(* ------------------------------------------------------------------ *)
(* Site-keyed splitmix64 draws (the PR 4 fault-injector idiom)         *)
(* ------------------------------------------------------------------ *)

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

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

(* Motifs consume consecutive node indices and wire them with
   backward edges (later index -> earlier), so every graph is a DAG
   whose undirected form is connected — the shape of a real trace.
   Block starts additionally link back into the already-built graph. *)
let motif_size = function Chain -> 3 | Fan -> 4 | Diamond -> 4

(* Edges contributed by one motif over the consecutive indices
   [start .. start+size-1], as (src index, tgt index) pairs.  A block
   truncated by the node budget degrades to a chain over what remains. *)
let motif_edges motif ~start ~size =
  let full = motif_size motif in
  if size < full then List.init (max 0 (size - 1)) (fun i -> (start + i + 1, start + i))
  else
    match motif with
    | Chain -> [ (start + 1, start); (start + 2, start + 1) ]
    | Fan -> [ (start + 3, start); (start + 3, start + 1); (start + 3, start + 2) ]
    | Diamond ->
        [ (start + 1, start); (start + 2, start); (start + 3, start + 1); (start + 3, start + 2) ]

let generate ?(run = 1) ~seed spec =
  (match validate spec with Ok () -> () | Error m -> invalid_arg ("Provgen.generate: " ^ m));
  let n = spec.nodes in
  let node_id i = Printf.sprintf "n%d" i in
  (* Nodes: label and persistent properties depend on (seed, site)
     only; the transient token also folds in [run]. *)
  let b = Graph.Builder.create () in
  for i = 0 to n - 1 do
    let site = Printf.sprintf "node/%d" i in
    let label = draw_weighted seed (site ^ "/label") 0 spec.node_types in
    let persistent =
      [ ("seq", string_of_int i); ("name", Printf.sprintf "%s_%s" label (hex_token seed site 1)) ]
    in
    let props =
      if unit_float seed (site ^ "/transient?") 0 < spec.transient_ratio then
        ("token", hex_token seed (Printf.sprintf "%s/run%d" site run) 2) :: persistent
      else persistent
    in
    Graph.Builder.add_node b ~id:(node_id i) ~label ~props:(Props.of_list props)
  done;
  (* Edges: motif blocks over consecutive indices, a connector from
     each block start into the earlier graph, then the extra density
     draws.  All decisions are keyed on stable sites, so edge [k]'s
     labels and endpoints never depend on other draws. *)
  let eid = ref 0 in
  let add_edge ~src ~tgt =
    let site = Printf.sprintf "edge/%d" !eid in
    let label = draw_weighted seed (site ^ "/label") 0 spec.edge_types in
    let persistent = [ ("op", hex_token seed site 1) ] in
    let props =
      if unit_float seed (site ^ "/transient?") 0 < spec.transient_ratio then
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
    let motif = draw_weighted seed (Printf.sprintf "motif/%d" !block) 0 spec.motif_weights in
    let size = min (motif_size motif) (n - start + 1) in
    (* The block reuses index [start - 1] as its first node so blocks
       overlap by one element and the graph stays connected even
       without the explicit connector. *)
    List.iter (fun (s, t) -> add_edge ~src:(start - 1 + s) ~tgt:(start - 1 + t))
      (motif_edges motif ~start:0 ~size);
    (* Connector from the block start back into the earlier graph. *)
    if start > 1 then
      add_edge ~src:(start - 1)
        ~tgt:(draw_int seed (Printf.sprintf "connect/%d" !block) 0 (start - 1));
    i := start + size - 1;
    incr block
  done;
  (* Density: expected [density] extra backward edges per node. *)
  for v = 1 to n - 1 do
    let site = Printf.sprintf "density/%d" v in
    let whole = int_of_float spec.density in
    let frac = spec.density -. float_of_int whole in
    let extra = whole + (if unit_float seed (site ^ "/frac") 0 < frac then 1 else 0) in
    for k = 1 to extra do
      add_edge ~src:v ~tgt:(draw_int seed site k v)
    done
  done;
  Graph.Builder.freeze b

let pair ~seed spec = (generate ~run:1 ~seed spec, generate ~run:2 ~seed spec)

let match_pair ~seed spec =
  let g1 = generate ~run:1 ~seed spec in
  let g2 = generate ~run:2 ~seed spec in
  (* Random identifier permutation of the second trial, so matching it
     against the first exercises rename invariance at scale. *)
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

(* ------------------------------------------------------------------ *)
(* Expected-shape envelope                                             *)
(* ------------------------------------------------------------------ *)

let edge_bounds spec =
  let n = spec.nodes in
  if n <= 1 then (0, 0)
  else
    (* Motif blocks advance by at least one index and contribute at
       most 4 edges plus a connector; chains contribute 2 edges per 2
       consumed indices.  Density adds at most ceil(density) per node. *)
    let low = n - 1 in
    let per_node_max = 5.0 +. Float.of_int (int_of_float spec.density + 1) in
    (low, int_of_float (Float.of_int n *. per_node_max) + 4)

(* ------------------------------------------------------------------ *)
(* Corpus tiers                                                        *)
(* ------------------------------------------------------------------ *)

type tier = Light | Scaled | Large | Full

let tier_name = function Light -> "light" | Scaled -> "scaled" | Large -> "large" | Full -> "full"

let tier_of_string = function
  | "light" -> Ok Light
  | "scaled" -> Ok Scaled
  | "large" -> Ok Large
  | "full" -> Ok Full
  | s -> Error (Printf.sprintf "unknown tier %S (known: light, scaled, large, full)" s)

(* Each tier extends the previous one, openml-to-prov ladder style.
   The light tier adds two shape variants so shape controls are
   exercised even in CI. *)
let tier_own = function
  | Light ->
      [
        ("light_100", default_spec ~nodes:100);
        ("light_200", default_spec ~nodes:200);
        ("light_300", default_spec ~nodes:300);
        ( "light_100_chainy",
          { (default_spec ~nodes:100) with motif_weights = [ (Chain, 6); (Fan, 1); (Diamond, 1) ];
            density = 0.05 } );
        ( "light_100_dense",
          { (default_spec ~nodes:100) with motif_weights = [ (Fan, 2); (Diamond, 2); (Chain, 1) ];
            density = 1.2; transient_ratio = 0.5 } );
      ]
  | Scaled ->
      [
        ("scaled_1k", default_spec ~nodes:1_000);
        ("scaled_2k", { (default_spec ~nodes:2_000) with density = 0.5 });
        ("scaled_5k", default_spec ~nodes:5_000);
      ]
  | Large ->
      [
        ("large_10k", default_spec ~nodes:10_000);
        ("large_30k", { (default_spec ~nodes:30_000) with density = 0.2 });
        ("large_50k", default_spec ~nodes:50_000);
      ]
  | Full -> [ ("full_100k", default_spec ~nodes:100_000) ]

let tier_specs tier =
  let upto = match tier with Light -> [ Light ] | Scaled -> [ Light; Scaled ]
    | Large -> [ Light; Scaled; Large ] | Full -> [ Light; Scaled; Large; Full ]
  in
  List.concat_map tier_own upto
