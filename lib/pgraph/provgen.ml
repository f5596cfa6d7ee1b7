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
(* Site-keyed splitmix64 draws (the fault injector's idiom)            *)
(* ------------------------------------------------------------------ *)

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* A key's state is [mix] folded left over the key's bytes from
   [origin seed], then mixed once more.  [absorb h s] continues a fold
   by [s], so keys that share a prefix fold it once: "node/17/label"
   and "node/17/transient?" both start from the fold of "node/17",
   which starts from the fold of "node/".  The accumulator stays
   unboxed inside the loop. *)
let absorb h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := mix (Int64.add !h (Int64.of_int (Char.code (String.unsafe_get s i))))
  done;
  !h

let origin seed = Int64.add (Int64.of_int seed) 0x9E3779B97F4A7C15L

(* Draw [i] at the state [st] of a key, as a float in [0, 1). *)
let unit_float st i =
  let v = mix (Int64.add st (Int64.of_int (i * 0x5851F42D))) in
  Int64.to_float (Int64.shift_right_logical v 11) /. 9007199254740992.

let draw_int st i bound = if bound <= 0 then 0 else int_of_float (unit_float st i *. float_of_int bound)

let hex_digits = "0123456789abcdef"

(* [Printf.sprintf "%08Lx"] of the low 32 bits of token draw [i] at
   [st], written into [b] at [off]. *)
let put_hex_token b off st i =
  let v = Int64.to_int (Int64.logand (mix (Int64.add st (Int64.of_int (i * 0x2545F491)))) 0xFFFFFFFFL) in
  for k = 0 to 7 do
    Bytes.unsafe_set b (off + k) hex_digits.[(v lsr (4 * (7 - k))) land 0xf]
  done

let hex_token st i =
  let b = Bytes.create 8 in
  put_hex_token b 0 st i;
  Bytes.unsafe_to_string b

(* [Printf.sprintf "%s_%s" label (hex_token st 1)] in one allocation. *)
let name_token label st =
  let n = String.length label in
  let b = Bytes.create (n + 9) in
  Bytes.blit_string label 0 b 0 n;
  Bytes.unsafe_set b n '_';
  put_hex_token b (n + 1) st 1;
  Bytes.unsafe_to_string b

(* [string_of_int i] for [i >= 0], without parsing a format. *)
let decimal i =
  let digits = ref 1 and r = ref (i / 10) in
  while !r > 0 do
    incr digits;
    r := !r / 10
  done;
  let b = Bytes.create !digits in
  let r = ref i in
  for k = !digits - 1 downto 0 do
    Bytes.unsafe_set b k (Char.unsafe_chr (48 + (!r mod 10)));
    r := !r / 10
  done;
  Bytes.unsafe_to_string b

(* [weighted ws st] picks a key of [ws] by weight with draw 0 at
   [st]; the total is summed once per [weighted ws]. *)
let weighted weights =
  let total = List.fold_left (fun acc (_, w) -> acc + max 0 w) 0 weights in
  fun st ->
    if total <= 0 then fst (List.hd weights)
    else
      let target = draw_int st 0 total in
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
  let root = origin seed in
  let run_key = "/run" ^ string_of_int run in
  (* Element [k] of a kind, from [kind], the fold of the kind's prefix
     ("node/" or "edge/"): its index digits, the state of its site
     (say "node/17"), its label, and its transient token when it draws
     one.  Labels and persistent tokens depend on (seed, site) only;
     the transient token also folds in [run]. *)
  let element kind labels k =
    let digits = decimal k in
    let site = absorb kind digits in
    let label = labels (mix (absorb site "/label")) in
    let transient =
      if unit_float (mix (absorb site "/transient?")) 0 < spec.transient_ratio then
        Some (hex_token (mix (absorb site run_key)) 2)
      else None
    in
    (digits, mix site, label, transient)
  in
  let with_transient key transient persistent =
    Props.of_list (match transient with Some t -> (key, t) :: persistent | None -> persistent)
  in
  let node_site = absorb root "node/" and node_label = weighted spec.node_types in
  let node_ids = Array.make n "" in
  let b = Graph.Builder.create () in
  for i = 0 to n - 1 do
    let digits, st, label, transient = element node_site node_label i in
    let id = "n" ^ digits in
    node_ids.(i) <- id;
    Graph.Builder.add_node b ~id ~label
      ~props:(with_transient "token" transient [ ("seq", digits); ("name", name_token label st) ])
  done;
  (* Edges: motif blocks over consecutive indices, a connector from
     each block start into the earlier graph, then the extra density
     draws.  All decisions are keyed on stable sites, so edge [k]'s
     labels and endpoints never depend on other draws. *)
  let edge_site = absorb root "edge/" and edge_label = weighted spec.edge_types in
  let eid = ref 0 in
  let add_edge ~src ~tgt =
    let digits, st, label, transient = element edge_site edge_label !eid in
    Graph.Builder.add_edge b ~id:("e" ^ digits) ~src:node_ids.(src) ~tgt:node_ids.(tgt) ~label
      ~props:(with_transient "t" transient [ ("op", hex_token st 1) ]);
    incr eid
  in
  let motif_site = absorb root "motif/" and motif_of = weighted spec.motif_weights in
  let connect_site = absorb root "connect/" in
  let i = ref 1 in
  let block = ref 0 in
  while !i < n do
    let start = !i in
    let digits = decimal !block in
    let motif = motif_of (mix (absorb motif_site digits)) in
    let size = min (motif_size motif) (n - start + 1) in
    (* The block reuses index [start - 1] as its first node so blocks
       overlap by one element and the graph stays connected even
       without the explicit connector. *)
    List.iter (fun (s, t) -> add_edge ~src:(start - 1 + s) ~tgt:(start - 1 + t))
      (motif_edges motif ~start:0 ~size);
    (* Connector from the block start back into the earlier graph. *)
    if start > 1 then
      add_edge ~src:(start - 1) ~tgt:(draw_int (mix (absorb connect_site digits)) 0 (start - 1));
    i := start + size - 1;
    incr block
  done;
  (* Density: expected [density] extra backward edges per node. *)
  let density_site = absorb root "density/" in
  let whole = int_of_float spec.density in
  let frac = spec.density -. float_of_int whole in
  for v = 1 to n - 1 do
    let site = absorb density_site (decimal v) in
    let extra = whole + if unit_float (mix (absorb site "/frac")) 0 < frac then 1 else 0 in
    let st = mix site in
    for k = 1 to extra do
      add_edge ~src:v ~tgt:(draw_int st k v)
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
    let st = mix (absorb (origin seed) ("perm/" ^ kind)) in
    for i = Array.length arr - 1 downto 1 do
      let j = draw_int st i (i + 1) in
      let t = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- t
    done;
    let tbl = Hashtbl.create (Array.length arr) in
    Array.iteri (fun i id -> Hashtbl.add tbl id (kind ^ decimal i)) arr;
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
