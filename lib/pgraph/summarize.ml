module Smap = Map.Make (String)

(* The prefix starts with a control byte no recorder or generator ever
   emits in a label, so anchor labels cannot collide with real ones.
   Instances are solver-internal and never serialized. *)
let anchor_prefix = "\x01anchor:"

let is_anchor_label l =
  String.length l >= String.length anchor_prefix
  && String.equal (String.sub l 0 (String.length anchor_prefix)) anchor_prefix

let anchor_label counterpart = anchor_prefix ^ counterpart

let node_id (g : Graph.t) i = g.Graph.nodes.(i).Graph.node_id

(* ------------------------------------------------------------------ *)
(* Grouping on int arrays                                              *)

(* Indices ordered by a key and cut into runs of equal key: run [k] is
   [order.(first.(k))] to [order.(first.(k + 1) - 1)], runs in
   ascending key order.  [cut_runs] cuts an order already sorted;
   [runs_of] first sorts ascending indices stably, so equal keys stay
   in index order. *)
type runs = { order : int array; first : int array }

let cut_runs compare_key order =
  let firsts = ref [ 0 ] in
  for p = 1 to Array.length order - 1 do
    if compare_key order.(p - 1) order.(p) <> 0 then firsts := p :: !firsts
  done;
  let firsts = if Array.length order = 0 then [] else !firsts in
  { order; first = Array.of_list (List.rev (Array.length order :: firsts)) }

let runs_of compare_key order =
  Array.stable_sort compare_key order;
  cut_runs compare_key order

let run_count r = Array.length r.first - 1
let run_size r k = r.first.(k + 1) - r.first.(k)
let run_head r k = r.order.(r.first.(k))
let run_members r k = List.init (run_size r k) (fun j -> r.order.(r.first.(k) + j))

(* [same_runs compare_heads r1 r2] holds when both have the same keys
   with the same run sizes, [compare_heads] comparing the key of a run
   head of [r1] with that of one of [r2]. *)
let same_runs compare_heads r1 r2 =
  run_count r1 = run_count r2
  &&
  let rec from k =
    k >= run_count r1
    || (run_size r1 k = run_size r2 k && compare_heads (run_head r1 k) (run_head r2 k) = 0 && from (k + 1))
  in
  from 0

(* Colour classes: node indices by colour, classes numbered in
   ascending colour order, [class_of] mapping a node to its class. *)
let classes_of colours =
  let cls =
    runs_of (fun a b -> Int64.compare colours.(a) colours.(b)) (Array.init (Array.length colours) Fun.id)
  in
  let class_of = Array.make (Array.length colours) 0 in
  for k = 0 to run_count cls - 1 do
    List.iter (fun i -> class_of.(i) <- k) (run_members cls k)
  done;
  (cls, class_of)

(* Each edge's label as a rank in [String.compare] order over the
   distinct edge labels of all the graphs given, so comparing ranks
   orders labels as strings do, across the graphs. *)
let label_ranks (graphs : Graph.t list) =
  let rank = Hashtbl.create 16 in
  List.iter
    (fun (g : Graph.t) ->
      Array.iter (fun (e : Graph.edge) -> Hashtbl.replace rank e.Graph.edge_label 0) g.Graph.edges)
    graphs;
  List.sort String.compare (Hashtbl.fold (fun l _ acc -> l :: acc) rank [])
  |> List.iteri (fun r l -> Hashtbl.replace rank l r);
  List.map
    (fun (g : Graph.t) ->
      Array.map (fun (e : Graph.edge) -> Hashtbl.find rank e.Graph.edge_label) g.Graph.edges)
    graphs

(* Edges [eis] (ascending) keyed by (source, target, label rank) in
   [ends]' numbering of their endpoints, grouped into runs in key order.
   A counting pass buckets them by source, so only each source's own
   edges are compared; buckets keep index order among equal keys. *)
let edge_runs (g : Graph.t) ranks ends eis =
  let src ei = ends.(g.Graph.src.(ei)) and tgt ei = ends.(g.Graph.tgt.(ei)) in
  let n = Array.length g.Graph.nodes in
  let start = Array.make (n + 1) 0 in
  Array.iter (fun ei -> start.(src ei + 1) <- start.(src ei + 1) + 1) eis;
  for s = 1 to n do
    start.(s) <- start.(s) + start.(s - 1)
  done;
  let order = Array.make (Array.length eis) 0 in
  let fill = Array.sub start 0 n in
  Array.iter
    (fun ei ->
      order.(fill.(src ei)) <- ei;
      fill.(src ei) <- fill.(src ei) + 1)
    eis;
  let rest a b =
    match Int.compare (tgt a) (tgt b) with 0 -> Int.compare ranks.(a) ranks.(b) | c -> c
  in
  for s = 0 to n - 1 do
    let lo = start.(s) and len = start.(s + 1) - start.(s) in
    if len > 1 then begin
      let bucket = Array.sub order lo len in
      Array.stable_sort rest bucket;
      Array.blit bucket 0 order lo len
    end
  done;
  let key a b = match Int.compare (src a) (src b) with 0 -> rest a b | c -> c in
  cut_runs key order

(* The same key read in two graphs' runs. *)
let cross_key (g1 : Graph.t) r1 e1 (g2 : Graph.t) r2 e2 a b =
  match Int.compare e1.(g1.Graph.src.(a)) e2.(g2.Graph.src.(b)) with
  | 0 -> (
      match Int.compare e1.(g1.Graph.tgt.(a)) e2.(g2.Graph.tgt.(b)) with
      | 0 -> Int.compare r1.(a) r2.(b)
      | c -> c)
  | c -> c

let all_edges (g : Graph.t) = Array.init (Array.length g.Graph.edges) Fun.id

(* ------------------------------------------------------------------ *)
(* Quotient graphs                                                     *)

type quotient = {
  qgraph : Graph.t;
  classes : (int64 * string list) list;
  rounds : int;
}

let qid i = "q" ^ string_of_int i

let quotient ?rounds g =
  let rounds, colours =
    match rounds with
    | Some r -> (r, Fingerprint.colours_at g r)
    | None ->
        let s = Fingerprint.settled g in
        (s.Fingerprint.rounds, s.Fingerprint.colours)
  in
  let cls, class_of = classes_of colours in
  let classes =
    List.init (run_count cls) (fun k ->
        (colours.(run_head cls k), List.map (node_id g) (run_members cls k)))
  in
  let qb = Graph.Builder.create () in
  for k = 0 to run_count cls - 1 do
    Graph.Builder.add_node qb ~id:(qid k)
      ~label:(Fingerprint.Hash.hex colours.(run_head cls k) ^ "*" ^ string_of_int (run_size cls k))
      ~props:Props.empty
  done;
  let ranks = List.hd (label_ranks [ g ]) in
  let bundles = edge_runs g ranks class_of (all_edges g) in
  for j = 0 to run_count bundles - 1 do
    let ei = run_head bundles j in
    Graph.Builder.add_edge qb ~id:("qe" ^ string_of_int j)
      ~src:(qid class_of.(g.Graph.src.(ei)))
      ~tgt:(qid class_of.(g.Graph.tgt.(ei)))
      ~label:(g.Graph.edges.(ei).Graph.edge_label ^ "*" ^ string_of_int (run_size bundles j))
      ~props:Props.empty
  done;
  { qgraph = Graph.Builder.freeze qb; classes; rounds }

(* Elements in id order, as the graph holds them. *)
let render_graph b (g : Graph.t) =
  let render_props p =
    List.iter
      (fun (k, v) ->
        Buffer.add_string b k;
        Buffer.add_char b '=';
        Buffer.add_string b v;
        Buffer.add_char b ';')
      (Props.to_list p)
  in
  Array.iter
    (fun (n : Graph.node) ->
      Buffer.add_string b n.Graph.node_id;
      Buffer.add_char b '\x00';
      Buffer.add_string b n.Graph.node_label;
      Buffer.add_char b '\x00';
      render_props n.Graph.node_props;
      Buffer.add_char b '\n')
    g.Graph.nodes;
  Array.iter
    (fun (e : Graph.edge) ->
      Buffer.add_string b e.Graph.edge_id;
      Buffer.add_char b '\x00';
      Buffer.add_string b e.Graph.edge_src;
      Buffer.add_char b '\x00';
      Buffer.add_string b e.Graph.edge_tgt;
      Buffer.add_char b '\x00';
      Buffer.add_string b e.Graph.edge_label;
      Buffer.add_char b '\x00';
      render_props e.Graph.edge_props;
      Buffer.add_char b '\n')
    g.Graph.edges

let quotient_digest q =
  let b = Buffer.create 256 in
  render_graph b q.qgraph;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* Segmentation plans                                                  *)

type segment = {
  left : Graph.t;
  right : Graph.t;
  pieces : int;
  digest : string;
}

type plan = {
  rounds : int;
  forced_nodes : (string * string) list;
  forced_edges : (string * string) list;
  segments : segment list;
}

type outcome = Mismatch | Whole | Segmented of plan

exception Bail of outcome

let digest_pair l r =
  let b = Buffer.create 1024 in
  render_graph b l;
  Buffer.add_string b "\x00--\x00";
  render_graph b r;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Weakly connected components of the subgraph induced by the nodes
   flagged in [amb], as sorted member index lists in ascending-seed
   order (index order is id order). *)
let components (g : Graph.t) amb =
  let visited = Array.make (Array.length amb) false in
  let comps = ref [] in
  Array.iteri
    (fun seed is_amb ->
      if is_amb && not visited.(seed) then begin
        let comp = ref [] in
        let queue = Queue.create () in
        let visit v =
          if amb.(v) && not visited.(v) then begin
            visited.(v) <- true;
            Queue.add v queue
          end
        in
        visit seed;
        while not (Queue.is_empty queue) do
          let u = Queue.pop queue in
          comp := u :: !comp;
          Array.iter (fun ei -> visit g.Graph.tgt.(ei)) g.Graph.outs.(u);
          Array.iter (fun ei -> visit g.Graph.src.(ei)) g.Graph.ins.(u)
        done;
        comps := List.sort Int.compare !comp :: !comps
      end)
    amb;
  List.rev !comps

(* Per-component edge partition, computed in one pass over the edges:
   [intra.(i)] are the indices of edges with both endpoints ambiguous
   (necessarily the same component), [frontier.(i)] of edges with
   exactly one ambiguous endpoint (the other forced), each ascending.
   Forced-forced edges ([comp_of] is -1 at both ends) are handled
   separately and never reach a segment. *)
let classify_edges (g : Graph.t) comp_of ncomps =
  let intra = Array.make (max 1 ncomps) [] in
  let frontier = Array.make (max 1 ncomps) [] in
  for ei = Array.length g.Graph.edges - 1 downto 0 do
    match (comp_of.(g.Graph.src.(ei)), comp_of.(g.Graph.tgt.(ei))) with
    | -1, -1 -> ()
    | i, -1 | -1, i -> frontier.(i) <- ei :: frontier.(i)
    | i, _ -> intra.(i) <- ei :: intra.(i)
  done;
  (intra, frontier)

(* Isomorphism-invariant component signature used to pair left and
   right components: member colour multiset, intra-edge descriptors
   (label and endpoint colours) and frontier descriptors (direction,
   label and the g2 identity of the forced endpoint — [counterpart]
   names a forced node by its g2 id, so both sides speak g2 ids).  Any
   label-isomorphism maps a component onto one with an equal signature,
   so unequal per-signature counts refute the pair, and equal-signature
   components are interchangeable only among themselves. *)
let comp_signature (g : Graph.t) colours amb counterpart members intra frontier =
  let hex i = Fingerprint.Hash.hex colours.(i) in
  let label ei = g.Graph.edges.(ei).Graph.edge_label in
  let src ei = g.Graph.src.(ei) and tgt ei = g.Graph.tgt.(ei) in
  let b = Buffer.create 128 in
  let add_sorted sep strings =
    List.iter
      (fun s ->
        Buffer.add_string b s;
        Buffer.add_char b sep)
      (List.sort String.compare strings)
  in
  List.map (fun i -> colours.(i)) members
  |> List.sort Int64.compare
  |> List.iter (fun c ->
         Buffer.add_string b (Fingerprint.Hash.hex c);
         Buffer.add_char b ',');
  Buffer.add_char b '|';
  add_sorted ';' (List.map (fun ei -> String.concat ":" [ label ei; hex (src ei); hex (tgt ei) ]) intra);
  Buffer.add_char b '|';
  (* A frontier edge's ambiguous endpoint is the member. *)
  add_sorted ';'
    (List.map
       (fun ei ->
         if amb.(src ei) then "out:" ^ label ei ^ ":" ^ counterpart (tgt ei)
         else "in:" ^ label ei ^ ":" ^ counterpart (src ei))
       frontier);
  Digest.to_hex (Digest.string (Buffer.contents b))

let anchor (g : Graph.t) counterpart i =
  { Graph.node_id = node_id g i; node_label = anchor_label (counterpart i); node_props = Props.empty }

let edges_at (g : Graph.t) eis = List.map (fun ei -> g.Graph.edges.(ei)) eis

(* Builds one side of a segment instance from a group of components.
   Members keep their labels and properties; forced neighbours (the
   endpoints of the components' edges that are not ambiguous) become
   anchors — original id, [anchor_label] of their g2 counterpart, empty
   properties — and only edges with at least one ambiguous endpoint are
   included. *)
let build_side (g : Graph.t) amb counterpart comp_members comp_edges =
  let members = List.sort Int.compare (List.concat comp_members) in
  let edges = List.sort Int.compare (List.concat comp_edges) in
  let anchors =
    List.concat_map (fun ei -> [ g.Graph.src.(ei); g.Graph.tgt.(ei) ]) edges
    |> List.filter (fun i -> not amb.(i))
    |> List.sort_uniq Int.compare
  in
  Graph.make
    ~nodes:(List.map (fun i -> g.Graph.nodes.(i)) members @ List.map (anchor g counterpart) anchors)
    ~edges:(edges_at g edges)

(* One side of a parallel bundle between two forced endpoints: the
   edges are interchangeable up to property cost, so they form a mini
   assignment instance between the two anchored endpoints. *)
let bundle_side (g : Graph.t) counterpart eis =
  let e0 = List.hd eis in
  let s = g.Graph.src.(e0) and t = g.Graph.tgt.(e0) in
  Graph.make ~nodes:(List.map (anchor g counterpart) (if s = t then [ s ] else [ s; t ])) ~edges:(edges_at g eis)

let plan_settled (s1 : Fingerprint.settled) (s2 : Fingerprint.settled) =
  let v1 = s1.Fingerprint.graph and v2 = s2.Fingerprint.graph in
  let n = Array.length v1.Graph.nodes in
  try
    if
      n <> Array.length v2.Graph.nodes
      || Array.length v1.Graph.edges <> Array.length v2.Graph.edges
    then raise (Bail Mismatch);
    (* One colouring per graph, at the pair's common depth: colour
       hashes are only comparable at equal rounds, so the shallower
       graph refines on from its own stable point. *)
    let rounds = max s1.Fingerprint.rounds s2.Fingerprint.rounds in
    let c1 = Fingerprint.refine s1 (rounds - s1.Fingerprint.rounds) s1.Fingerprint.colours
    and c2 = Fingerprint.refine s2 (rounds - s2.Fingerprint.rounds) s2.Fingerprint.colours in
    let cls1, class_of1 = classes_of c1 and cls2, class_of2 = classes_of c2 in
    let r1, r2 =
      match label_ranks [ v1; v2 ] with [ r1; r2 ] -> (r1, r2) | _ -> assert false
    in
    (* Quotients first: any label-isomorphism preserves colours exactly
       (the hashes are computed identically on both sides), so a
       matchable pair has structurally equal quotients — equal class
       histograms and equal class-to-class edge bundles — even under
       hash collisions, which merge the same classes on both sides.
       The quotient graphs are compared without being built: their
       nodes follow colour order and their edges bundle-key order, so
       they are structurally equal exactly when these runs are. *)
    if
      not
        (same_runs (fun a b -> Int64.compare c1.(a) c2.(b)) cls1 cls2
        && same_runs
             (cross_key v1 r1 class_of1 v2 r2 class_of2)
             (edge_runs v1 r1 class_of1 (all_edges v1))
             (edge_runs v2 r2 class_of2 (all_edges v2)))
    then raise (Bail Mismatch);
    (* Forced pairs by node index: [partner.(i)] is the g2 index forced
       onto g1 node [i] (or -1), [forced2] flags g2's forced nodes.
       Classes correspond index for index now, in colour order. *)
    let forced =
      List.filter_map
        (fun k -> if run_size cls1 k = 1 then Some (run_head cls1 k, run_head cls2 k) else None)
        (List.init (run_count cls1) Fun.id)
    in
    (* Defensive: a hash collision could in principle pair nodes with
       different labels; the decomposition would be unsound, so give the
       pair back to the whole-graph solver instead. *)
    List.iter
      (fun (a, b) ->
        if
          not
            (String.equal v1.Graph.nodes.(a).Graph.node_label v2.Graph.nodes.(b).Graph.node_label)
        then raise (Bail Whole))
      forced;
    let partner = Array.make n (-1) in
    let forced2 = Array.make n false in
    List.iter
      (fun (a, b) ->
        partner.(a) <- b;
        forced2.(b) <- true)
      forced;
    let forced_nodes = List.map (fun (a, b) -> (node_id v1 a, node_id v2 b)) forced in
    let counterpart1 i = node_id v2 partner.(i) and counterpart2 = node_id v2 in
    (* Forced-forced edge bundles, keyed in g2 coordinates (g2 index
       order is g2 id order), each an ascending edge-index run.  An
       isomorphism maps each bundle bijectively onto its counterpart, so
       the sizes must agree in both directions. *)
    let forced_edges_of (g : Graph.t) is_forced =
      let kept = ref [] in
      for ei = Array.length g.Graph.edges - 1 downto 0 do
        if is_forced g.Graph.src.(ei) && is_forced g.Graph.tgt.(ei) then
          kept := ei :: !kept
      done;
      Array.of_list !kept
    in
    let same = Array.init n Fun.id in
    let fb1 = edge_runs v1 r1 partner (forced_edges_of v1 (fun i -> partner.(i) >= 0)) in
    let fb2 = edge_runs v2 r2 same (forced_edges_of v2 (fun i -> forced2.(i))) in
    if not (same_runs (cross_key v1 r1 partner v2 r2 same) fb1 fb2) then raise (Bail Mismatch);
    let edge_id (g : Graph.t) ei = g.Graph.edges.(ei).Graph.edge_id in
    let forced_edges, bundle_segments =
      List.fold_left
        (fun (fe, segs) k ->
          match (run_members fb1 k, run_members fb2 k) with
          | [ a ], [ b ] -> ((edge_id v1 a, edge_id v2 b) :: fe, segs)
          | eis1, eis2 ->
              let left = bundle_side v1 counterpart1 eis1 in
              let right = bundle_side v2 counterpart2 eis2 in
              (fe, { left; right; pieces = 1; digest = digest_pair left right } :: segs))
        ([], [])
        (List.init (run_count fb1) Fun.id)
    in
    let forced_edges = List.rev forced_edges in
    (* Ambiguous components on both sides. *)
    let amb1 = Array.map (fun b -> b < 0) partner and amb2 = Array.map not forced2 in
    let comps1 = components v1 amb1 and comps2 = components v2 amb2 in
    let comp_of comps =
      let a = Array.make n (-1) in
      List.iteri (fun ci members -> List.iter (fun i -> a.(i) <- ci) members) comps;
      a
    in
    let intra1, frontier1 = classify_edges v1 (comp_of comps1) (List.length comps1) in
    let intra2, frontier2 = classify_edges v2 (comp_of comps2) (List.length comps2) in
    let comps1 = Array.of_list comps1 and comps2 = Array.of_list comps2 in
    let group g colours amb counterpart comps intra frontier =
      let sigs =
        Array.mapi
          (fun i members ->
            comp_signature g colours amb counterpart members intra.(i) frontier.(i))
          comps
      in
      let m = ref Smap.empty in
      for i = Array.length sigs - 1 downto 0 do
        m := Smap.update sigs.(i) (function None -> Some [ i ] | Some is -> Some (i :: is)) !m
      done;
      !m
    in
    let grp1 = group v1 c1 amb1 counterpart1 comps1 intra1 frontier1 in
    let grp2 = group v2 c2 amb2 counterpart2 comps2 intra2 frontier2 in
    if not (Smap.equal (fun a b -> List.length a = List.length b) grp1 grp2) then
      raise (Bail Mismatch);
    let comp_segments =
      Smap.fold
        (fun key is1 acc ->
          let is2 = Smap.find key grp2 in
          let pick comps intra frontier is =
            (List.map (fun i -> comps.(i)) is, List.map (fun i -> intra.(i) @ frontier.(i)) is)
          in
          let members1, edges1 = pick comps1 intra1 frontier1 is1 in
          let members2, edges2 = pick comps2 intra2 frontier2 is2 in
          let left = build_side v1 amb1 counterpart1 members1 edges1 in
          let right = build_side v2 amb2 counterpart2 members2 edges2 in
          { left; right; pieces = List.length is1; digest = digest_pair left right } :: acc)
        grp1 []
    in
    let segments =
      List.sort (fun a b -> String.compare a.digest b.digest) (bundle_segments @ comp_segments)
    in
    let max_seg =
      List.fold_left (fun acc s -> max acc (Graph.node_count s.left)) 0 segments
    in
    if max_seg >= n && n > 0 then Whole
    else Segmented { rounds; forced_nodes; forced_edges; segments }
  with Bail o -> o

let plan g1 g2 = plan_settled (Fingerprint.settled g1) (Fingerprint.settled g2)

let max_segment_nodes p =
  List.fold_left (fun acc s -> max acc (Graph.node_count s.left)) 0 p.segments

(* Anchor pairs repeat forced pairs; every other id is an original one. *)
let stitch p witnesses =
  let forced = Hashtbl.create (List.length p.forced_nodes) in
  List.iter (fun (a, _) -> Hashtbl.replace forced a ()) p.forced_nodes;
  let seg_nodes, seg_edges = List.split witnesses in
  ( p.forced_nodes @ List.concat_map (List.filter (fun (a, _) -> not (Hashtbl.mem forced a))) seg_nodes,
    p.forced_edges @ List.concat seg_edges )
