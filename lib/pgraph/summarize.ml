module Smap = Map.Make (String)
module Sset = Set.Make (String)
module Imap = Map.Make (Int64)

(* Keys for edge aggregation: (source class index, target class index,
   label) for quotients, (g2 source index, g2 target index, label) for
   forced-edge bundles. *)
module Iemap = Map.Make (struct
  type t = int * int * string

  let compare (s1, t1, l1) (s2, t2, l2) =
    match Int.compare s1 s2 with
    | 0 -> ( match Int.compare t1 t2 with 0 -> String.compare l1 l2 | c -> c)
    | c -> c
end)

(* The prefix starts with a control byte no recorder or generator ever
   emits in a label, so anchor labels cannot collide with real ones.
   Instances are solver-internal and never serialized. *)
let anchor_prefix = "\x01anchor:"

let is_anchor_label l =
  String.length l >= String.length anchor_prefix
  && String.equal (String.sub l 0 (String.length anchor_prefix)) anchor_prefix

let anchor_label counterpart = anchor_prefix ^ counterpart

let cons x = function None -> Some [ x ] | Some xs -> Some (x :: xs)

(* Colour classes of a view's colouring: colour -> ascending member
   indices (index order is id order). *)
let colour_classes colours =
  let m = ref Imap.empty in
  for i = Array.length colours - 1 downto 0 do
    m := Imap.update colours.(i) (cons i) !m
  done;
  !m

let node_id (view : Fingerprint.view) i = view.Fingerprint.nodes.(i).Graph.node_id

let colour_map (view : Fingerprint.view) colours =
  let m = ref Smap.empty in
  Array.iteri
    (fun i (n : Graph.node) -> m := Smap.add n.Graph.node_id colours.(i) !m)
    view.Fingerprint.nodes;
  !m

(* ------------------------------------------------------------------ *)
(* Quotient graphs                                                     *)

type quotient = {
  qgraph : Graph.t;
  classes : (int64 * string list) list;
  rounds : int;
}

(* The quotient's edge bundles: (source class, target class, label) ->
   multiplicity, classes numbered in ascending colour order. *)
let class_bundles (view : Fingerprint.view) colours cls =
  let class_index, _ = Imap.fold (fun c _ (m, i) -> (Imap.add c i m, i + 1)) cls (Imap.empty, 0) in
  let node_class = Array.map (fun c -> Imap.find c class_index) colours in
  let bundles = ref Iemap.empty in
  Array.iteri
    (fun ei (e : Graph.edge) ->
      let k =
        ( node_class.(view.Fingerprint.esrc.(ei)),
          node_class.(view.Fingerprint.etgt.(ei)),
          e.Graph.edge_label )
      in
      bundles := Iemap.update k (function None -> Some 1 | Some n -> Some (n + 1)) !bundles)
    view.Fingerprint.edges;
  !bundles

let qid i = "q" ^ string_of_int i

let quotient ?rounds g =
  let view = Fingerprint.view_of g in
  let rounds, colours =
    match rounds with
    | Some r -> (r, Fingerprint.colours_at view r)
    | None ->
        let r, colours, _ = Fingerprint.settle view (Fingerprint.label_colours view) in
        (r, colours)
  in
  let cls = colour_classes colours in
  let classes = List.map (fun (c, is) -> (c, List.map (node_id view) is)) (Imap.bindings cls) in
  let qg, _ =
    List.fold_left
      (fun (qg, i) (c, ids) ->
        ( Graph.add_node qg ~id:(qid i)
            ~label:(Fingerprint.Hash.hex c ^ "*" ^ string_of_int (List.length ids))
            ~props:Props.empty,
          i + 1 ))
      (Graph.empty, 0) classes
  in
  let qg, _ =
    Iemap.fold
      (fun (si, ti, lbl) n (qg, j) ->
        ( Graph.add_edge qg ~id:("qe" ^ string_of_int j) ~src:(qid si) ~tgt:(qid ti)
            ~label:(lbl ^ "*" ^ string_of_int n)
            ~props:Props.empty,
          j + 1 ))
      (class_bundles view colours cls)
      (qg, 0)
  in
  { qgraph = qg; classes; rounds }

let render_graph b g =
  let render_props p =
    List.iter
      (fun (k, v) ->
        Buffer.add_string b k;
        Buffer.add_char b '=';
        Buffer.add_string b v;
        Buffer.add_char b ';')
      (Props.to_list p)
  in
  List.iter
    (fun (n : Graph.node) ->
      Buffer.add_string b n.Graph.node_id;
      Buffer.add_char b '\x00';
      Buffer.add_string b n.Graph.node_label;
      Buffer.add_char b '\x00';
      render_props n.Graph.node_props;
      Buffer.add_char b '\n')
    (List.sort
       (fun (a : Graph.node) b -> String.compare a.Graph.node_id b.Graph.node_id)
       (Graph.nodes g));
  List.iter
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
    (List.sort
       (fun (a : Graph.edge) b -> String.compare a.Graph.edge_id b.Graph.edge_id)
       (Graph.edges g))

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
  frontier_edges : int;
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
let components (view : Fingerprint.view) amb =
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
          List.iter (fun (_, v) -> visit v) view.Fingerprint.outs.(u);
          List.iter (fun (_, v) -> visit v) view.Fingerprint.ins.(u)
        done;
        comps := List.sort Int.compare !comp :: !comps
      end)
    amb;
  List.rev !comps

(* Per-component edge partition, computed in one pass over the edges:
   [intra.(i)] are edges with both endpoints ambiguous (necessarily the
   same component), [frontier.(i)] edges with exactly one ambiguous
   endpoint (the other forced), each in edge-id order.  Forced-forced
   edges ([comp_of] is -1 at both ends) are handled separately and
   never reach a segment. *)
let classify_edges (view : Fingerprint.view) comp_of ncomps =
  let intra = Array.make (max 1 ncomps) [] in
  let frontier = Array.make (max 1 ncomps) [] in
  for ei = Array.length view.Fingerprint.edges - 1 downto 0 do
    let e = view.Fingerprint.edges.(ei) in
    match (comp_of.(view.Fingerprint.esrc.(ei)), comp_of.(view.Fingerprint.etgt.(ei))) with
    | -1, -1 -> ()
    | i, -1 | -1, i -> frontier.(i) <- e :: frontier.(i)
    | i, _ -> intra.(i) <- e :: intra.(i)
  done;
  (intra, frontier)

(* Isomorphism-invariant component signature used to pair left and
   right components: member colour multiset, intra-edge descriptors
   (label and endpoint colours) and frontier descriptors (direction,
   label and the g2 identity of the forced endpoint — forced nodes are
   translated through the forced map so both sides speak g2 ids).  Any
   label-isomorphism maps a component onto one with an equal signature,
   so unequal per-signature counts refute the pair, and equal-signature
   components are interchangeable only among themselves. *)
let comp_signature colours counterpart members intra frontier =
  let mset = Sset.of_list members in
  let b = Buffer.create 128 in
  List.map (fun id -> Smap.find id colours) members
  |> List.sort Int64.compare
  |> List.iter (fun c ->
         Buffer.add_string b (Fingerprint.Hash.hex c);
         Buffer.add_char b ',');
  Buffer.add_char b '|';
  List.map
    (fun (e : Graph.edge) ->
      String.concat ":"
        [
          e.Graph.edge_label;
          Fingerprint.Hash.hex (Smap.find e.Graph.edge_src colours);
          Fingerprint.Hash.hex (Smap.find e.Graph.edge_tgt colours);
        ])
    intra
  |> List.sort String.compare
  |> List.iter (fun s ->
         Buffer.add_string b s;
         Buffer.add_char b ';');
  Buffer.add_char b '|';
  List.map
    (fun (e : Graph.edge) ->
      if Sset.mem e.Graph.edge_src mset then
        Printf.sprintf "out:%s:%s" e.Graph.edge_label (counterpart e.Graph.edge_tgt)
      else Printf.sprintf "in:%s:%s" e.Graph.edge_label (counterpart e.Graph.edge_src))
    frontier
  |> List.sort String.compare
  |> List.iter (fun s ->
         Buffer.add_string b s;
         Buffer.add_char b ';');
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Builds one side of a segment instance from a group of components.
   Members keep their labels and properties; forced neighbours become
   anchors — original id, [anchor_label] of their g2 counterpart, empty
   properties — and only edges with at least one ambiguous endpoint are
   included.  Insertion happens in sorted order so the instance is a
   deterministic value. *)
let build_side g counterpart comp_members comp_edges =
  let members = List.concat comp_members |> List.sort String.compare in
  let mset = Sset.of_list members in
  let edges =
    List.concat comp_edges
    |> List.sort (fun (a : Graph.edge) b -> String.compare a.Graph.edge_id b.Graph.edge_id)
  in
  let anchors =
    List.fold_left
      (fun s (e : Graph.edge) ->
        let s = if Sset.mem e.Graph.edge_src mset then s else Sset.add e.Graph.edge_src s in
        if Sset.mem e.Graph.edge_tgt mset then s else Sset.add e.Graph.edge_tgt s)
      Sset.empty edges
  in
  let side =
    List.fold_left
      (fun acc id ->
        match Graph.find_node g id with
        | Some n -> Graph.add_node acc ~id ~label:n.Graph.node_label ~props:n.Graph.node_props
        | None -> acc)
      Graph.empty members
  in
  let side =
    Sset.fold
      (fun id acc ->
        Graph.add_node acc ~id ~label:(anchor_label (counterpart id)) ~props:Props.empty)
      anchors side
  in
  List.fold_left
    (fun acc (e : Graph.edge) ->
      Graph.add_edge acc ~id:e.Graph.edge_id ~src:e.Graph.edge_src ~tgt:e.Graph.edge_tgt
        ~label:e.Graph.edge_label ~props:e.Graph.edge_props)
    side edges

let plan ?rounds g1 g2 =
  try
    if Graph.node_count g1 <> Graph.node_count g2 || Graph.edge_count g1 <> Graph.edge_count g2
    then raise (Bail Mismatch);
    (* One colouring per graph, at the pair's common depth: colour
       hashes are only comparable at equal rounds, so the shallower
       graph refines on from its own stable point. *)
    let v1 = Fingerprint.view_of g1 and v2 = Fingerprint.view_of g2 in
    let rounds, c1, c2 =
      match rounds with
      | Some r -> (r, Fingerprint.colours_at v1 r, Fingerprint.colours_at v2 r)
      | None ->
          let r1, a1, _ = Fingerprint.settle v1 (Fingerprint.label_colours v1) in
          let r2, a2, _ = Fingerprint.settle v2 (Fingerprint.label_colours v2) in
          let r = max r1 r2 in
          (r, Fingerprint.refine v1 (r - r1) a1, Fingerprint.refine v2 (r - r2) a2)
    in
    let cls1 = colour_classes c1 and cls2 = colour_classes c2 in
    (* Quotients first: any label-isomorphism preserves colours exactly
       (the hashes are computed identically on both sides), so a
       matchable pair has structurally equal quotients — equal class
       histograms and equal class-to-class edge bundles — even under
       hash collisions, which merge the same classes on both sides.
       The quotient graphs are compared without being built: their
       nodes follow colour order and their edges bundle-key order, so
       they are structurally equal exactly when these two maps are. *)
    if
      not
        (Imap.equal (fun a b -> List.length a = List.length b) cls1 cls2
        && Iemap.equal Int.equal (class_bundles v1 c1 cls1) (class_bundles v2 c2 cls2))
    then raise (Bail Mismatch);
    let col1 = colour_map v1 c1 and col2 = colour_map v2 c2 in
    (* Forced pairs by node index: [partner.(i)] is the g2 index forced
       onto g1 node [i] (or -1), [forced2] flags g2's forced nodes. *)
    let forced =
      Imap.fold
        (fun c is acc ->
          match is with [ a ] -> (a, List.hd (Imap.find c cls2)) :: acc | _ -> acc)
        cls1 []
      |> List.rev
    in
    (* Defensive: a hash collision could in principle pair nodes with
       different labels; the decomposition would be unsound, so give the
       pair back to the whole-graph solver instead. *)
    List.iter
      (fun (a, b) ->
        if
          not
            (String.equal v1.Fingerprint.nodes.(a).Graph.node_label
               v2.Fingerprint.nodes.(b).Graph.node_label)
        then raise (Bail Whole))
      forced;
    let partner = Array.make (Array.length c1) (-1) in
    let forced2 = Array.make (Array.length c2) false in
    List.iter
      (fun (a, b) ->
        partner.(a) <- b;
        forced2.(b) <- true)
      forced;
    let forced_nodes = List.map (fun (a, b) -> (node_id v1 a, node_id v2 b)) forced in
    let forced_map = List.fold_left (fun m (a, b) -> Smap.add a b m) Smap.empty forced_nodes in
    (* Forced-forced edge bundles, keyed in g2 coordinates (g2 index
       order is g2 id order), each an ascending edge-id list.  An
       isomorphism maps each bundle bijectively onto its counterpart, so
       the sizes must agree in both directions. *)
    let bundles (view : Fingerprint.view) key =
      let m = ref Iemap.empty in
      for ei = Array.length view.Fingerprint.edges - 1 downto 0 do
        let e = view.Fingerprint.edges.(ei) in
        match key view.Fingerprint.esrc.(ei) view.Fingerprint.etgt.(ei) with
        | Some (s, t) -> m := Iemap.update (s, t, e.Graph.edge_label) (cons e.Graph.edge_id) !m
        | None -> ()
      done;
      !m
    in
    let bundle1 =
      bundles v1 (fun s t ->
          if partner.(s) >= 0 && partner.(t) >= 0 then Some (partner.(s), partner.(t)) else None)
    in
    let bundle2 = bundles v2 (fun s t -> if forced2.(s) && forced2.(t) then Some (s, t) else None) in
    if not (Iemap.equal (fun a b -> List.length a = List.length b) bundle1 bundle2) then
      raise (Bail Mismatch);
    let forced_edges, bundle_segments =
      Iemap.fold
        (fun key ids1 (fe, segs) ->
          let ids2 = Iemap.find key bundle2 in
          match (ids1, ids2) with
          | [ a ], [ b ] -> ((a, b) :: fe, segs)
          | _ ->
              (* A parallel bundle: the edges are interchangeable up to
                 property cost, so solve them as a mini assignment
                 instance between the two anchored endpoints. *)
              let side g ids counterpart =
                let e0 =
                  match Graph.find_edge g (List.hd ids) with
                  | Some e -> e
                  | None -> raise (Bail Whole)
                in
                let side =
                  Graph.add_node Graph.empty ~id:e0.Graph.edge_src
                    ~label:(anchor_label (counterpart e0.Graph.edge_src))
                    ~props:Props.empty
                in
                let side =
                  if String.equal e0.Graph.edge_src e0.Graph.edge_tgt then side
                  else
                    Graph.add_node side ~id:e0.Graph.edge_tgt
                      ~label:(anchor_label (counterpart e0.Graph.edge_tgt))
                      ~props:Props.empty
                in
                List.fold_left
                  (fun acc id ->
                    match Graph.find_edge g id with
                    | Some e ->
                        Graph.add_edge acc ~id ~src:e.Graph.edge_src ~tgt:e.Graph.edge_tgt
                          ~label:e.Graph.edge_label ~props:e.Graph.edge_props
                    | None -> acc)
                  side ids
              in
              let left = side g1 ids1 (fun id -> Smap.find id forced_map) in
              let right = side g2 ids2 (fun id -> id) in
              (fe, { left; right; pieces = 1; digest = digest_pair left right } :: segs))
        bundle1 ([], [])
    in
    let forced_edges = List.rev forced_edges in
    (* Ambiguous components on both sides. *)
    let comps1 = components v1 (Array.map (fun b -> b < 0) partner)
    and comps2 = components v2 (Array.map not forced2) in
    let comp_of (view : Fingerprint.view) comps =
      let a = Array.make (Array.length view.Fingerprint.nodes) (-1) in
      List.iteri (fun ci members -> List.iter (fun i -> a.(i) <- ci) members) comps;
      a
    in
    let intra1, frontier1 = classify_edges v1 (comp_of v1 comps1) (List.length comps1) in
    let intra2, frontier2 = classify_edges v2 (comp_of v2 comps2) (List.length comps2) in
    let ids view comps = Array.of_list (List.map (List.map (node_id view)) comps) in
    let comps1 = ids v1 comps1 and comps2 = ids v2 comps2 in
    let sigs comps colours counterpart intra frontier =
      Array.to_list
        (Array.mapi
           (fun i members -> comp_signature colours counterpart members intra.(i) frontier.(i))
           comps)
    in
    let sig1 = sigs comps1 col1 (fun id -> Smap.find id forced_map) intra1 frontier1 in
    let sig2 = sigs comps2 col2 (fun id -> id) intra2 frontier2 in
    let group sigs =
      List.fold_left
        (fun (m, i) s -> (Smap.update s (cons i) m, i + 1))
        (Smap.empty, 0) sigs
      |> fst
      |> Smap.map (List.sort compare)
    in
    let grp1 = group sig1 and grp2 = group sig2 in
    if not (Smap.equal (fun a b -> List.length a = List.length b) grp1 grp2) then
      raise (Bail Mismatch);
    let comp_segments =
      Smap.fold
        (fun key is1 acc ->
          let is2 = Smap.find key grp2 in
          let pick comps intra frontier is =
            ( List.map (fun i -> comps.(i)) is,
              List.map (fun i -> intra.(i) @ frontier.(i)) is )
          in
          let members1, edges1 = pick comps1 intra1 frontier1 is1 in
          let members2, edges2 = pick comps2 intra2 frontier2 is2 in
          let left = build_side g1 (fun id -> Smap.find id forced_map) members1 edges1 in
          let right = build_side g2 (fun id -> id) members2 edges2 in
          { left; right; pieces = List.length is1; digest = digest_pair left right } :: acc)
        grp1 []
    in
    let segments =
      List.sort (fun a b -> String.compare a.digest b.digest) (bundle_segments @ comp_segments)
    in
    let frontier_edges = Array.fold_left (fun acc es -> acc + List.length es) 0 frontier1 in
    let max_seg =
      List.fold_left (fun acc s -> max acc (Graph.node_count s.left)) 0 segments
    in
    if max_seg >= Graph.node_count g1 && Graph.node_count g1 > 0 then Whole
    else Segmented { rounds; forced_nodes; forced_edges; segments; frontier_edges }
  with Bail o -> o

let max_segment_nodes p =
  List.fold_left (fun acc s -> max acc (Graph.node_count s.left)) 0 p.segments

let stitch p witnesses =
  let forced = List.fold_left (fun s (a, _) -> Sset.add a s) Sset.empty p.forced_nodes in
  p.forced_nodes @ p.forced_edges
  @ List.concat_map (List.filter (fun (a, _) -> not (Sset.mem a forced))) witnesses
