open Pgraph

type failure =
  | No_trials
  | No_consistent_pair
  | Alignment_failed of string

let failure_to_string = function
  | No_trials -> "no trial graphs recorded"
  | No_consistent_pair -> "no two trial runs produced similar graphs"
  | Alignment_failed m -> "alignment failed: " ^ m

type outcome = {
  general : Graph.t;
  class_size : int;
  classes : int;
  discarded : int;
}

(* Pre-filtering (the config.ini "filtergraphs" mechanism): keep only
   graphs whose (node count, edge count) signature is the modal one —
   obviously truncated or inflated runs are dropped before the expensive
   similarity classing. *)
let filter_incomplete graphs =
  let signature g = (Graph.node_count g, Graph.edge_count g) in
  let module M = Map.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let counts =
    List.fold_left
      (fun m g -> M.update (signature g) (function None -> Some 1 | Some n -> Some (n + 1)) m)
      M.empty graphs
  in
  let best_sig, _ =
    M.fold (fun s n (bs, bn) -> if n > bn then (s, n) else (bs, bn)) counts ((0, 0), 0)
  in
  List.filter (fun g -> signature g = best_sig) graphs

(* Partition into similarity classes.  With [opts.canon] set
   (and every graph in budget) the classes are exactly the canonical
   digest buckets — similarity is digest equality, no solver confirms
   anything.  Otherwise fingerprints bucket candidates cheaply and the
   exact solver confirms within buckets.  Both paths list classes in
   first-seen order with members in input order, so the choice of path
   never changes the output. *)
let digest_classes graphs digests =
  let classes : (string * Graph.t list ref) list ref = ref [] in
  List.iter2
    (fun g d ->
      let rec place = function
        | [] -> classes := !classes @ [ (d, ref [ g ]) ]
        | (d', members) :: rest ->
            if String.equal d d' then begin
              (* One avoided pairwise check, as the solver path would
                 have confirmed against the class representative. *)
              Gmatch.Engine.canon_skip "similarity";
              members := g :: !members
            end
            else place rest
      in
      place !classes)
    graphs digests;
  List.map (fun (_, members) -> List.rev !members) !classes

let similarity_classes ~opts ~backend graphs =
  let digests = if opts.Gmatch.Match_opts.canon then List.map Canon.digest graphs else [] in
  if digests <> [] && List.for_all Option.is_some digests then
    digest_classes graphs (List.map Option.get digests)
  else begin
    let classes : (Fingerprint.t * Graph.t list ref) list ref = ref [] in
    List.iter
      (fun g ->
        let fp = Fingerprint.of_graph g in
        let rec place = function
          | [] -> classes := !classes @ [ (fp, ref [ g ]) ]
          | (fp', members) :: rest ->
              if
                Fingerprint.equal fp fp'
                && (match !members with m :: _ -> Gmatch.Engine.similar ~opts ~backend g m | [] -> false)
              then members := g :: !members
              else place rest
        in
        place !classes)
      graphs;
    List.map (fun (_, members) -> List.rev !members) !classes
  end

(* Property intersection over the matching: the generalized graph is the
   first graph of the pair with every property that does not agree in
   the second graph removed. *)
let intersect_props g1 g2 (m : Gmatch.Matching.t) =
  let image pairs = Hashtbl.of_seq (List.to_seq pairs) in
  let node_image = image m.Gmatch.Matching.node_map and edge_image = image m.Gmatch.Matching.edge_map in
  Graph.map_props
    ~node:(fun n1 ->
      match Option.bind (Hashtbl.find_opt node_image n1.Graph.node_id) (Graph.find_node g2) with
      | Some n2 -> Props.intersect n1.Graph.node_props n2.Graph.node_props
      | None -> n1.Graph.node_props)
    ~edge:(fun e1 ->
      match Option.bind (Hashtbl.find_opt edge_image e1.Graph.edge_id) (Graph.find_edge g2) with
      | Some e2 -> Props.intersect e1.Graph.edge_props e2.Graph.edge_props
      | None -> e1.Graph.edge_props)
    g1

let generalize ?(opts = Gmatch.Match_opts.default) ~backend ~filter ~pair_choice graphs =
  match graphs with
  | [] -> Error No_trials
  | _ ->
      let kept = if filter then filter_incomplete graphs else graphs in
      let classes = similarity_classes ~opts ~backend kept in
      let eligible = List.filter (fun c -> List.length c >= 2) classes in
      let discarded = List.length graphs - List.length kept
                      + List.length (List.filter (fun c -> List.length c < 2) classes)
      in
      (match eligible with
      | [] -> Error No_consistent_pair
      | _ ->
          let size_of = function g :: _ -> Graph.size g | [] -> 0 in
          let better a b =
            match pair_choice with
            | Config.Smallest -> size_of a <= size_of b
            | Config.Largest -> size_of a >= size_of b
          in
          let chosen =
            List.fold_left (fun best c -> if better c best then c else best) (List.hd eligible)
              (List.tl eligible)
          in
          match chosen with
          | g1 :: g2 :: _ -> (
              match Gmatch.Engine.generalization_matching ~opts ~backend g1 g2 with
              | None -> Error (Alignment_failed "similar graphs failed to align")
              | Some m ->
                  Ok
                    {
                      general = intersect_props g1 g2 m;
                      class_size = List.length chosen;
                      classes = List.length classes;
                      discarded;
                    })
          | _ -> Error No_consistent_pair)
