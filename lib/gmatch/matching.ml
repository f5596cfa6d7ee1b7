open Pgraph

type t = {
  node_map : (string * string) list;
  edge_map : (string * string) list;
  cost : int;
}

let empty = { node_map = []; edge_map = []; cost = 0 }

let find_node m id = List.assoc_opt id m.node_map
let find_edge m id = List.assoc_opt id m.edge_map

let of_pairs g1 pairs cost =
  let node_map, edge_map =
    List.partition (fun (x, _) -> Graph.mem_node g1 x) pairs
  in
  { node_map; edge_map; cost }

let injective pairs =
  let module Sset = Set.Make (String) in
  let rec go dom rng = function
    | [] -> true
    | (x, y) :: rest ->
        (not (Sset.mem x dom)) && (not (Sset.mem y rng))
        && go (Sset.add x dom) (Sset.add y rng) rest
  in
  go Sset.empty Sset.empty pairs

let is_injective m = injective m.node_map && injective m.edge_map

let verify ~sub g1 g2 m =
  let ( let* ) r f = Result.bind r f in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let* () = if is_injective m then Ok () else err "matching is not injective" in
  let* () =
    if List.length m.node_map = Graph.node_count g1 then Ok ()
    else err "not all left nodes are matched"
  in
  let* () =
    if List.length m.edge_map = Graph.edge_count g1 then Ok ()
    else err "not all left edges are matched"
  in
  let* () =
    if sub then Ok ()
    else if
      List.length m.node_map = Graph.node_count g2
      && List.length m.edge_map = Graph.edge_count g2
    then Ok ()
    else err "matching is not surjective"
  in
  (* The node image, tabled once: the maps are injective by now, so the
     table agrees with [find_node] and endpoint checks stay O(1). *)
  let image = Hashtbl.create (List.length m.node_map) in
  List.iter (fun (x, y) -> Hashtbl.replace image x y) m.node_map;
  let check_node (x, y) =
    match (Graph.find_node g1 x, Graph.find_node g2 y) with
    | Some n1, Some n2 ->
        if String.equal n1.Graph.node_label n2.Graph.node_label then Ok ()
        else err "node %s -> %s changes label" x y
    | _ -> err "node pair %s -> %s refers to missing nodes" x y
  in
  let check_edge (x, y) =
    match (Graph.find_edge g1 x, Graph.find_edge g2 y) with
    | Some e1, Some e2 ->
        if not (String.equal e1.Graph.edge_label e2.Graph.edge_label) then
          err "edge %s -> %s changes label" x y
        else if
          not
            (Hashtbl.find_opt image e1.Graph.edge_src = Some e2.Graph.edge_src
            && Hashtbl.find_opt image e1.Graph.edge_tgt = Some e2.Graph.edge_tgt)
        then err "edge %s -> %s does not preserve endpoints" x y
        else Ok ()
    | _ -> err "edge pair %s -> %s refers to missing edges" x y
  in
  let rec all f = function
    | [] -> Ok ()
    | x :: rest ->
        let* () = f x in
        all f rest
  in
  let* () = all check_node m.node_map in
  all check_edge m.edge_map

let cost_of g1 g2 m =
  let node_cost =
    List.fold_left
      (fun acc (x, y) ->
        match (Graph.find_node g1 x, Graph.find_node g2 y) with
        | Some n1, Some n2 -> acc + Props.mismatch_cost n1.Graph.node_props n2.Graph.node_props
        | _ -> acc)
      0 m.node_map
  in
  let edge_cost =
    List.fold_left
      (fun acc (x, y) ->
        match (Graph.find_edge g1 x, Graph.find_edge g2 y) with
        | Some e1, Some e2 -> acc + Props.mismatch_cost e1.Graph.edge_props e2.Graph.edge_props
        | _ -> acc)
      0 m.edge_map
  in
  node_cost + edge_cost

let pp ppf m =
  let pp_pair ppf (x, y) = Format.fprintf ppf "%s->%s" x y in
  let pp_list = Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_pair in
  Format.fprintf ppf "@[<v>nodes: %a@,edges: %a@,cost: %d@]" pp_list m.node_map pp_list
    m.edge_map m.cost
