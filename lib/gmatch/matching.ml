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

let of_canon (f1 : Canon.form) (f2 : Canon.form) =
  if not (String.equal f1.Canon.digest f2.Canon.digest) then
    invalid_arg "Matching.of_canon: forms have different digests";
  let pairs a b = List.init (Array.length a) (fun i -> (a.(i), b.(i))) in
  {
    node_map = pairs f1.Canon.node_order f2.Canon.node_order;
    edge_map = pairs f1.Canon.edge_order f2.Canon.edge_order;
    cost = 0;
  }

module Stbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

(* [pairs] as a table from left to right ids, when no left and no
   right id repeats. *)
let injective_table pairs =
  let n = List.length pairs in
  let image = Stbl.create n and seen = Stbl.create n in
  (* A repeated id leaves its table's size unchanged: one hash per id. *)
  let fresh (x, y) =
    let k = Stbl.length image in
    Stbl.replace image x y;
    Stbl.replace seen y ();
    Stbl.length image > k && Stbl.length seen > k
  in
  if List.for_all fresh pairs then Some image else None

let is_injective m =
  Option.is_some (injective_table m.node_map) && Option.is_some (injective_table m.edge_map)

let verify_cost ~sub g1 g2 m =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  match (injective_table m.node_map, injective_table m.edge_map) with
  | None, _ | _, None -> err "matching is not injective"
  | Some image, Some _ ->
      if List.length m.node_map <> Graph.node_count g1 then err "not all left nodes are matched"
      else if List.length m.edge_map <> Graph.edge_count g1 then err "not all left edges are matched"
      else if
        (not sub)
        && not (List.length m.node_map = Graph.node_count g2 && List.length m.edge_map = Graph.edge_count g2)
      then err "matching is not surjective"
      else
        (* Node pairs in map order, then edge pairs; the node image is
           the injective table, so endpoint checks stay O(1). *)
        let rec node_pairs cost = function
          | [] -> edge_pairs cost m.edge_map
          | (x, y) :: rest -> (
              match (Graph.find_node g1 x, Graph.find_node g2 y) with
              | Some n1, Some n2 ->
                  if String.equal n1.Graph.node_label n2.Graph.node_label then
                    node_pairs (cost + Props.mismatch_cost n1.Graph.node_props n2.Graph.node_props) rest
                  else err "node %s -> %s changes label" x y
              | _ -> err "node pair %s -> %s refers to missing nodes" x y)
        and edge_pairs cost = function
          | [] -> Ok cost
          | (x, y) :: rest -> (
              match (Graph.find_edge g1 x, Graph.find_edge g2 y) with
              | Some e1, Some e2 ->
                  let maps_to a b =
                    match Stbl.find_opt image a with Some c -> String.equal b c | None -> false
                  in
                  if not (String.equal e1.Graph.edge_label e2.Graph.edge_label) then
                    err "edge %s -> %s changes label" x y
                  else if
                    not
                      (maps_to e1.Graph.edge_src e2.Graph.edge_src
                      && maps_to e1.Graph.edge_tgt e2.Graph.edge_tgt)
                  then err "edge %s -> %s does not preserve endpoints" x y
                  else
                    edge_pairs (cost + Props.mismatch_cost e1.Graph.edge_props e2.Graph.edge_props) rest
              | _ -> err "edge pair %s -> %s refers to missing edges" x y)
        in
        node_pairs 0 m.node_map

let verify ~sub g1 g2 m = Result.map ignore (verify_cost ~sub g1 g2 m)

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

let zero_cost g1 g2 m =
  List.for_all
    (fun (x, y) ->
      match (Graph.find_node g1 x, Graph.find_node g2 y) with
      | Some n1, Some n2 -> Props.mismatch_free n1.Graph.node_props n2.Graph.node_props
      | _ -> true)
    m.node_map
  && List.for_all
       (fun (x, y) ->
         match (Graph.find_edge g1 x, Graph.find_edge g2 y) with
         | Some e1, Some e2 -> Props.mismatch_free e1.Graph.edge_props e2.Graph.edge_props
         | _ -> true)
       m.edge_map

let pp ppf m =
  let pp_pair ppf (x, y) = Format.fprintf ppf "%s->%s" x y in
  let pp_list = Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_pair in
  Format.fprintf ppf "@[<v>nodes: %a@,edges: %a@,cost: %d@]" pp_list m.node_map pp_list
    m.edge_map m.cost
