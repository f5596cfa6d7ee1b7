type t = {
  nodes : int;
  edges : int;
  dummy_nodes : int;
  node_labels : (string * int) list;
  edge_labels : (string * int) list;
  properties : int;
  connected_components : int;
}

let histogram labels =
  let module Smap = Map.Make (String) in
  let m =
    List.fold_left
      (fun m l -> Smap.update l (function None -> Some 1 | Some n -> Some (n + 1)) m)
      Smap.empty labels
  in
  Smap.bindings m

(* Union-find over node indices. *)
let component_roots (g : Graph.t) =
  let parent = Array.init (Graph.node_count g) Fun.id in
  let rec find i =
    if parent.(i) = i then i
    else begin
      let r = find parent.(i) in
      parent.(i) <- r;
      r
    end
  in
  Array.iteri (fun ei s -> parent.(find s) <- find g.Graph.tgt.(ei)) g.Graph.src;
  Array.init (Array.length parent) find

let components g =
  let roots = component_roots g in
  Array.fold_left ( + ) 0 (Array.mapi (fun i r -> Bool.to_int (r = i)) roots)

let of_graph g =
  let ns = Graph.nodes g and es = Graph.edges g in
  let properties =
    List.fold_left (fun acc (n : Graph.node) -> acc + Props.cardinal n.Graph.node_props) 0 ns
    + List.fold_left (fun acc (e : Graph.edge) -> acc + Props.cardinal e.Graph.edge_props) 0 es
  in
  {
    nodes = List.length ns;
    edges = List.length es;
    dummy_nodes = List.length (List.filter Graph.is_dummy ns);
    node_labels = histogram (Graph.node_label_multiset g);
    edge_labels = histogram (Graph.edge_label_multiset g);
    properties;
    connected_components = components g;
  }

let shape_line s =
  if s.connected_components <= 1 then Printf.sprintf "%dn/%de" s.nodes s.edges
  else Printf.sprintf "%dn/%de (%d components)" s.nodes s.edges s.connected_components

let pp ppf s =
  let pp_hist ppf h =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
      (fun ppf (l, n) -> Format.fprintf ppf "%s:%d" l n)
      ppf h
  in
  Format.fprintf ppf "@[<v>%s@,node labels: %a@,edge labels: %a@,properties: %d@]"
    (shape_line s) pp_hist s.node_labels pp_hist s.edge_labels s.properties
