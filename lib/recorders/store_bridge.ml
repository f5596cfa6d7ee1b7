open Pgraph
module Store = Graphstore.Store
module Query = Graphstore.Query

let to_store (g : Graph.t) =
  let store = Store.create () in
  let ids =
    Array.map
      (fun (n : Graph.node) ->
        Store.create_node store ~labels:[ n.Graph.node_label ] ~props:(Props.to_list n.Graph.node_props))
      g.Graph.nodes
  in
  Array.iteri
    (fun ei (e : Graph.edge) ->
      ignore
        (Store.create_rel store ~src:ids.(g.Graph.src.(ei)) ~tgt:ids.(g.Graph.tgt.(ei))
           ~rel_type:e.Graph.edge_label ~props:(Props.to_list e.Graph.edge_props)))
    g.Graph.edges;
  store

let of_store store =
  let nodes, rels = Query.export_all store in
  let b = Graph.Builder.create () in
  List.iter
    (fun (n : Store.node_record) ->
      let label = match n.Store.n_labels with l :: _ -> l | [] -> "Node" in
      Graph.Builder.add_node b
        ~id:(Printf.sprintf "n%d" n.Store.n_id)
        ~label ~props:(Props.of_list n.Store.n_props))
    nodes;
  List.iter
    (fun (r : Store.rel_record) ->
      Graph.Builder.add_edge b
        ~id:(Printf.sprintf "r%d" r.Store.r_id)
        ~src:(Printf.sprintf "n%d" r.Store.r_src)
        ~tgt:(Printf.sprintf "n%d" r.Store.r_tgt)
        ~label:r.Store.r_type ~props:(Props.of_list r.Store.r_props))
    rels;
  Graph.Builder.freeze b
