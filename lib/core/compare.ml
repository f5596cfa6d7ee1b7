type failure = Background_not_embeddable

let failure_to_string = function
  | Background_not_embeddable ->
      "background graph does not embed into the foreground graph"

type outcome = {
  target : Pgraph.Graph.t;
  matching_cost : int;
}

let compare_with opts ~backend ~bg ~fg =
  match Gmatch.Engine.subgraph_matching ~opts ~backend bg fg with
  | None -> Error Background_not_embeddable
  | Some m ->
      let matched_nodes = List.map snd m.Gmatch.Matching.node_map in
      let matched_edges = List.map snd m.Gmatch.Matching.edge_map in
      Ok
        {
          target = Pgraph.Graph.subtract_matched fg ~matched_nodes ~matched_edges;
          matching_cost = m.Gmatch.Matching.cost;
        }

let compare ~backend ~bg ~fg = compare_with Gmatch.Match_opts.default ~backend ~bg ~fg
