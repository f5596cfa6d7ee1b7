open Pgraph

type position = { x : float; y : float }

type t = {
  positions : (string, position) Hashtbl.t;
  layers : (string, int) Hashtbl.t;
  width : float;
  height : float;
}

(* Break cycles: run a DFS in node-id order and drop back edges; the
   remaining DAG determines the ranking.  Only the ranking uses the
   reduced edge set — all edges are still drawn. *)
let acyclic_out_edges g =
  let state = Hashtbl.create 16 in
  (* 0 = unvisited, 1 = on stack, 2 = done *)
  let kept = Hashtbl.create 32 in
  let rec dfs id =
    Hashtbl.replace state id 1;
    List.iter
      (fun (e : Graph.edge) ->
        let tgt = e.Graph.edge_tgt in
        match Hashtbl.find_opt state tgt with
        | Some 1 -> ()  (* back edge: drop from ranking *)
        | Some _ -> Hashtbl.replace kept e.Graph.edge_id ()
        | None ->
            Hashtbl.replace kept e.Graph.edge_id ();
            dfs tgt)
      (Graph.out_edges g id);
    Hashtbl.replace state id 2
  in
  List.iter
    (fun (n : Graph.node) -> if not (Hashtbl.mem state n.Graph.node_id) then dfs n.Graph.node_id)
    (Graph.nodes g);
  fun id ->
    List.filter (fun (e : Graph.edge) -> Hashtbl.mem kept e.Graph.edge_id) (Graph.out_edges g id)

(* Longest-path ranking over the acyclic reduction. *)
let rank g =
  let out = acyclic_out_edges g in
  let memo = Hashtbl.create 16 in
  let rec depth id =
    match Hashtbl.find_opt memo id with
    | Some d -> d
    | None ->
        (* Pre-mark to guard against any residual cycle. *)
        Hashtbl.replace memo id 0;
        let d =
          List.fold_left
            (fun acc (e : Graph.edge) -> max acc (1 + depth e.Graph.edge_tgt))
            0 (out id)
        in
        Hashtbl.replace memo id d;
        d
  in
  let max_depth =
    List.fold_left (fun acc (n : Graph.node) -> max acc (depth n.Graph.node_id)) 0 (Graph.nodes g)
  in
  (* Flip so that sources (roots of the longest paths) sit on layer 0. *)
  let layers = Hashtbl.create 16 in
  List.iter
    (fun (n : Graph.node) ->
      Hashtbl.replace layers n.Graph.node_id (max_depth - depth n.Graph.node_id))
    (Graph.nodes g);
  (layers, max_depth)

let barycenter_passes = 4

let compute ?(h_gap = 160.) ?(v_gap = 90.) g =
  let layers, max_depth = rank g in
  (* Initial within-layer order: node id (deterministic). *)
  let layer_members = Array.make (max_depth + 1) [] in
  List.iter
    (fun (n : Graph.node) ->
      let l = Hashtbl.find layers n.Graph.node_id in
      layer_members.(l) <- n.Graph.node_id :: layer_members.(l))
    (Graph.nodes g);
  Array.iteri
    (fun i members -> layer_members.(i) <- List.sort String.compare members)
    layer_members;
  (* Barycenter ordering: alternate downward and upward sweeps, sorting
     each layer by the mean index of its neighbours in the fixed layer. *)
  let index_of = Hashtbl.create 16 in
  let refresh_indices l =
    List.iteri (fun i id -> Hashtbl.replace index_of id (float_of_int i)) layer_members.(l)
  in
  for l = 0 to max_depth do
    refresh_indices l
  done;
  let neighbours id ~upward =
    let edges = if upward then Graph.out_edges g id else Graph.in_edges g id in
    List.filter_map
      (fun (e : Graph.edge) ->
        let other = if upward then e.Graph.edge_tgt else e.Graph.edge_src in
        Hashtbl.find_opt index_of other)
      edges
  in
  let sort_layer l ~upward =
    let score id =
      match neighbours id ~upward with
      | [] -> Hashtbl.find index_of id
      | ns -> List.fold_left ( +. ) 0. ns /. float_of_int (List.length ns)
    in
    let scored = List.map (fun id -> (score id, id)) layer_members.(l) in
    layer_members.(l) <-
      List.map snd
        (List.sort
           (fun (a, ida) (b, idb) ->
             let c = Float.compare a b in
             if c <> 0 then c else String.compare ida idb)
           scored);
    refresh_indices l
  in
  for _ = 1 to barycenter_passes do
    for l = 1 to max_depth do
      sort_layer l ~upward:false
    done;
    for l = max_depth - 1 downto 0 do
      sort_layer l ~upward:true
    done
  done;
  (* Coordinates: centre every layer horizontally. *)
  let widest =
    Array.fold_left (fun acc members -> max acc (List.length members)) 1 layer_members
  in
  let width = (float_of_int widest +. 0.5) *. h_gap in
  let height = (float_of_int (max_depth + 1) +. 0.5) *. v_gap in
  let positions = Hashtbl.create 16 in
  Array.iteri
    (fun l members ->
      let k = List.length members in
      let x0 = (width -. (float_of_int (k - 1) *. h_gap)) /. 2. in
      List.iteri
        (fun i id ->
          Hashtbl.replace positions id
            { x = x0 +. (float_of_int i *. h_gap); y = (float_of_int l +. 0.75) *. v_gap })
        members)
    layer_members;
  let layer_tbl = Hashtbl.create 16 in
  Hashtbl.iter (fun id l -> Hashtbl.replace layer_tbl id l) layers;
  { positions; layers = layer_tbl; width; height }

let position t id =
  match Hashtbl.find_opt t.positions id with Some p -> p | None -> raise Not_found

let layer t id =
  match Hashtbl.find_opt t.layers id with Some l -> l | None -> raise Not_found

let extent t = (t.width, t.height)

let node_ids t =
  List.sort String.compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.positions [])
