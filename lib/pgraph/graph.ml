type node = {
  node_id : string;
  node_label : string;
  node_props : Props.t;
}

type edge = {
  edge_id : string;
  edge_src : string;
  edge_tgt : string;
  edge_label : string;
  edge_props : Props.t;
}

(* Identifiers are short: hashing them in a loop here costs less than the
   generic [Hashtbl.hash]. *)
module Ids = Hashtbl.Make (struct
  type t = string

  let equal = String.equal

  let hash s =
    let h = ref 0 in
    for i = 0 to String.length s - 1 do
      h := (!h * 31) + Char.code (String.unsafe_get s i)
    done;
    !h land max_int
end)

(* [tbl]'s entry for [id], or [max_int] when there is none. *)
let find tbl id = match Ids.find tbl id with k -> k | exception Not_found -> max_int

type t = {
  nodes : node array;
  edges : edge array;
  src : int array;
  tgt : int array;
  outs : int array array;
  ins : int array array;
  index : index;
}

(* Node and edge ids are disjoint, so one table holds both: node [i] as
   [i], edge [ei] as [lnot ei].  Built once, never written after. *)
and index = int Ids.t

let dummy_node = { node_id = ""; node_label = ""; node_props = Props.empty }
let dummy_edge = { edge_id = ""; edge_src = ""; edge_tgt = ""; edge_label = ""; edge_props = Props.empty }

(* [grow a len fill] is [a] with room for one more element past [len]. *)
let grow a len fill =
  if len < Array.length a then a
  else begin
    let a' = Array.make (max 8 (2 * len)) fill in
    Array.blit a 0 a' 0 len;
    a'
  end

module Builder = struct
  (* Elements in insertion order; [ids] maps node [k] to [k] and edge
     [k] to [lnot k] by insertion position, and [ends.(2k)] and
     [ends.(2k + 1)] are edge [k]'s endpoint positions.  [freeze] sorts
     both sides by id and rewrites [ids] in place into the graph's
     index. *)
  type graph = t

  type t = {
    ids : int Ids.t;
    mutable nodes : node array;
    mutable n : int;
    mutable edges : edge array;
    mutable ends : int array;
    mutable m : int;
    mutable frozen : bool;
  }

  let sized nodes edges =
    {
      ids = Ids.create (max 16 (nodes + edges));
      nodes = Array.make (max 1 nodes) dummy_node;
      n = 0;
      edges = Array.make (max 1 edges) dummy_edge;
      ends = Array.make (max 2 (2 * edges)) 0;
      m = 0;
      frozen = false;
    }

  let create () = sized 8 8

  let check_open b = if b.frozen then invalid_arg "Pgraph.Graph.Builder: already frozen"

  let node_pos b id = match find b.ids id with k when k >= 0 && k < max_int -> k | _ -> -1

  let mem_node b id = node_pos b id >= 0
  let mem_edge b id = find b.ids id < 0
  let find_node b id = match node_pos b id with -1 -> None | k -> Some b.nodes.(k)

  let add_node b ~id ~label ~props =
    check_open b;
    if Ids.mem b.ids id then
      invalid_arg (Printf.sprintf "Pgraph.Graph.add_node: duplicate identifier %s" id);
    Ids.add b.ids id b.n;
    b.nodes <- grow b.nodes b.n dummy_node;
    b.nodes.(b.n) <- { node_id = id; node_label = label; node_props = props };
    b.n <- b.n + 1

  let add_edge b ~id ~src ~tgt ~label ~props =
    check_open b;
    if Ids.mem b.ids id then
      invalid_arg (Printf.sprintf "Pgraph.Graph.add_edge: duplicate identifier %s" id);
    let s = node_pos b src in
    if s < 0 then invalid_arg (Printf.sprintf "Pgraph.Graph.add_edge: unknown source %s" src);
    let t = node_pos b tgt in
    if t < 0 then invalid_arg (Printf.sprintf "Pgraph.Graph.add_edge: unknown target %s" tgt);
    Ids.add b.ids id (lnot b.m);
    b.edges <- grow b.edges b.m dummy_edge;
    b.edges.(b.m) <- { edge_id = id; edge_src = src; edge_tgt = tgt; edge_label = label; edge_props = props };
    (* [ends] always has an even length, so room at [2m] is room at [2m + 1]. *)
    b.ends <- grow b.ends (2 * b.m) 0;
    b.ends.(2 * b.m) <- s;
    b.ends.((2 * b.m) + 1) <- t;
    b.m <- b.m + 1

  (* Insertion positions [0 .. len - 1] in ascending id order, or
     [None] when they are in that order already: producers that add in
     id order skip the sort and the renumbering. *)
  let id_order len id =
    let sorted = ref true in
    for k = 1 to len - 1 do
      if !sorted && String.compare (id (k - 1)) (id k) > 0 then sorted := false
    done;
    if !sorted then None
    else begin
      let order = Array.init len Fun.id in
      Array.stable_sort (fun a b -> String.compare (id a) (id b)) order;
      Some order
    end

  (* The first [len] elements of [a] in [order], and each insertion
     position's index among them. *)
  let permute order a len =
    match order with
    | None -> (Array.sub a 0 len, Fun.id)
    | Some order ->
        let rank = Array.make len 0 in
        Array.iteri (fun r k -> rank.(k) <- r) order;
        (Array.map (fun k -> a.(k)) order, fun k -> rank.(k))

  (* Per-node incident edge indices in ascending (edge-id) order: a
     counting pass sizes each node's array, a second fills it. *)
  let adjacency n ends =
    let deg = Array.make n 0 in
    Array.iter (fun i -> deg.(i) <- deg.(i) + 1) ends;
    let adj = Array.map (fun d -> Array.make d 0) deg in
    Array.fill deg 0 n 0;
    Array.iteri
      (fun ei i ->
        adj.(i).(deg.(i)) <- ei;
        deg.(i) <- deg.(i) + 1)
      ends;
    adj

  let freeze b : graph =
    check_open b;
    b.frozen <- true;
    let norder = id_order b.n (fun k -> b.nodes.(k).node_id) in
    let eorder = id_order b.m (fun k -> b.edges.(k).edge_id) in
    let nodes, nrank = permute norder b.nodes b.n and edges, erank = permute eorder b.edges b.m in
    let old ei = match eorder with None -> ei | Some order -> order.(ei) in
    let src = Array.init b.m (fun ei -> nrank b.ends.(2 * old ei)) in
    let tgt = Array.init b.m (fun ei -> nrank b.ends.((2 * old ei) + 1)) in
    if Option.is_some norder || Option.is_some eorder then
      Ids.filter_map_inplace (fun _ k -> Some (if k >= 0 then nrank k else lnot (erank (lnot k)))) b.ids;
    { nodes; edges; src; tgt; outs = adjacency b.n src; ins = adjacency b.n tgt; index = b.ids }
end

let empty = Builder.freeze (Builder.create ())

(* A builder holding [nodes], then [edges], with room for one more of
   each. *)
let builder_with nodes edges =
  let b = Builder.sized (List.length nodes + 1) (List.length edges + 1) in
  List.iter (fun n -> Builder.add_node b ~id:n.node_id ~label:n.node_label ~props:n.node_props) nodes;
  List.iter
    (fun e ->
      Builder.add_edge b ~id:e.edge_id ~src:e.edge_src ~tgt:e.edge_tgt ~label:e.edge_label
        ~props:e.edge_props)
    edges;
  b

let make ~nodes ~edges = Builder.freeze (builder_with nodes edges)

let add_node g ~id ~label ~props =
  let b = builder_with (Array.to_list g.nodes) (Array.to_list g.edges) in
  Builder.add_node b ~id ~label ~props;
  Builder.freeze b

let add_edge g ~id ~src ~tgt ~label ~props =
  let e = { edge_id = id; edge_src = src; edge_tgt = tgt; edge_label = label; edge_props = props } in
  make ~nodes:(Array.to_list g.nodes) ~edges:(Array.to_list g.edges @ [ e ])

let node_count g = Array.length g.nodes
let edge_count g = Array.length g.edges
let size g = node_count g + edge_count g

let index_of_node g id = match find g.index id with i when i >= 0 && i < max_int -> i | _ -> -1
let index_of_edge g id = match find g.index id with i when i < 0 -> lnot i | _ -> -1

let mem_node g id = index_of_node g id >= 0
let mem_edge g id = index_of_edge g id >= 0

let find_node g id = match index_of_node g id with -1 -> None | i -> Some g.nodes.(i)
let find_edge g id = match index_of_edge g id with -1 -> None | i -> Some g.edges.(i)

let nodes g = Array.to_list g.nodes
let edges g = Array.to_list g.edges

let node_ids g = Array.fold_right (fun n acc -> n.node_id :: acc) g.nodes []
let edge_ids g = Array.fold_right (fun e acc -> e.edge_id :: acc) g.edges []

let edges_at g eis = Array.fold_right (fun ei acc -> g.edges.(ei) :: acc) eis []

let out_edges g id = match index_of_node g id with -1 -> [] | i -> edges_at g g.outs.(i)
let in_edges g id = match index_of_node g id with -1 -> [] | i -> edges_at g g.ins.(i)

(* The two ascending index arrays merged from their largest ends; a
   self-loop is in both and listed once. *)
let incident_edges g id =
  match index_of_node g id with
  | -1 -> []
  | i ->
      let outs = g.outs.(i) and ins = g.ins.(i) in
      let rec merge a b acc =
        if a < 0 && b < 0 then acc
        else if b < 0 || (a >= 0 && outs.(a) > ins.(b)) then merge (a - 1) b (g.edges.(outs.(a)) :: acc)
        else if a < 0 || ins.(b) > outs.(a) then merge a (b - 1) (g.edges.(ins.(b)) :: acc)
        else merge (a - 1) (b - 1) (g.edges.(outs.(a)) :: acc)
      in
      merge (Array.length outs - 1) (Array.length ins - 1) []

(* Nodes first, then edges, each in id order. *)
let map_props ~node ~edge g =
  let nodes = Array.map (fun n -> { n with node_props = node n }) g.nodes in
  let edges = Array.map (fun e -> { e with edge_props = edge e }) g.edges in
  { g with nodes; edges }

let set_node_props g id props =
  match index_of_node g id with
  | -1 -> invalid_arg (Printf.sprintf "Pgraph.Graph.set_node_props: unknown node %s" id)
  | i ->
      let nodes = Array.copy g.nodes in
      nodes.(i) <- { nodes.(i) with node_props = props };
      { g with nodes }

let set_edge_props g id props =
  match index_of_edge g id with
  | -1 -> invalid_arg (Printf.sprintf "Pgraph.Graph.set_edge_props: unknown edge %s" id)
  | i ->
      let edges = Array.copy g.edges in
      edges.(i) <- { edges.(i) with edge_props = props };
      { g with edges }

let filter ~node ~edge g =
  let kept = Array.map node g.nodes in
  let nodes = List.filteri (fun i _ -> kept.(i)) (nodes g) in
  make ~nodes ~edges:(List.filteri (fun ei e -> kept.(g.src.(ei)) && kept.(g.tgt.(ei)) && edge e) (edges g))

let all _ = true

let remove_edge g id =
  if mem_edge g id then filter ~node:all ~edge:(fun e -> not (String.equal e.edge_id id)) g else g

let remove_node g id =
  if mem_node g id then filter ~node:(fun n -> not (String.equal n.node_id id)) ~edge:all g else g

let map_ids f g =
  let b = Builder.sized (node_count g) (edge_count g) in
  let fresh mem id what =
    if mem b id then invalid_arg ("Pgraph.Graph.map_ids: not injective on " ^ what);
    id
  in
  Array.iter
    (fun n ->
      Builder.add_node b ~id:(fresh Builder.mem_node (f n.node_id) "nodes") ~label:n.node_label
        ~props:n.node_props)
    g.nodes;
  Array.iter
    (fun e ->
      Builder.add_edge b ~id:(fresh Builder.mem_edge (f e.edge_id) "edges") ~src:(f e.edge_src)
        ~tgt:(f e.edge_tgt) ~label:e.edge_label ~props:e.edge_props)
    g.edges;
  Builder.freeze b

(* Both sides are id-sorted, so equal graphs agree position by
   position. *)
let same_elements same_node same_edge a b =
  node_count a = node_count b
  && edge_count a = edge_count b
  && Array.for_all2 (fun n m -> String.equal n.node_id m.node_id && same_node n m) a.nodes b.nodes
  && Array.for_all2
       (fun e f ->
         String.equal e.edge_id f.edge_id
         && String.equal e.edge_label f.edge_label
         && String.equal e.edge_src f.edge_src
         && String.equal e.edge_tgt f.edge_tgt
         && same_edge e f)
       a.edges b.edges

let equal_structure =
  same_elements (fun n m -> String.equal n.node_label m.node_label) (fun _ _ -> true)

let equal =
  same_elements
    (fun n m -> String.equal n.node_label m.node_label && Props.equal n.node_props m.node_props)
    (fun e f -> Props.equal e.edge_props f.edge_props)

let node_label_multiset g = List.sort String.compare (List.map (fun n -> n.node_label) (nodes g))
let edge_label_multiset g = List.sort String.compare (List.map (fun e -> e.edge_label) (edges g))

let dummy_label = "dummy"

let is_dummy n = String.equal n.node_label dummy_label

let subtract_matched g ~matched_nodes ~matched_edges =
  let flags count index ids =
    let a = Array.make count false in
    List.iter (fun id -> match index g id with -1 -> () | i -> a.(i) <- true) ids;
    a
  in
  let removed_nodes = flags (node_count g) index_of_node matched_nodes in
  let removed_edges = flags (edge_count g) index_of_edge matched_edges in
  (* A removed node survives as a dummy when a surviving edge still touches
     it: the benchmark result must stay a well-formed graph (Section 3.5). *)
  let needed = Array.make (node_count g) false in
  for ei = 0 to edge_count g - 1 do
    if not removed_edges.(ei) then begin
      needed.(g.src.(ei)) <- true;
      needed.(g.tgt.(ei)) <- true
    end
  done;
  let dummy i n =
    if removed_nodes.(i) then { n with node_label = dummy_label; node_props = Props.empty } else n
  in
  let nodes = List.filteri (fun i _ -> needed.(i) || not removed_nodes.(i)) (List.mapi dummy (nodes g)) in
  make ~nodes ~edges:(List.filteri (fun ei _ -> not removed_edges.(ei)) (edges g))

let pp ppf g =
  Format.fprintf ppf "@[<v>";
  Array.iter
    (fun n -> Format.fprintf ppf "node %s [%s] %a@," n.node_id n.node_label Props.pp n.node_props)
    g.nodes;
  Array.iter
    (fun e ->
      Format.fprintf ppf "edge %s: %s -> %s [%s] %a@," e.edge_id e.edge_src e.edge_tgt
        e.edge_label Props.pp e.edge_props)
    g.edges;
  Format.fprintf ppf "@]"

let summary g = Printf.sprintf "%d nodes, %d edges" (node_count g) (edge_count g)
