type t = int64

(* FNV-1a over bytes, widened to 64 bits; deterministic across runs. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let hash_string h s =
  let h = ref h in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h fnv_prime)
    s;
  !h

(* FNV-1a over the 8 little-endian bytes of [x], without materializing
   them: byte [i] is bits [8i .. 8i+7].  The values are pinned. *)
let hash_int64 h x =
  let h = ref h in
  for i = 0 to 7 do
    let byte = Int64.logand (Int64.shift_right_logical x (8 * i)) 0xffL in
    h := Int64.mul (Int64.logxor !h byte) fnv_prime
  done;
  !h

let combine_sorted hashes =
  (* Order-independent inputs are sorted first so the result is invariant
     under renaming of identifiers. *)
  List.fold_left hash_int64 fnv_offset (List.sort Int64.compare hashes)

(* [Printf.sprintf "%016Lx"] without the format interpreter: quotient
   labels and component signatures render one per colour. *)
let hex h =
  String.init 16 (fun i ->
      let nibble = Int64.logand (Int64.shift_right_logical h (4 * (15 - i))) 0xfL in
      "0123456789abcdef".[Int64.to_int nibble])

module Hash = struct
  type h = int64

  let seed = fnv_offset
  let string = hash_string
  let int64 = hash_int64
  let hex = hex
end

(* The one refinement-depth knob for bounded consumers: of_graph and
   the exact-similarity candidate pruning in Gmatch.Asp_backend refine
   this deep; Canon continues the same refinement to a fixpoint. *)
let default_rounds = 3

(* ------------------------------------------------------------------ *)
(* Graph view: arrays indexed by position in the id-sorted node/edge
   lists, with per-node adjacency, so a refinement round touches each
   edge twice instead of scanning the edge list once per node.         *)

type view = {
  nodes : Graph.node array;
  edges : Graph.edge array;
  outs : (int64 * int) list array;
  ins : (int64 * int) list array;
  esrc : int array;
  etgt : int array;
}

let view_of g =
  let nodes = Array.of_list (Graph.nodes g) in
  let edges = Array.of_list (Graph.edges g) in
  let idx = Hashtbl.create (Array.length nodes) in
  Array.iteri (fun i (n : Graph.node) -> Hashtbl.replace idx n.Graph.node_id i) nodes;
  let node_idx id = Hashtbl.find idx id in
  let outs = Array.make (Array.length nodes) [] in
  let ins = Array.make (Array.length nodes) [] in
  let esrc = Array.make (Array.length edges) 0 in
  let etgt = Array.make (Array.length edges) 0 in
  let in_seed = hash_string fnv_offset "in" in
  Array.iteri
    (fun ei (e : Graph.edge) ->
      let s = node_idx e.Graph.edge_src and t = node_idx e.Graph.edge_tgt in
      esrc.(ei) <- s;
      etgt.(ei) <- t;
      outs.(s) <- (hash_string fnv_offset e.Graph.edge_label, t) :: outs.(s);
      ins.(t) <- (hash_string in_seed e.Graph.edge_label, s) :: ins.(t))
    edges;
  { nodes; edges; outs; ins; esrc; etgt }

(* Round 0 colours a node by its label alone; each further round folds in
   the sorted multisets of (edge label, neighbour colour) pairs over
   outgoing and incoming edges — standard Weisfeiler–Leman refinement. *)
let label_colours view =
  Array.map (fun (n : Graph.node) -> hash_string fnv_offset n.Graph.node_label) view.nodes

let refine_once view colours =
  Array.mapi
    (fun i c ->
      let fold side = combine_sorted (List.map (fun (lab, j) -> hash_int64 lab colours.(j)) side) in
      hash_int64 (hash_int64 c (fold view.outs.(i))) (fold view.ins.(i)))
    colours

let rec refine view rounds colours =
  if rounds <= 0 then colours else refine view (rounds - 1) (refine_once view colours)

let colours_at view rounds = refine view rounds (label_colours view)

let distinct colours =
  let sorted = Array.copy colours in
  Array.sort Int64.compare sorted;
  let k = ref 0 in
  Array.iteri (fun i c -> if i = 0 || not (Int64.equal c sorted.(i - 1)) then incr k) sorted;
  !k

(* Refines until one more round no longer splits a colour class.  Exact
   WL partitions are monotone, so the class count strictly grows until
   the fixpoint; the node-count cap guards against a pathological hash
   collision shrinking it.  Returns the splitting rounds applied, the
   colours after them, and the colours one round further (the same
   partition, different hash values). *)
let settle view colours =
  let cap = Array.length view.nodes in
  let rec loop r colours k =
    let next = refine_once view colours in
    if r >= cap then (r, colours, next)
    else
      let k' = distinct next in
      if k' <= k then (r, colours, next) else loop (r + 1) next k'
  in
  loop 0 colours (distinct colours)

let stable_rounds g =
  let view = view_of g in
  let r, _, _ = settle view (label_colours view) in
  r

let node_colours ?(rounds = 0) g =
  let view = view_of g in
  let colours = colours_at view rounds in
  Array.to_list (Array.mapi (fun i (n : Graph.node) -> (n.Graph.node_id, colours.(i))) view.nodes)

let edge_colours ?(rounds = 0) g =
  let view = view_of g in
  let colours = colours_at view rounds in
  Array.to_list
    (Array.mapi
       (fun ei (e : Graph.edge) ->
         let c = hash_string fnv_offset e.Graph.edge_label in
         let c = hash_int64 c colours.(view.esrc.(ei)) in
         (e.Graph.edge_id, hash_int64 c colours.(view.etgt.(ei))))
       view.edges)

let of_graph g =
  let view = view_of g in
  let node_part = combine_sorted (Array.to_list (colours_at view default_rounds)) in
  let edge_part =
    combine_sorted
      (List.map
         (fun (e : Graph.edge) -> hash_string fnv_offset e.Graph.edge_label)
         (Array.to_list view.edges))
  in
  hash_int64 (hash_int64 (hash_int64 fnv_offset node_part) edge_part)
    (Int64.of_int (Graph.size g))

let equal = Int64.equal
let compare = Int64.compare
let to_hex = hex
let pp ppf t = Format.pp_print_string ppf (to_hex t)
