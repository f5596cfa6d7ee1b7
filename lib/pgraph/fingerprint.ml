type t = int64

(* FNV-1a over bytes, widened to 64 bits; deterministic across runs. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* A [for] loop keeps the accumulator unboxed: no closure, no boxed
   intermediate per byte. *)
let hash_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)))) fnv_prime
  done;
  !h

(* FNV-1a over the 8 little-endian bytes of [x], without materializing
   them: byte [i] is bits [8i .. 8i+7].  The values are pinned.
   Straight-line, so calls in this module inline it and keep the
   accumulator unboxed. *)
let[@inline] fnv_byte h x shift =
  Int64.mul (Int64.logxor h (Int64.logand (Int64.shift_right_logical x shift) 0xffL)) fnv_prime

let[@inline] hash_int64 h x =
  let h = fnv_byte h x 0 in
  let h = fnv_byte h x 8 in
  let h = fnv_byte h x 16 in
  let h = fnv_byte h x 24 in
  let h = fnv_byte h x 32 in
  let h = fnv_byte h x 40 in
  let h = fnv_byte h x 48 in
  fnv_byte h x 56

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

module Stbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type view = {
  nodes : Graph.node array;
  edges : Graph.edge array;
  outs : (int64 * int) list array;
  ins : (int64 * int) list array;
  esrc : int array;
  etgt : int array;
  labels : string array;
  elabel : int array;
  index : index;
}

and index = int Stbl.t

let node_index view id =
  match Stbl.find_opt view.index id with Some i when i >= 0 -> Some i | _ -> None

let edge_index view id =
  match Stbl.find_opt view.index id with Some i when i < 0 -> Some (lnot i) | _ -> None

let view_of g =
  let nodes = Array.of_list (Graph.nodes g) in
  let edges = Array.of_list (Graph.edges g) in
  (* Node and edge ids are disjoint in a graph, so one table holds both:
     node [i] as [i], edge [ei] as [lnot ei]. *)
  let index = Stbl.create (Array.length nodes + Array.length edges) in
  Array.iteri (fun i (n : Graph.node) -> Stbl.replace index n.Graph.node_id i) nodes;
  Array.iteri (fun ei (e : Graph.edge) -> Stbl.replace index e.Graph.edge_id (lnot ei)) edges;
  let node_idx id = Stbl.find index id in
  let ids = Stbl.create 8 and named = ref [] in
  let elabel =
    Array.map
      (fun (e : Graph.edge) ->
        match Stbl.find_opt ids e.Graph.edge_label with
        | Some l -> l
        | None ->
            let l = Stbl.length ids in
            Stbl.add ids e.Graph.edge_label l;
            named := e.Graph.edge_label :: !named;
            l)
      edges
  in
  let labels = Array.of_list (List.rev !named) in
  let in_seed = hash_string fnv_offset "in" in
  let out_hash = Array.map (hash_string fnv_offset) labels
  and in_hash = Array.map (hash_string in_seed) labels in
  let outs = Array.make (Array.length nodes) [] in
  let ins = Array.make (Array.length nodes) [] in
  let esrc = Array.make (Array.length edges) 0 in
  let etgt = Array.make (Array.length edges) 0 in
  Array.iteri
    (fun ei (e : Graph.edge) ->
      let s = node_idx e.Graph.edge_src and t = node_idx e.Graph.edge_tgt in
      esrc.(ei) <- s;
      etgt.(ei) <- t;
      outs.(s) <- (out_hash.(elabel.(ei)), t) :: outs.(s);
      ins.(t) <- (in_hash.(elabel.(ei)), s) :: ins.(t))
    edges;
  { nodes; edges; outs; ins; esrc; etgt; labels; elabel; index }

(* Round 0 colours a node by its label alone; each further round folds in
   the sorted multisets of (edge label, neighbour colour) pairs over
   outgoing and incoming edges — standard Weisfeiler–Leman refinement. *)
let label_colours view =
  Array.map (fun (n : Graph.node) -> hash_string fnv_offset n.Graph.node_label) view.nodes

(* Unboxed int64 scratch space: a refinement round sorts each node's
   neighbour hashes here instead of in freshly allocated lists.  Plain
   bytes on the OCaml heap, read and written 8 at a time. *)
type scratch = Bytes.t

let scratch n : scratch = Bytes.create (8 * max 1 n)
let[@inline] get (b : scratch) i = Bytes.get_int64_ne b (8 * i)
let[@inline] set (b : scratch) i x = Bytes.set_int64_ne b (8 * i) x

(* In-place heapsort of the first [n] slots of [b], ascending as
   [Int64.compare] orders. *)
let rec sift_down b root n =
  let child = (2 * root) + 1 in
  if child < n then begin
    let child = if child + 1 < n && Int64.compare (get b (child + 1)) (get b child) > 0 then child + 1 else child in
    let top = get b root in
    if Int64.compare (get b child) top > 0 then begin
      set b root (get b child);
      set b child top;
      sift_down b child n
    end
  end

let heapsort b n =
  for root = (n / 2) - 1 downto 0 do
    sift_down b root n
  done;
  for last = n - 1 downto 1 do
    let top = get b 0 in
    set b 0 (get b last);
    set b last top;
    sift_down b 0 last
  done

(* Insertion sort for the short runs most nodes have, heapsort past
   them so a hub's neighbourhood stays O(d log d). *)
let sort_prefix b n =
  if n <= 16 then
    for i = 1 to n - 1 do
      let x = get b i in
      let j = ref (i - 1) in
      while !j >= 0 && Int64.compare (get b !j) x > 0 do
        set b (!j + 1) (get b !j);
        decr j
      done;
      set b (!j + 1) x
    done
  else heapsort b n

let rec fill_side b colours k = function
  | [] -> k
  | (lab, j) :: rest ->
      set b k (hash_int64 lab colours.(j));
      fill_side b colours (k + 1) rest

(* [combine_sorted] of one side's (edge label, neighbour colour)
   hashes. *)
let fold_side b colours side =
  let n = fill_side b colours 0 side in
  sort_prefix b n;
  let h = ref fnv_offset in
  for k = 0 to n - 1 do
    h := hash_int64 !h (get b k)
  done;
  !h

(* Scratch space for the rounds over [view]: room for any node's
   neighbourhood. *)
let view_scratch view = scratch (Array.length view.edges)

let refine_once b view colours =
  Array.mapi
    (fun i c ->
      let h = hash_int64 c (fold_side b colours view.outs.(i)) in
      hash_int64 h (fold_side b colours view.ins.(i)))
    colours

let refine view rounds colours =
  let b = view_scratch view in
  let rec go rounds colours = if rounds <= 0 then colours else go (rounds - 1) (refine_once b view colours) in
  go rounds colours

let colours_at view rounds = refine view rounds (label_colours view)

(* Distinct colours of a colouring, counted in an open-addressing set:
   [slots] holds the values, [used] flags the occupied slots; both are
   a power of two at least twice the node count. *)
let distinct slots used colours =
  let mask = Bytes.length used - 1 in
  Bytes.fill used 0 (Bytes.length used) '\000';
  let k = ref 0 in
  Array.iter
    (fun c ->
      let i = ref (Int64.to_int (Int64.logxor c (Int64.shift_right_logical c 29)) land mask) in
      while Bytes.get used !i = '\001' && not (Int64.equal (get slots !i) c) do
        i := (!i + 1) land mask
      done;
      if Bytes.get used !i = '\000' then begin
        Bytes.set used !i '\001';
        set slots !i c;
        incr k
      end)
    colours;
  !k

(* Refines until one more round no longer splits a colour class.  Exact
   WL partitions are monotone, so the class count strictly grows until
   the fixpoint; the node-count cap guards against a pathological hash
   collision shrinking it.  Returns the splitting rounds applied, the
   colours after them, and the colours one round further (the same
   partition, different hash values). *)
let settle view colours =
  let cap = Array.length view.nodes in
  let b = view_scratch view in
  let size = ref 2 in
  while !size < 2 * cap do
    size := 2 * !size
  done;
  let slots = scratch !size and used = Bytes.create !size in
  let rec loop r colours k =
    let next = refine_once b view colours in
    if r >= cap then (r, colours, next)
    else
      let k' = distinct slots used next in
      if k' <= k then (r, colours, next) else loop (r + 1) next k'
  in
  loop 0 colours (distinct slots used colours)

type settled = { view : view; rounds : int; colours : int64 array; next : int64 array }

let settled g =
  let view = view_of g in
  let rounds, colours, next = settle view (label_colours view) in
  { view; rounds; colours; next }

let stable_rounds g = (settled g).rounds

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
