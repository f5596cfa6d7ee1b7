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

(* Round 0 colours a node by its label alone; each further round folds in
   the sorted multisets of (edge label, neighbour colour) pairs over
   outgoing and incoming edges — standard Weisfeiler–Leman refinement. *)
let label_colours (g : Graph.t) =
  Array.map (fun (n : Graph.node) -> hash_string fnv_offset n.Graph.node_label) g.Graph.nodes

(* Each edge's label hash as its source sees it ([out_h]) and as its
   target does ([in_h]), 8 bytes per edge. *)
type edge_hashes = { out_h : scratch; in_h : scratch }

let edge_hashes (g : Graph.t) =
  let in_seed = hash_string fnv_offset "in" in
  let out_h = scratch (Array.length g.Graph.edges) and in_h = scratch (Array.length g.Graph.edges) in
  Array.iteri
    (fun ei (e : Graph.edge) ->
      set out_h ei (hash_string fnv_offset e.Graph.edge_label);
      set in_h ei (hash_string in_seed e.Graph.edge_label))
    g.Graph.edges;
  { out_h; in_h }

(* [combine_sorted] of one side's (edge label, neighbour colour)
   hashes: edges [eis], label hashes [lab], neighbours [ends]. *)
let fold_side b colours eis lab ends =
  let n = Array.length eis in
  for k = 0 to n - 1 do
    let ei = eis.(k) in
    set b k (hash_int64 (get lab ei) colours.(ends.(ei)))
  done;
  sort_prefix b n;
  let h = ref fnv_offset in
  for k = 0 to n - 1 do
    h := hash_int64 !h (get b k)
  done;
  !h

(* Scratch space for the rounds over [g]: room for any node's
   neighbourhood. *)
let graph_scratch (g : Graph.t) = scratch (Array.length g.Graph.edges)

let refine_once b (g : Graph.t) hs colours =
  Array.mapi
    (fun i c ->
      let h = hash_int64 c (fold_side b colours g.Graph.outs.(i) hs.out_h g.Graph.tgt) in
      hash_int64 h (fold_side b colours g.Graph.ins.(i) hs.in_h g.Graph.src))
    colours

let refine_with g hs rounds colours =
  let b = graph_scratch g in
  let rec go rounds colours = if rounds <= 0 then colours else go (rounds - 1) (refine_once b g hs colours) in
  go rounds colours

let colours_at g rounds = refine_with g (edge_hashes g) rounds (label_colours g)

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
let settle_with g hs colours =
  let cap = Array.length g.Graph.nodes in
  let b = graph_scratch g in
  let size = ref 2 in
  while !size < 2 * cap do
    size := 2 * !size
  done;
  let slots = scratch !size and used = Bytes.create !size in
  let rec loop r colours k =
    let next = refine_once b g hs colours in
    if r >= cap then (r, colours, next)
    else
      let k' = distinct slots used next in
      if k' <= k then (r, colours, next) else loop (r + 1) next k'
  in
  loop 0 colours (distinct slots used colours)

type settled = {
  graph : Graph.t;
  hashes : edge_hashes;
  rounds : int;
  colours : int64 array;
  next : int64 array;
}

let settled g =
  let hashes = edge_hashes g in
  let rounds, colours, next = settle_with g hashes (label_colours g) in
  { graph = g; hashes; rounds; colours; next }

let refine s rounds colours = refine_with s.graph s.hashes rounds colours
let settle s colours = settle_with s.graph s.hashes colours

let stable_rounds g = (settled g).rounds

let node_colours ?(rounds = 0) (g : Graph.t) =
  let colours = colours_at g rounds in
  Array.to_list (Array.mapi (fun i (n : Graph.node) -> (n.Graph.node_id, colours.(i))) g.Graph.nodes)

let edge_colours ?(rounds = 0) (g : Graph.t) =
  let colours = colours_at g rounds in
  Array.to_list
    (Array.mapi
       (fun ei (e : Graph.edge) ->
         let c = hash_string fnv_offset e.Graph.edge_label in
         let c = hash_int64 c colours.(g.Graph.src.(ei)) in
         (e.Graph.edge_id, hash_int64 c colours.(g.Graph.tgt.(ei))))
       g.Graph.edges)

let of_graph (g : Graph.t) =
  let node_part = combine_sorted (Array.to_list (colours_at g default_rounds)) in
  let edge_part =
    combine_sorted
      (Array.fold_right
         (fun (e : Graph.edge) acc -> hash_string fnv_offset e.Graph.edge_label :: acc)
         g.Graph.edges [])
  in
  hash_int64 (hash_int64 (hash_int64 fnv_offset node_part) edge_part)
    (Int64.of_int (Graph.size g))

let equal = Int64.equal
let compare = Int64.compare
let to_hex = hex
let pp ppf t = Format.pp_print_string ppf (to_hex t)
