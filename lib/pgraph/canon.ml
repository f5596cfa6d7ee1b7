(* Exact canonical forms for property graphs.

   Colour refinement (continuing the Weisfeiler-Leman colours of
   {!Fingerprint} to a fixpoint) partitions the nodes into
   isomorphism-invariant classes; when the partition is not discrete,
   individualization-refinement branches on the members of one
   non-singleton cell and the minimum certificate over all leaves is
   the canonical labelling.  The certificate is a complete structural
   rendering (labels and incidences under the canonical order, never
   the hash colours themselves), so equal digests imply a genuine
   label-isomorphism even if the refinement hashes collide — a
   collision can only make the search explore a coarser tree, not
   declare non-isomorphic graphs equal.

   Properties are deliberately excluded: similarity (Section 3.4) is
   shape-only, and the solver-bypass built on top re-checks property
   mismatch costs explicitly before trusting a canonical witness. *)

module H = Fingerprint.Hash

type form = {
  digest : string;
  node_order : string array;  (* original node ids, canonical positions *)
  edge_order : string array;  (* original edge ids, canonical positions *)
}

(* The individualization-refinement tree has one leaf per refinement of
   the partition to a discrete one; symmetric graphs can have
   factorially many.  The budget bounds the leaves explored, and the
   *decision* to give up is isomorphism-invariant: the tree's shape
   (hence its total leaf count) is a function of the graph's structure
   only, so two isomorphic graphs either both finish or both abort. *)
let leaf_budget = 256

exception Budget

(* ------------------------------------------------------------------ *)
(* Refinement                                                          *)

(* Fingerprint's refinement continued to the partition fixpoint.  Each
   productive round strictly grows the number of colour classes (hash
   refinement never merges classes, barring collisions), so the
   fixpoint is reached in at most [n] rounds.  The colours one round
   past the last split are the ones branched and ordered on. *)
let refine_fix s colours =
  let _, _, next = Fingerprint.settle s colours in
  next

let indiv_mark = H.string H.seed "individualized"

(* The cell to branch on: among non-singleton colour classes, the one
   with the fewest members, ties broken by colour value — a pure
   function of the (isomorphism-invariant) colouring.  Members are
   listed in ascending index order. *)
let non_singleton_cell colours =
  let n = Array.length colours in
  let by_colour = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Int64.compare colours.(a) colours.(b)) by_colour;
  (* [best] is the (start, size) of the smallest cell seen so far; a
     later cell of equal size has a larger colour and loses. *)
  let best = ref None in
  let start = ref 0 in
  while !start < n do
    let c = colours.(by_colour.(!start)) in
    let stop = ref (!start + 1) in
    while !stop < n && Int64.equal colours.(by_colour.(!stop)) c do
      incr stop
    done;
    let size = !stop - !start in
    (match !best with
    | Some (_, bsize) when bsize <= size -> ()
    | _ -> if size >= 2 then best := Some (!start, size));
    start := !stop
  done;
  Option.map (fun (start, size) -> List.init size (fun k -> by_colour.(start + k))) !best

(* ------------------------------------------------------------------ *)
(* Certificates                                                        *)

(* Canonical node order of a discrete colouring: positions sorted by
   colour.  The certificate renders the complete structure under that
   order (length-prefixed tokens, so no label can alias a separator):
   [g<nodes>,<edges>|], one [<len>:<label>;] per node, [|], then per
   edge in (source, target, label, index) order [<s>><t>,<len>:<label>;]. *)
let certificate (g : Graph.t) colours =
  let n = Array.length colours in
  let order = Array.init n (fun i -> i) in
  Array.stable_sort (fun a b -> Int64.compare colours.(a) colours.(b)) order;
  let pos = Array.make n 0 in
  Array.iteri (fun p i -> pos.(i) <- p) order;
  let edges = g.Graph.edges in
  let buf = Buffer.create 256 in
  let int i = Buffer.add_string buf (string_of_int i) in
  let token s =
    int (String.length s);
    Buffer.add_char buf ':';
    Buffer.add_string buf s;
    Buffer.add_char buf ';'
  in
  Buffer.add_char buf 'g';
  int n;
  Buffer.add_char buf ',';
  int (Array.length edges);
  Buffer.add_char buf '|';
  Array.iter (fun i -> token g.Graph.nodes.(i).Graph.node_label) order;
  Buffer.add_char buf '|';
  let src ei = pos.(g.Graph.src.(ei)) and tgt ei = pos.(g.Graph.tgt.(ei)) in
  let eorder = Array.init (Array.length edges) Fun.id in
  Array.stable_sort
    (fun a b ->
      match Int.compare (src a) (src b) with
      | 0 -> (
          match Int.compare (tgt a) (tgt b) with
          | 0 -> String.compare edges.(a).Graph.edge_label edges.(b).Graph.edge_label
          | c -> c)
      | c -> c)
    eorder;
  Array.iter
    (fun ei ->
      int (src ei);
      Buffer.add_char buf '>';
      int (tgt ei);
      Buffer.add_char buf ',';
      token edges.(ei).Graph.edge_label)
    eorder;
  (Buffer.contents buf, order, eorder)

(* ------------------------------------------------------------------ *)
(* Individualization-refinement search                                 *)

(* The root of the tree is the settled label colouring; every branch
   individualizes one member of the chosen cell and refines again. *)
let search (s : Fingerprint.settled) =
  let leaves = ref 0 in
  let best = ref None in
  let rec go colours =
    match non_singleton_cell colours with
    | None ->
        incr leaves;
        if !leaves > leaf_budget then raise Budget;
        let cert, order, eorder = certificate s.Fingerprint.graph colours in
        (match !best with
        | Some (bcert, _, _) when String.compare bcert cert <= 0 -> ()
        | _ -> best := Some (cert, order, eorder))
    | Some members ->
        List.iter
          (fun v ->
            let colours' = Array.copy colours in
            colours'.(v) <- H.int64 colours'.(v) indiv_mark;
            go (refine_fix s colours'))
          members
  in
  match go s.Fingerprint.next with () -> !best | exception Budget -> None

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)

(* [form] is called repeatedly for the same graphs (once per pairwise
   check, per memo rekey, per stage digest), so results are cached
   under a structural rendering of the graph *including identifiers*
   but excluding properties — the form never depends on properties,
   but its witness arrays are id-sensitive.  Shared across domains;
   bounded wholesale like Asp.Memo. *)

let cache_mutex = Mutex.create ()
let cache : (string, form option) Hashtbl.t = Hashtbl.create 256
let max_cache_entries = 16_384

(* Hot-path accounting: [forms_computed] counts actual
   individualization-refinement searches, [cache_hits] counts calls
   answered from the cache.  Every consumer of canonical forms — the
   engine's digest bypass, the memo's rename-invariant keys, the
   artifact store's graph digests, the planner's delta certificates —
   goes through [form], so [forms_computed] staying at one per
   distinct graph is the proof that none of them re-canonicalizes. *)
let forms_computed = Atomic.make 0
let cache_hits = Atomic.make 0

let stats () = (Atomic.get forms_computed, Atomic.get cache_hits)

let reset_stats () =
  Atomic.set forms_computed 0;
  Atomic.set cache_hits 0

(* One [n<id>\x00<label>\n] line per node, then one
   [e<id>\x00<src>\x00<tgt>\x00<label>\n] line per edge, in id order. *)
let cache_key (g : Graph.t) =
  let nodes = g.Graph.nodes and edges = g.Graph.edges in
  let size =
    Array.fold_left
      (fun acc (n : Graph.node) -> acc + String.length n.Graph.node_id + String.length n.Graph.node_label + 3)
      0 nodes
    + Array.fold_left
        (fun acc (e : Graph.edge) ->
          acc + String.length e.Graph.edge_id + String.length e.Graph.edge_src
          + String.length e.Graph.edge_tgt + String.length e.Graph.edge_label + 5)
        0 edges
  in
  let buf = Buffer.create size in
  let field s =
    Buffer.add_char buf '\x00';
    Buffer.add_string buf s
  in
  Array.iter
    (fun (n : Graph.node) ->
      Buffer.add_char buf 'n';
      Buffer.add_string buf n.Graph.node_id;
      field n.Graph.node_label;
      Buffer.add_char buf '\n')
    nodes;
  Array.iter
    (fun (e : Graph.edge) ->
      Buffer.add_char buf 'e';
      Buffer.add_string buf e.Graph.edge_id;
      field e.Graph.edge_src;
      field e.Graph.edge_tgt;
      field e.Graph.edge_label;
      Buffer.add_char buf '\n')
    edges;
  Digest.string (Buffer.contents buf)

let with_lock f =
  Mutex.lock cache_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_mutex) f

let clear () = with_lock (fun () -> Hashtbl.reset cache)

let compute_form (s : Fingerprint.settled) =
  let g = s.Fingerprint.graph in
  match search s with
  | None -> None
  | Some (cert, order, eorder) ->
      Some
        {
          digest = Digest.to_hex (Digest.string cert);
          node_order = Array.map (fun i -> g.Graph.nodes.(i).Graph.node_id) order;
          edge_order = Array.map (fun ei -> g.Graph.edges.(ei).Graph.edge_id) eorder;
        }

let form_with g settled =
  let key = cache_key g in
  let cached = with_lock (fun () -> Hashtbl.find_opt cache key) in
  match cached with
  | Some f ->
      Atomic.incr cache_hits;
      f
  | None ->
      Atomic.incr forms_computed;
      let f = compute_form (Lazy.force settled) in
      with_lock (fun () ->
          if Hashtbl.length cache >= max_cache_entries then Hashtbl.reset cache;
          Hashtbl.replace cache key f);
      f

let form g = form_with g (lazy (Fingerprint.settled g))

let digest g = Option.map (fun f -> f.digest) (form g)

(* ------------------------------------------------------------------ *)
(* Relabelling and witnesses                                           *)

let canonical_node_id i = Printf.sprintf "n%d" i
let canonical_edge_id i = Printf.sprintf "e%d" i

let to_canonical f =
  let tbl = Hashtbl.create (Array.length f.node_order + Array.length f.edge_order) in
  Array.iteri (fun i id -> Hashtbl.replace tbl id (canonical_node_id i)) f.node_order;
  Array.iteri (fun i id -> Hashtbl.replace tbl id (canonical_edge_id i)) f.edge_order;
  fun id -> match Hashtbl.find_opt tbl id with Some c -> c | None -> id

let of_canonical f =
  let tbl = Hashtbl.create (Array.length f.node_order + Array.length f.edge_order) in
  Array.iteri (fun i id -> Hashtbl.replace tbl (canonical_node_id i) id) f.node_order;
  Array.iteri (fun i id -> Hashtbl.replace tbl (canonical_edge_id i) id) f.edge_order;
  fun id -> match Hashtbl.find_opt tbl id with Some c -> c | None -> id

let relabel g f = Graph.map_ids (to_canonical f) g
