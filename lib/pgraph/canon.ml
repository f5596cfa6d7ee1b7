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
let refine_fix view colours =
  let _, _, next = Fingerprint.settle view colours in
  next

let indiv_mark = H.string H.seed "individualized"

(* The cell to branch on: among non-singleton colour classes, the one
   with the fewest members, ties broken by colour value — a pure
   function of the (isomorphism-invariant) colouring. *)
let non_singleton_cell colours =
  let module M = Map.Make (Int64) in
  let cells =
    Array.to_seqi colours
    |> Seq.fold_left (fun m (i, c) -> M.update c (function None -> Some [ i ] | Some l -> Some (i :: l)) m) M.empty
  in
  M.fold
    (fun _c members best ->
      let size = List.length members in
      if size < 2 then best
      else
        match best with
        | Some (bsize, _) when bsize <= size -> best
        | _ -> Some (size, List.rev members))
    cells None
  |> Option.map snd

(* ------------------------------------------------------------------ *)
(* Certificates                                                        *)

(* Canonical node order of a discrete colouring: positions sorted by
   colour.  The certificate renders the complete structure under that
   order (length-prefixed tokens, so no label can alias a separator). *)
let certificate view colours =
  let n = Array.length colours in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> Int64.compare colours.(a) colours.(b)) order;
  let pos = Array.make n 0 in
  Array.iteri (fun p i -> pos.(i) <- p) order;
  let buf = Buffer.create 256 in
  let token s = Buffer.add_string buf (Printf.sprintf "%d:%s;" (String.length s) s) in
  Buffer.add_string buf (Printf.sprintf "g%d,%d|" n (Array.length view.Fingerprint.edges));
  Array.iter (fun i -> token view.Fingerprint.nodes.(i).Graph.node_label) order;
  Buffer.add_char buf '|';
  let triples =
    Array.to_list
      (Array.mapi
         (fun ei (e : Graph.edge) ->
           (pos.(view.Fingerprint.esrc.(ei)), pos.(view.Fingerprint.etgt.(ei)), e.Graph.edge_label, ei))
         view.Fingerprint.edges)
  in
  let triples =
    List.sort
      (fun (s1, t1, l1, e1) (s2, t2, l2, e2) ->
        match compare (s1, t1) (s2, t2) with
        | 0 -> ( match String.compare l1 l2 with 0 -> compare e1 e2 | c -> c)
        | c -> c)
      triples
  in
  List.iter
    (fun (s, t, l, _) ->
      Buffer.add_string buf (Printf.sprintf "%d>%d," s t);
      token l)
    triples;
  (Buffer.contents buf, order, Array.of_list (List.map (fun (_, _, _, ei) -> ei) triples))

(* ------------------------------------------------------------------ *)
(* Individualization-refinement search                                 *)

let search view =
  let initial = Fingerprint.label_colours view in
  let leaves = ref 0 in
  let best = ref None in
  let rec go colours =
    let colours = refine_fix view colours in
    match non_singleton_cell colours with
    | None ->
        incr leaves;
        if !leaves > leaf_budget then raise Budget;
        let cert, order, eorder = certificate view colours in
        (match !best with
        | Some (bcert, _, _) when String.compare bcert cert <= 0 -> ()
        | _ -> best := Some (cert, order, eorder))
    | Some members ->
        List.iter
          (fun v ->
            let colours' = Array.copy colours in
            colours'.(v) <- H.int64 colours'.(v) indiv_mark;
            go colours')
          members
  in
  match go initial with () -> !best | exception Budget -> None

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

let cache_key g =
  let buf = Buffer.create 256 in
  List.iter
    (fun (n : Graph.node) -> Buffer.add_string buf (Printf.sprintf "n%s\x00%s\n" n.Graph.node_id n.Graph.node_label))
    (Graph.nodes g);
  List.iter
    (fun (e : Graph.edge) ->
      Buffer.add_string buf
        (Printf.sprintf "e%s\x00%s\x00%s\x00%s\n" e.Graph.edge_id e.Graph.edge_src e.Graph.edge_tgt
           e.Graph.edge_label))
    (Graph.edges g);
  Digest.string (Buffer.contents buf)

let with_lock f =
  Mutex.lock cache_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_mutex) f

let clear () = with_lock (fun () -> Hashtbl.reset cache)

let compute_form g =
  let view = Fingerprint.view_of g in
  match search view with
  | None -> None
  | Some (cert, order, eorder) ->
      Some
        {
          digest = Digest.to_hex (Digest.string cert);
          node_order = Array.map (fun i -> view.Fingerprint.nodes.(i).Graph.node_id) order;
          edge_order = Array.map (fun ei -> view.Fingerprint.edges.(ei).Graph.edge_id) eorder;
        }

let form g =
  let key = cache_key g in
  let cached = with_lock (fun () -> Hashtbl.find_opt cache key) in
  match cached with
  | Some f ->
      Atomic.incr cache_hits;
      f
  | None ->
      Atomic.incr forms_computed;
      let f = compute_form g in
      with_lock (fun () ->
          if Hashtbl.length cache >= max_cache_entries then Hashtbl.reset cache;
          Hashtbl.replace cache key f);
      f

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

let witness f1 f2 =
  if not (String.equal f1.digest f2.digest) then
    invalid_arg "Canon.witness: forms have different digests";
  let pair a b = Array.to_list (Array.map2 (fun x y -> (x, y)) a b) in
  pair f1.node_order f2.node_order @ pair f1.edge_order f2.edge_order
