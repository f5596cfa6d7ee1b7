open Pgraph

(* Atomic so the counters stay coherent when the parallel suite runner
   matches on several domains at once. *)
let certified = Atomic.make 0
let fallbacks = Atomic.make 0

let stats () = (Atomic.get certified, Atomic.get fallbacks)

let reset_stats () =
  Atomic.set certified 0;
  Atomic.set fallbacks 0

(* Creation order: recorders assign identifiers with increasing numeric
   suffixes (v1, r2, n3, cf:boot:17, ...), which stand in for the
   timestamps of the paper's suggestion. *)
let creation_index id =
  let n = String.length id in
  let rec start i = if i > 0 && id.[i - 1] >= '0' && id.[i - 1] <= '9' then start (i - 1) else i in
  let s = start n in
  if s = n then max_int else int_of_string (String.sub id s (n - s))

(* Greedy order-preserving alignment of two sequences by label, in
   creation order: for each left element take the first unconsumed right
   element with the same label.  Returns None when some left element
   finds no partner.  The sequences come id-sorted, so the stable sort
   breaks creation-index ties by id. *)
let align_by_label left right ~label_of ~id_of =
  let by_creation =
    List.stable_sort (fun a b -> Int.compare (creation_index (id_of a)) (creation_index (id_of b)))
  in
  let left = by_creation left and right = Array.of_list (by_creation right) in
  let used = Array.make (Array.length right) false in
  let rec find_from label i =
    if i >= Array.length right then None
    else if (not used.(i)) && String.equal (label_of right.(i)) label then Some i
    else find_from label (i + 1)
  in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | x :: rest -> (
        match find_from (label_of x) 0 with
        | None -> None
        | Some i ->
            used.(i) <- true;
            go ((id_of x, id_of right.(i)) :: acc) rest)
  in
  go [] left

(* Admissible lower bound on the optimal property cost: every left
   element pays at least its cheapest same-label pairing. *)
let cost_lower_bound g1 g2 =
  let node_lb =
    List.fold_left
      (fun acc (n1 : Graph.node) ->
        let best =
          List.fold_left
            (fun best (n2 : Graph.node) ->
              if String.equal n1.Graph.node_label n2.Graph.node_label then
                min best (Props.mismatch_cost n1.Graph.node_props n2.Graph.node_props)
              else best)
            max_int (Graph.nodes g2)
        in
        if best = max_int then max_int else acc + best)
      0 (Graph.nodes g1)
  in
  if node_lb = max_int then max_int
  else
    List.fold_left
      (fun acc (e1 : Graph.edge) ->
        if acc = max_int then max_int
        else
          let best =
            List.fold_left
              (fun best (e2 : Graph.edge) ->
                if String.equal e1.Graph.edge_label e2.Graph.edge_label then
                  min best (Props.mismatch_cost e1.Graph.edge_props e2.Graph.edge_props)
                else best)
              max_int (Graph.edges g2)
          in
          if best = max_int then max_int else acc + best)
      node_lb (Graph.edges g1)

let greedy ~sub g1 g2 =
  let node_pairs =
    align_by_label (Graph.nodes g1) (Graph.nodes g2)
      ~label_of:(fun (n : Graph.node) -> n.Graph.node_label)
      ~id_of:(fun (n : Graph.node) -> n.Graph.node_id)
  in
  let edge_pairs =
    align_by_label (Graph.edges g1) (Graph.edges g2)
      ~label_of:(fun (e : Graph.edge) -> e.Graph.edge_label)
      ~id_of:(fun (e : Graph.edge) -> e.Graph.edge_id)
  in
  match (node_pairs, edge_pairs) with
  | Some node_map, Some edge_map ->
      let m = { Matching.node_map; edge_map; cost = 0 } in
      Result.to_option (Result.map (fun cost -> { m with Matching.cost }) (Matching.verify_cost ~sub g1 g2 m))
  | _ -> None

(* Accept the greedy alignment only when it is provably optimal. *)
let attempt ~sub g1 g2 =
  match greedy ~sub g1 g2 with
  | Some m when m.Matching.cost = cost_lower_bound g1 g2 ->
      Atomic.incr certified;
      Some m
  | _ ->
      Atomic.incr fallbacks;
      None

(* Similarity ignores properties, so any verified bijection certifies it
   — no cost bound needed. *)
let similar g1 g2 =
  match greedy ~sub:false g1 g2 with
  | Some _ ->
      Atomic.incr certified;
      true
  | None ->
      Atomic.incr fallbacks;
      Vf2.similar g1 g2

let iso_min_cost g1 g2 =
  match attempt ~sub:false g1 g2 with Some m -> Some m | None -> Vf2.iso_min_cost g1 g2

let sub_iso_min_cost g1 g2 =
  match attempt ~sub:true g1 g2 with Some m -> Some m | None -> Vf2.sub_iso_min_cost g1 g2

(* ------------------------------------------------------------------ *)
(* Delta re-solve: witness reuse across transient-only variations.     *)

(* ProvMark's workload is dominated by consecutive trials of one
   benchmark whose graphs differ only in transient properties — same
   canonical structure digest, different pids/timestamps/tokens.  For
   such pairs a cold solve is pure waste when the structure admits
   exactly one matching.

   The certificate is *rigidity*: if Weisfeiler-Leman refinement at
   the pair's common stable depth separates every node (all colour
   classes singletons) and every edge (label + endpoint colours all
   distinct), the graph has a trivial automorphism group.  Two
   digest-equal graphs then admit exactly ONE label-isomorphism: any
   two would differ by a nontrivial automorphism.  That unique
   bijection is what [Matching.of_canon] returns (the positional pairing
   of the canonical orders is a label-isomorphism whenever digests are
   equal, hence *the* one), it is trivially cost-optimal for any
   property values (no alternative exists), and it is byte-identical
   to what every backend returns — which is what lets the native
   cascade take this path without perturbing its output.  When the
   counts are equal — canonical digests pin node and edge counts — the
   same argument covers sub-iso embeddings: an injective embedding
   between equal-sized graphs is a bijection, hence the unique iso.

   Rigidity is a pure function of the structure (colours are
   isomorphism-invariant), so the verdict is cached per canonical
   digest: trial 1 of a benchmark pays the refinement and populates
   the entry, trials 2..N reuse it and rebuild the witness from the
   (already cached) canonical forms in linear time.  The cache is a
   performance memo only — a miss recomputes the same verdict — so
   certified/fallback counts are deterministic functions of the pairs
   attempted, while hit counts may depend on scheduling and are only
   surfaced where that is acceptable (serve stats, benches). *)

let delta_certified = Atomic.make 0
let delta_fallbacks = Atomic.make 0
let delta_cache_hits = Atomic.make 0

let delta_stats () = (Atomic.get delta_certified, Atomic.get delta_fallbacks, Atomic.get delta_cache_hits)

let rigidity_mutex = Mutex.create ()
let rigidity_cache : (string, bool) Hashtbl.t = Hashtbl.create 64
let max_rigidity_entries = 16_384

let reset_delta () =
  Atomic.set delta_certified 0;
  Atomic.set delta_fallbacks 0;
  Atomic.set delta_cache_hits 0;
  Mutex.lock rigidity_mutex;
  Hashtbl.reset rigidity_cache;
  Mutex.unlock rigidity_mutex

let all_distinct colours =
  let module S = Set.Make (Int64) in
  let rec go s = function
    | [] -> true
    | (_, c) :: rest -> if S.mem c s then false else go (S.add c s) rest
  in
  go S.empty colours

(* Discrete node and edge partitions at the pair's common stable
   depth.  Checking both graphs is redundant given digest equality
   (class sizes are iso-invariant) but cheap and defensive. *)
let rigid_pair g1 g2 =
  let rounds = max (Fingerprint.stable_rounds g1) (Fingerprint.stable_rounds g2) in
  all_distinct (Fingerprint.node_colours ~rounds g1)
  && all_distinct (Fingerprint.edge_colours ~rounds g1)
  && all_distinct (Fingerprint.node_colours ~rounds g2)
  && all_distinct (Fingerprint.edge_colours ~rounds g2)

let delta ~sub f1 f2 g1 g2 =
  if not (String.equal f1.Canon.digest f2.Canon.digest) then None
  else
    let rigid =
      let key = f1.Canon.digest in
      Mutex.lock rigidity_mutex;
      let cached = Hashtbl.find_opt rigidity_cache key in
      Mutex.unlock rigidity_mutex;
      match cached with
      | Some r ->
          Atomic.incr delta_cache_hits;
          r
      | None ->
          let r = rigid_pair g1 g2 in
          Mutex.lock rigidity_mutex;
          if Hashtbl.length rigidity_cache >= max_rigidity_entries then Hashtbl.reset rigidity_cache;
          Hashtbl.replace rigidity_cache key r;
          Mutex.unlock rigidity_mutex;
          r
    in
    if not rigid then (
      Atomic.incr delta_fallbacks;
      None)
    else
      let m = Matching.of_canon f1 f2 in
      (* Safety net, same posture as stitched witnesses: the theorem
         says this cannot fail, the verifier makes sure a bug here can
         only cost performance, never correctness. *)
      match Matching.verify_cost ~sub g1 g2 m with
      | Ok cost ->
          Atomic.incr delta_certified;
          Some { m with Matching.cost }
      | Error _ ->
          Atomic.incr delta_fallbacks;
          None
