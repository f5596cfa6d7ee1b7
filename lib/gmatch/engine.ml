(* [Direct] is the native backend: a fixed cascade of sound bypasses
   (canonical digests, delta witness reuse, the segment plan), then the
   incremental matcher for similarity or VF2 for witnesses — each path
   logged in [Planner], none chosen by timing.  "vf2" and the retired
   "auto" parse as aliases of it. *)
type backend = Asp | Direct | Incremental

let default_backend = Direct

let backend_of_string = function
  | "asp" -> Ok Asp
  | "direct" | "vf2" | "auto" -> Ok Direct
  | "incremental" | "inc" -> Ok Incremental
  | s ->
      Error (Printf.sprintf "unknown matching backend %S (expected asp, direct or incremental)" s)

let backend_to_string = function
  | Asp -> "asp"
  | Direct -> "direct"
  | Incremental -> "incremental"

(* Degradation notes are collected per domain, inside scopes.  A
   benchmark's stage runs on one domain, so the notes of its scope are
   exactly that stage's — deterministic at any [-j].  Scopes nest
   because a domain waiting on segment solves runs queued help jobs,
   which may be another stage (the other generalization variant):
   that stage's scope sets the waiting stage's notes aside instead of
   taking them.  Notes are recorded in emission order and deduplicated
   when the scope closes. *)
type note_scope = { mutable depth : int; mutable notes : string list }

let notes_key = Domain.DLS.new_key (fun () -> { depth = 0; notes = [] })

let note msg =
  let s = Domain.DLS.get notes_key in
  s.notes <- msg :: s.notes

let collect_notes f =
  let s = Domain.DLS.get notes_key in
  (* The outermost scope drops notes left by engine calls made outside
     any scope; an inner scope hands the enclosing scope's notes back. *)
  let enclosing = if s.depth = 0 then [] else s.notes in
  s.notes <- [];
  s.depth <- s.depth + 1;
  let close () =
    let mine = List.rev s.notes in
    s.depth <- s.depth - 1;
    s.notes <- enclosing;
    List.fold_left (fun acc n -> if List.mem n acc then acc else acc @ [ n ]) [] mine
  in
  match f () with
  | v -> (v, close ())
  | exception e ->
      ignore (close ());
      raise e

(* Monotonic count of every step-limit degradation, across all domains
   and operations: the serve daemon's circuit breaker watches this to
   decide when repeated ASP exhaustion should trip requests straight to
   VF2 for a cooldown window. *)
let degraded_counter = Atomic.make 0
let degraded_total () = Atomic.get degraded_counter

let degraded op =
  Atomic.incr degraded_counter;
  note (Printf.sprintf "asp %s hit its step limit; fell back to vf2" op)

(* ------------------------------------------------------------------ *)
(* Canonical-form fast path                                            *)

(* Solves avoided through Pgraph.Canon, counted per pipeline stage tag
   (same tags as the solve memo).  The counts are a pure function of
   the graphs checked, never of scheduling, so they are safe to print
   in deterministic output. *)
let similarity_skips = Atomic.make 0
let generalization_skips = Atomic.make 0
let comparison_skips = Atomic.make 0

let counter_of = function
  | "similarity" -> Some similarity_skips
  | "generalization" -> Some generalization_skips
  | "comparison" -> Some comparison_skips
  | _ -> None

let canon_skip tag = Option.iter (fun c -> Atomic.incr c) (counter_of tag)

let canon_skips () =
  List.filter
    (fun (_, n) -> n > 0)
    [
      ("comparison", Atomic.get comparison_skips);
      ("generalization", Atomic.get generalization_skips);
      ("similarity", Atomic.get similarity_skips);
    ]
  |> List.sort compare

let canon_skip_total () = List.fold_left (fun acc (_, n) -> acc + n) 0 (canon_skips ())

let reset_canon_skips () =
  List.iter (fun c -> Atomic.set c 0) [ similarity_skips; generalization_skips; comparison_skips ]

(* ------------------------------------------------------------------ *)
(* Segmented matching                                                  *)

(* [opts.segment_min_nodes] (threshold included) participates in
   Config.backend_fp, because segmentation preserves verdicts and
   optimal costs but may pick a different optimal witness than the
   whole-graph solver. *)
let segmentable ~opts g1 g2 =
  match opts.Match_opts.segment_min_nodes with
  | None -> false
  | Some min_nodes -> max (Pgraph.Graph.node_count g1) (Pgraph.Graph.node_count g2) >= min_nodes

(* Segment solves are independent, so a pool may run them in parallel.
   The engine cannot depend on Core's domain pool (the dependency goes
   the other way), so the runner is injected: it must run every thunk
   to completion before returning — each thunk writes one slot of a
   result array, so completion order is irrelevant and results are
   deterministic at any parallelism.  [None] runs them sequentially. *)
let segment_runner : ((unit -> unit) list -> unit) option Atomic.t = Atomic.make None
let set_segment_runner r = Atomic.set segment_runner r

let run_segment_thunks thunks =
  match Atomic.get segment_runner with
  | Some run -> run thunks
  | None -> List.iter (fun f -> f ()) thunks

(* Counters, same shape as the canon skip counters: pure functions of
   the pairs checked, never of scheduling.  "skips" are pairs refuted
   outright by the quotient prepass; "pairs" went through segmented
   solving; "solves" counts the individual segment instances; and
   "fallbacks" counts stitched witnesses that failed verification and
   were re-solved whole (a should-not-happen safety net). *)
let seg_sim_skips = Atomic.make 0
let seg_gen_skips = Atomic.make 0
let seg_sim_pairs = Atomic.make 0
let seg_gen_pairs = Atomic.make 0
let seg_solve_count = Atomic.make 0
let seg_fallback_count = Atomic.make 0

let seg_counter_of tbl = function
  | "similarity" -> Some (fst tbl)
  | "generalization" -> Some (snd tbl)
  | _ -> None

let seg_skip tag =
  Option.iter (fun c -> Atomic.incr c) (seg_counter_of (seg_sim_skips, seg_gen_skips) tag)

let seg_mark_pair tag =
  Option.iter (fun c -> Atomic.incr c) (seg_counter_of (seg_sim_pairs, seg_gen_pairs) tag)

let nonzero_sorted entries = List.filter (fun (_, n) -> n > 0) entries |> List.sort compare

let segment_skips () =
  nonzero_sorted
    [
      ("generalization", Atomic.get seg_gen_skips); ("similarity", Atomic.get seg_sim_skips);
    ]

let segment_pairs () =
  nonzero_sorted
    [
      ("generalization", Atomic.get seg_gen_pairs); ("similarity", Atomic.get seg_sim_pairs);
    ]

let segment_solves () = Atomic.get seg_solve_count
let segment_fallbacks () = Atomic.get seg_fallback_count

let reset_segment_stats () =
  List.iter
    (fun c -> Atomic.set c 0)
    [
      seg_sim_skips; seg_gen_skips; seg_sim_pairs; seg_gen_pairs; seg_solve_count;
      seg_fallback_count;
    ]

(* ------------------------------------------------------------------ *)
(* Canonical bypasses and the delta step                               *)

(* The native cascade's delta step: only a hit is a decision (a miss
   costs a cached rigidity lookup and falls through to the rest of the
   cascade). *)
let native_delta ~task ~sub f1 f2 g1 g2 =
  let m = Incremental.delta ~sub f1 f2 g1 g2 in
  if Option.is_some m then Planner.note ~task Planner.Delta;
  m

(* [s1]/[s2] are the graphs' settled colourings, forced on a form
   cache miss or by the segment plan, whichever comes first. *)
let canon_pair ~opts (g1, s1) (g2, s2) =
  if opts.Match_opts.canon then
    match (Pgraph.Canon.form_with g1 s1, Pgraph.Canon.form_with g2 s2) with
    | Some f1, Some f2 -> Some (f1, f2)
    | _ -> None
  else None

(* Each graph of a pair is refined once per call: its settled
   colouring is built by the first consumer (a form cache miss or the
   segment plan) and shared with the other. *)
let settled g = lazy (Pgraph.Fingerprint.settled g)
let plan s1 s2 = Pgraph.Summarize.plan_settled (Lazy.force s1) (Lazy.force s2)

let same_digest (f1 : Pgraph.Canon.form) (f2 : Pgraph.Canon.form) =
  String.equal f1.Pgraph.Canon.digest f2.Pgraph.Canon.digest

(* The canonical witness is usable for a cost-minimizing matching only
   when its property mismatch cost is zero: cost 0 is trivially optimal
   (costs are non-negative), and a zero-cost matching makes the
   downstream result witness-independent — generalization intersects
   away nothing, comparison subtracts the whole (equal-sized) graph.
   Any positive cost falls through to the solver, whose choice among
   cost-minimal witnesses is part of the observable answer. *)
let zero_cost_witness g1 g2 f1 f2 =
  let m = Matching.of_canon f1 f2 in
  if Matching.zero_cost g1 g2 m then Some m else None

(* ------------------------------------------------------------------ *)
(* Segment solving proper.

   Per-segment solves call the backend layers directly (never the
   noting wrappers below): a degrading segment records a flag in its
   result slot instead of a note, and the caller emits one degradation
   note on its own domain after all segments finish.  This keeps the
   merged result tagged degraded exactly once — and keeps notes off the
   pool's worker domains, whose per-domain note buffers the submitting
   benchmark never drains.  [Direct]'s segment instances run on VF2:
   they are small by construction (bounded by the largest ambiguous
   component), and the cascade logs the segmented path once per plan,
   on the calling domain. *)

let segment_similar ~opts ~backend (p : Pgraph.Summarize.plan) =
  let segs = Array.of_list p.Pgraph.Summarize.segments in
  let n = Array.length segs in
  let verdicts = Array.make n true in
  let degraded_segs = Array.make n false in
  let thunk i () =
    let s = segs.(i) in
    Atomic.incr seg_solve_count;
    let left = s.Pgraph.Summarize.left and right = s.Pgraph.Summarize.right in
    verdicts.(i) <-
      (match backend with
      | Direct -> Vf2.similar left right
      | Incremental -> Incremental.similar left right
      | Asp -> (
          match Asp_backend.similar_checked ~opts left right with
          | Ok b -> b
          | Error `Step_limit ->
              if opts.Match_opts.fallback then begin
                degraded_segs.(i) <- true;
                Vf2.similar left right
              end
              else false))
  in
  run_segment_thunks (List.init n thunk);
  if Array.exists Fun.id degraded_segs then degraded "similarity";
  Array.for_all Fun.id verdicts

exception Stitch_mismatch

let segment_iso ~opts ~backend g1 g2 (p : Pgraph.Summarize.plan) =
  let segs = Array.of_list p.Pgraph.Summarize.segments in
  let n = Array.length segs in
  let witnesses = Array.make n None in
  let degraded_segs = Array.make n false in
  let thunk i () =
    let s = segs.(i) in
    Atomic.incr seg_solve_count;
    let left = s.Pgraph.Summarize.left and right = s.Pgraph.Summarize.right in
    witnesses.(i) <-
      (match backend with
      | Direct -> Vf2.iso_min_cost left right
      | Incremental -> Incremental.iso_min_cost left right
      | Asp -> (
          match Asp_backend.iso_min_cost_checked ~opts left right with
          | Ok m -> m
          | Error `Step_limit ->
              if opts.Match_opts.fallback then begin
                degraded_segs.(i) <- true;
                Vf2.iso_min_cost left right
              end
              else Asp_backend.iso_min_cost ~opts left right))
  in
  run_segment_thunks (List.init n thunk);
  if Array.exists Fun.id degraded_segs then degraded "generalization";
  if Array.exists Option.is_none witnesses then
    (* A segment with no bijection refutes the whole pair: every global
       matching restricts to a valid matching of each segment instance. *)
    None
  else
    let node_map, edge_map =
      Array.to_list witnesses
      |> List.map (fun m ->
             let m = Option.get m in
             (m.Matching.node_map, m.Matching.edge_map))
      |> Pgraph.Summarize.stitch p
    in
    let m = { Matching.node_map; edge_map; cost = 0 } in
    (* Safety net: the decomposition argument says this cannot fail, but
       a wrong stitched witness must never leave the engine — fall back
       to the whole-graph solver instead. *)
    match Matching.verify_cost ~sub:false g1 g2 m with
    | Ok cost -> Some { m with Matching.cost }
    | Error _ -> raise Stitch_mismatch

let similar ?(opts = Match_opts.default) ?(backend = default_backend) g1 g2 =
  let whole () =
    match backend with
    | Asp -> (
        match Asp_backend.similar_checked ~opts g1 g2 with
        | Ok b -> b
        | Error `Step_limit ->
            if opts.Match_opts.fallback then begin
              degraded "similarity";
              Vf2.similar g1 g2
            end
            else false)
    | Incremental -> Incremental.similar g1 g2
    | Direct ->
        (* A verdict is witness-independent, so the cascade takes the
           matcher that is cheapest on the suite's pairs: greedy
           creation-order alignment, falling back to exact VF2. *)
        Planner.note ~task:"similarity" Planner.Incr;
        Incremental.similar g1 g2
  in
  let s1 = settled g1 and s2 = settled g2 in
  match canon_pair ~opts (g1, s1) (g2, s2) with
  | Some (f1, f2) ->
      (* Digest equality is exactly label-isomorphism, which is exactly
         the Section 3.4 similarity every backend decides. *)
      canon_skip "similarity";
      same_digest f1 f2
  | None ->
      if segmentable ~opts g1 g2 then
        match plan s1 s2 with
        | Pgraph.Summarize.Mismatch ->
            seg_skip "similarity";
            false
        | Pgraph.Summarize.Whole -> whole ()
        | Pgraph.Summarize.Segmented p ->
            seg_mark_pair "similarity";
            if backend = Direct then Planner.note ~task:"similarity" Planner.Seg;
            segment_similar ~opts ~backend p
      else whole ()

let generalization_matching ?(opts = Match_opts.default) ?(backend = default_backend) g1 g2 =
  let whole () =
    match backend with
    | Asp -> (
        match Asp_backend.iso_min_cost_checked ~opts g1 g2 with
        | Ok m -> m
        | Error `Step_limit ->
            if opts.Match_opts.fallback then begin
              degraded "generalization";
              Vf2.iso_min_cost g1 g2
            end
            else Asp_backend.iso_min_cost ~opts g1 g2)
    | Incremental -> Incremental.iso_min_cost g1 g2
    | Direct ->
        (* Witness-producing: the optimal witness is part of the
           observable answer, so when no bypass applied the cascade
           ends in the exact search. *)
        Planner.note ~task:"generalization" Planner.Vf2;
        Vf2.iso_min_cost g1 g2
  in
  let segmented = segmentable ~opts g1 g2 in
  let s1 = settled g1 and s2 = settled g2 in
  let solve () =
    if segmented then
      match plan s1 s2 with
      | Pgraph.Summarize.Mismatch ->
          seg_skip "generalization";
          None
      | Pgraph.Summarize.Whole -> whole ()
      | Pgraph.Summarize.Segmented p -> (
          seg_mark_pair "generalization";
          if backend = Direct then Planner.note ~task:"generalization" Planner.Seg;
          try segment_iso ~opts ~backend g1 g2 p
          with Stitch_mismatch ->
            Atomic.incr seg_fallback_count;
            whole ())
    else whole ()
  in
  match canon_pair ~opts (g1, s1) (g2, s2) with
  | Some (f1, f2) when not (same_digest f1 f2) ->
      (* Not label-isomorphic: no bijective matching exists. *)
      canon_skip "generalization";
      None
  | Some (f1, f2) -> (
      match zero_cost_witness g1 g2 f1 f2 with
      | Some m ->
          canon_skip "generalization";
          Some m
      | None when backend = Direct && not segmented -> (
          (* Same structure, transient property deltas: reuse the
             provably unique witness instead of solving cold.  Pairs the
             segment plan takes skip it: on a rigid pair the plan forces
             every node and stitches the same unique witness, so the
             rigidity refinement would be pure overhead there. *)
          match native_delta ~task:"generalization" ~sub:false f1 f2 g1 g2 with
          | Some m -> Some m
          | None -> solve ())
      | None -> solve ())
  | None -> solve ()

let subgraph_matching ?(opts = Match_opts.default) ?(backend = default_backend) g1 g2 =
  let solve () =
    match backend with
    | Asp -> (
        match Asp_backend.sub_iso_min_cost_checked ~opts g1 g2 with
        | Ok m -> m
        | Error `Step_limit ->
            if opts.Match_opts.fallback then begin
              degraded "comparison";
              Vf2.sub_iso_min_cost g1 g2
            end
            else Asp_backend.sub_iso_min_cost ~opts g1 g2)
    | Incremental -> Incremental.sub_iso_min_cost g1 g2
    | Direct ->
        (* Witness-producing, like generalization. *)
        Planner.note ~task:"comparison" Planner.Vf2;
        Vf2.sub_iso_min_cost g1 g2
  in
  (* Unequal digests prove nothing here (a proper subgraph embedding
     may still exist), so only the equal-digest zero-cost case can
     bypass the search.  Equal digests pin equal sizes, which is what
     extends the delta path's uniqueness argument to embeddings. *)
  match canon_pair ~opts (g1, settled g1) (g2, settled g2) with
  | Some (f1, f2) when same_digest f1 f2 -> (
      match zero_cost_witness g1 g2 f1 f2 with
      | Some m ->
          canon_skip "comparison";
          Some m
      | None when backend = Direct -> (
          match native_delta ~task:"comparison" ~sub:true f1 f2 g1 g2 with
          | Some m -> Some m
          | None -> solve ())
      | None -> solve ())
  | _ -> solve ()
