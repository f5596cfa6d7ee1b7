let default_max_steps = 10_000_000

(* The three matching subproblems: exact similarity (Listing 3, any
   model), bijective min-cost alignment for generalization (Listing 3 +
   cost), approximate subgraph isomorphism for comparison (Listing 4). *)
type task = Similarity | Generalization | Comparison

let encode g1 g2 =
  Datalog.Base.union
    (Datalog.Encode.graph_to_base ~gid:"1" g1)
    (Datalog.Encode.graph_to_base ~gid:"2" g2)

(* Colour-compatible candidate pairs.  The exact similarity check may
   use refined Weisfeiler-Leman colours: any label- and
   incidence-preserving bijection maps each element to an equally
   coloured one at every refinement round.  The cost-minimizing
   programs stay at round 0 (labels only) — their hard constraints
   guarantee no more than label and endpoint agreement, so deeper
   rounds could prune pairs an optimal approximate matching uses. *)
let cand_rounds = function
  | Similarity -> Pgraph.Fingerprint.default_rounds
  | Generalization | Comparison -> 0

let cand_pairs pred colours1 colours2 =
  let by_colour = Hashtbl.create 64 in
  List.iter
    (fun (id, c) ->
      let ids = Option.value ~default:[] (Hashtbl.find_opt by_colour c) in
      Hashtbl.replace by_colour c (id :: ids))
    colours2;
  List.concat_map
    (fun (id1, c) ->
      match Hashtbl.find_opt by_colour c with
      | None -> []
      | Some ids ->
          List.map
            (fun id2 ->
              Datalog.Fact.make pred
                [ Datalog.Fact.sym_of_string id1; Datalog.Fact.sym_of_string id2 ])
            ids)
    colours1

let cand_facts task g1 g2 =
  let rounds = cand_rounds task in
  let open Pgraph in
  cand_pairs Asp.Listings.node_cand_predicate
    (Fingerprint.node_colours ~rounds g1)
    (Fingerprint.node_colours ~rounds g2)
  @ cand_pairs Asp.Listings.edge_cand_predicate
      (Fingerprint.edge_colours ~rounds g1)
      (Fingerprint.edge_colours ~rounds g2)

let instance ~prune task g1 g2 =
  let base = encode g1 g2 in
  if prune then
    let program =
      match task with
      | Similarity -> Asp.Listings.similarity_pruned
      | Generalization -> Asp.Listings.similarity_min_cost_pruned
      | Comparison -> Asp.Listings.subgraph_pruned
    in
    (program, Datalog.Base.union base (Datalog.Base.of_list (cand_facts task g1 g2)))
  else
    let program =
      match task with
      | Similarity -> Asp.Listings.similarity
      | Generalization -> Asp.Listings.similarity_min_cost
      | Comparison -> Asp.Listings.subgraph
    in
    (program, base)

(* Fault tap: a solve site is named by the memo tag and the two graphs'
   Weisfeiler-Leman fingerprints — content, not identity or schedule —
   so forced step-limit exhaustion is reproducible at any [-j].  A
   faulted solve keys the memo under its tiny [max_steps], never
   aliasing an honest solve of the same instance. *)
let solve_site memo g1 g2 =
  Printf.sprintf "solver:%s:%s:%s" memo
    (Pgraph.Fingerprint.to_hex (Pgraph.Fingerprint.of_graph g1))
    (Pgraph.Fingerprint.to_hex (Pgraph.Fingerprint.of_graph g2))

(* Canonical-instance solving: when [opts.canon] is set, the
   instance handed to the solver — and hence every solve-memo key
   derived from it — is built from canonically relabelled graphs, so
   renamed copies of the same pair hit the same memo entry.  Only the
   [h/2] matching atoms mention element ids; they are translated back
   through the inverse relabellings before decoding. *)
let translate_atoms f1 f2 atoms =
  List.map
    (fun (f : Datalog.Fact.t) ->
      if String.equal f.Datalog.Fact.pred Asp.Listings.matching_predicate then
        match f.Datalog.Fact.args with
        | [ x; y ] ->
            let back form t =
              Datalog.Fact.sym_of_string
                (Pgraph.Canon.of_canonical form (Datalog.Fact.string_of_term t))
            in
            Datalog.Fact.make f.Datalog.Fact.pred [ back f1 x; back f2 y ]
        | _ -> f
      else f)
    atoms

(* Each entry point carries the pipeline stage it serves as its memo
   tag, so the solve cache reports hits per stage.  Pruned and unpruned
   instances differ in both program text and cand facts, so they memoize
   under distinct keys automatically.  With [opts.memo] off the tag is
   withheld and every solve computes. *)
let run_task ?(opts = Match_opts.default) ?(max_steps = default_max_steps) ~memo ~find_optimal
    task g1 g2 =
  (* The fault tap keys on WL fingerprints, which are invariant under
     the relabelling below, so faulted sites fire identically with and
     without canonicalization. *)
  let max_steps =
    if Faults.Injector.solver_exhaust ~site:(solve_site memo g1 g2) then 0 else max_steps
  in
  let canonical =
    if opts.Match_opts.canon then
      match (Pgraph.Canon.form g1, Pgraph.Canon.form g2) with
      | Some f1, Some f2 -> Some (f1, f2)
      | _ -> None
    else None
  in
  let prune = opts.Match_opts.prune in
  let memo = if opts.Match_opts.memo then Some memo else None in
  match canonical with
  | Some (f1, f2) -> (
      let c1 = Pgraph.Canon.relabel g1 f1 and c2 = Pgraph.Canon.relabel g2 f2 in
      let program, facts = instance ~prune task c1 c2 in
      match Asp.Engine.run ~max_steps ~find_optimal ?memo ~program ~facts () with
      | Asp.Engine.Model { cost; atoms; optimal } ->
          Asp.Engine.Model { cost; atoms = translate_atoms f1 f2 atoms; optimal }
      | outcome -> outcome)
  | None ->
      let program, facts = instance ~prune task g1 g2 in
      Asp.Engine.run ~max_steps ~find_optimal ?memo ~program ~facts ()

(* [Unknown] (step limit before any model) and non-optimal models (step
   limit before the optimality proof) both mean the solver ran out of
   budget: surface that so {!Engine} can fall back to VF2 instead of
   reporting a wrong verdict or a suboptimal witness. *)
let similar_checked ?opts ?max_steps g1 g2 =
  match run_task ?opts ?max_steps ~memo:"similarity" ~find_optimal:false Similarity g1 g2 with
  | Asp.Engine.Model _ -> Ok true
  | Asp.Engine.Unsat -> Ok false
  | Asp.Engine.Unknown -> Error `Step_limit

let similar ?opts ?max_steps g1 g2 =
  match similar_checked ?opts ?max_steps g1 g2 with Ok b -> b | Error `Step_limit -> false

let decode g1 outcome =
  match outcome with
  | Asp.Engine.Model { cost; atoms; optimal = true } ->
      Ok (Some (Matching.of_pairs g1 (Asp.Engine.matching_of_atoms atoms) cost))
  | Asp.Engine.Model { optimal = false; _ } | Asp.Engine.Unknown -> Error `Step_limit
  | Asp.Engine.Unsat -> Ok None

let iso_min_cost_checked ?opts ?max_steps g1 g2 =
  decode g1 (run_task ?opts ?max_steps ~memo:"generalization" ~find_optimal:true Generalization g1 g2)

let sub_iso_min_cost_checked ?opts ?max_steps g1 g2 =
  decode g1 (run_task ?opts ?max_steps ~memo:"comparison" ~find_optimal:true Comparison g1 g2)

(* The unchecked entry points keep the historical behaviour (a limited
   non-optimal model is still returned; [Unknown] maps to [None]). *)
let unchecked ?opts ?max_steps memo task g1 g2 =
  match run_task ?opts ?max_steps ~memo ~find_optimal:true task g1 g2 with
  | Asp.Engine.Model { cost; atoms; optimal = _ } ->
      Some (Matching.of_pairs g1 (Asp.Engine.matching_of_atoms atoms) cost)
  | Asp.Engine.Unsat | Asp.Engine.Unknown -> None

let iso_min_cost ?opts ?max_steps g1 g2 = unchecked ?opts ?max_steps "generalization" Generalization g1 g2

let sub_iso_min_cost ?opts ?max_steps g1 g2 = unchecked ?opts ?max_steps "comparison" Comparison g1 g2
