module Fact = Datalog.Fact

type outcome = Solver.outcome =
  | Unsat
  | Model of { cost : int; atoms : Fact.t list; optimal : bool }
  | Unknown

let compute_rules ?max_steps ?find_optimal ~rules ~facts () =
  let ground = Ground.ground rules facts in
  let shows =
    List.filter_map (function Rule.Show (p, n) -> Some (p, n) | _ -> None) rules
  in
  match Solver.solve ?max_steps ?find_optimal ground with
  | Model { cost; atoms; optimal } when shows <> [] ->
      let atoms =
        List.filter
          (fun (f : Fact.t) -> List.mem (f.Fact.pred, List.length f.Fact.args) shows)
          atoms
      in
      Model { cost; atoms; optimal }
  | outcome -> outcome

let run ?max_steps ?find_optimal ?memo ~program ~facts () =
  let rules = Parser.parse_program program in
  match memo with
  | Some tag ->
      (* Key on the facts the program can actually read: transient
         properties (pids, timestamps) vary between trials, but a
         shape-only program like Listings.similarity never consults
         them, so the restricted key lets those solves hit. *)
      let relevant = Datalog.Base.restrict facts (Rule.referenced_predicates rules) in
      let key =
        Memo.key ~program ~facts:relevant
          ~max_steps:(Option.value max_steps ~default:(-1))
          ~find_optimal:(Option.value find_optimal ~default:true)
      in
      Memo.find_or_compute ~tag ~key (fun () ->
          compute_rules ?max_steps ?find_optimal ~rules ~facts ())
  | None -> compute_rules ?max_steps ?find_optimal ~rules ~facts ()

let matching_of_atoms atoms =
  List.filter_map
    (fun (f : Fact.t) ->
      if String.equal f.Fact.pred Listings.matching_predicate then
        match f.Fact.args with
        | [ x; y ] -> Some (Fact.string_of_term x, Fact.string_of_term y)
        | _ -> None
      else None)
    atoms
