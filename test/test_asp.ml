open Pgraph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_similarity () =
  let rules = Asp.Parser.parse_program Asp.Listings.similarity in
  check_int "rule count" 12 (List.length rules);
  let choices = List.filter (function Asp.Rule.Choice _ -> true | _ -> false) rules in
  let constraints = List.filter (function Asp.Rule.Constraint _ -> true | _ -> false) rules in
  check_int "choice rules" 4 (List.length choices);
  check_int "constraints" 8 (List.length constraints);
  Alcotest.(check (list string)) "open predicate" [ "h" ] (Asp.Rule.open_predicates rules)

let test_parse_subgraph () =
  let rules = Asp.Parser.parse_program Asp.Listings.subgraph in
  check_int "rule count" 12 (List.length rules);
  let defines = List.filter (function Asp.Rule.Define _ -> true | _ -> false) rules in
  let minimizes = List.filter (function Asp.Rule.Minimize _ -> true | _ -> false) rules in
  check_int "cost rules" 3 (List.length defines);
  check_int "minimize statements" 1 (List.length minimizes);
  Alcotest.(check (list string)) "open predicates" [ "h"; "cost" ] (Asp.Rule.open_predicates rules)

let test_parse_roundtrip () =
  (* Printing a parsed program and reparsing yields the same AST. *)
  let rules = Asp.Parser.parse_program Asp.Listings.subgraph in
  let text = Asp.Rule.program_to_string rules in
  let rules' = Asp.Parser.parse_program text in
  check_bool "roundtrip" true (rules = rules')

let test_parse_errors () =
  let expect_fail s =
    match Asp.Parser.parse_program s with
    | exception Asp.Parser.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" s
  in
  List.iter expect_fail
    [ "h(X,Y)"; ":- h(X."; "{h(X,Y) : n2(Y,_)} :- n1(X,_)."; "#maximize { X : f(X) }."; "<>" ]

(* ------------------------------------------------------------------ *)
(* Grounding + solving small hand-written programs                     *)
(* ------------------------------------------------------------------ *)

let base_of s = Datalog.Parser.parse_base s

let run ?find_optimal program facts = Asp.Engine.run ?find_optimal ~program ~facts:(base_of facts) ()

let test_exactly_one_choice () =
  (* Two candidates, pick exactly one. *)
  match run "{pick(X) : item(X)} = 1." "item(a). item(b)." with
  | Asp.Engine.Model { atoms; cost; _ } ->
      check_int "one atom" 1 (List.length atoms);
      check_int "no cost" 0 cost
  | _ -> Alcotest.fail "expected model"

let test_choice_unsat_when_no_candidates () =
  match run "{pick(X) : item(X)} = 1 :- trigger." "trigger." with
  | Asp.Engine.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat: empty candidate pool"

let test_constraint_prunes () =
  match run "{pick(X) : item(X)} = 1. :- pick(a)." "item(a). item(b)." with
  | Asp.Engine.Model { atoms; _ } ->
      check_bool "picked b" true
        (List.exists (fun f -> Datalog.Fact.string_of_term (List.hd f.Datalog.Fact.args) = "b") atoms)
  | _ -> Alcotest.fail "expected model"

let test_static_unsat () =
  match run ":- bad." "bad." with
  | Asp.Engine.Unsat -> ()
  | _ -> Alcotest.fail "expected static unsat"

let test_constraint_vacuous () =
  match run "{p(X) : d(X)} = 1. :- bad." "d(a)." with
  | Asp.Engine.Model _ -> ()
  | _ -> Alcotest.fail "constraint on absent closed fact should be vacuous"

let test_minimize_prefers_cheap () =
  let program =
    {|
{pick(X) : item(X)} = 1.
penalty(X,1) :- pick(X), expensive(X).
#minimize { W,X : penalty(X,W) }.
|}
  in
  match run program "item(a). item(b). expensive(a)." with
  | Asp.Engine.Model { atoms; cost; optimal } ->
      check_int "cost zero" 0 cost;
      check_bool "optimal" true optimal;
      check_bool "picked cheap item" true
        (List.exists
           (fun f ->
             f.Datalog.Fact.pred = "pick"
             && Datalog.Fact.string_of_term (List.hd f.Datalog.Fact.args) = "b")
           atoms)
  | _ -> Alcotest.fail "expected model"

let test_minimize_unavoidable_cost () =
  let program =
    {|
{pick(X) : item(X)} = 1.
penalty(X,1) :- pick(X), expensive(X).
#minimize { W,X : penalty(X,W) }.
|}
  in
  match run program "item(a). item(b). expensive(a). expensive(b)." with
  | Asp.Engine.Model { cost; _ } -> check_int "cost one" 1 cost
  | _ -> Alcotest.fail "expected model"

let test_neq_builtin () =
  (* Pick two distinct items via two choice rules and a <> constraint. *)
  let program =
    {|
{first(X) : item(X)} = 1.
{second(X) : item(X)} = 1.
:- first(X), second(X).
|}
  in
  match run program "item(a). item(b)." with
  | Asp.Engine.Model { atoms; _ } ->
      let names p =
        List.filter_map
          (fun f ->
            if f.Datalog.Fact.pred = p then Some (Datalog.Fact.string_of_term (List.hd f.Datalog.Fact.args))
            else None)
          atoms
      in
      check_bool "distinct picks" true (names "first" <> names "second")
  | _ -> Alcotest.fail "expected model"

let test_cardinality_two () =
  (* Exactly two of four candidates. *)
  match run "{pick(X) : item(X)} = 2." "item(a). item(b). item(c). item(d)." with
  | Asp.Engine.Model { atoms; _ } -> check_int "two picked" 2 (List.length atoms)
  | _ -> Alcotest.fail "expected model"

let test_cardinality_two_with_constraint () =
  match run "{pick(X) : item(X)} = 2. :- pick(a), pick(b)." "item(a). item(b). item(c)." with
  | Asp.Engine.Model { atoms; _ } ->
      let names =
        List.map (fun f -> Datalog.Fact.string_of_term (List.hd f.Datalog.Fact.args)) atoms
      in
      check_bool "a and b not both picked" false (List.mem "a" names && List.mem "b" names)
  | _ -> Alcotest.fail "expected model"

let test_cardinality_unsatisfiable () =
  match run "{pick(X) : item(X)} = 3." "item(a). item(b)." with
  | Asp.Engine.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat: not enough candidates"

let test_show_filters_model () =
  let program = {|
{pick(X) : item(X)} = 1.
{also(X) : item(X)} = 1.
#show pick/1.
|} in
  match run program "item(a)." with
  | Asp.Engine.Model { atoms; _ } ->
      check_int "only shown predicate" 1 (List.length atoms);
      check_bool "pick survives" true
        (List.for_all (fun f -> f.Datalog.Fact.pred = "pick") atoms)
  | _ -> Alcotest.fail "expected model"

let test_show_roundtrip () =
  let rules = Asp.Parser.parse_program "#show h/2." in
  check_bool "parsed" true (rules = [ Asp.Rule.Show ("h", 2) ]);
  check_bool "roundtrip" true (Asp.Parser.parse_program (Asp.Rule.program_to_string rules) = rules)

let test_step_limit () =
  (* A large pigeonhole-ish instance with a tiny decision budget must
     stop early rather than hang: Unknown (no model found yet) or a
     non-optimal model are both acceptable. *)
  let program = "{pick(X,Y) : slot(Y)} = 1 :- item(X). :- X <> Z, pick(X,Y), pick(Z,Y)." in
  let facts =
    String.concat " "
      (List.init 12 (fun i -> Printf.sprintf "item(i%d)." i)
      @ List.init 12 (fun i -> Printf.sprintf "slot(s%d)." i))
  in
  match
    Asp.Engine.run ~max_steps:3 ~program ~facts:(Datalog.Parser.parse_base facts) ()
  with
  | Asp.Engine.Unknown -> ()
  | Asp.Engine.Model { optimal; _ } -> check_bool "not proved optimal" false optimal
  | Asp.Engine.Unsat -> Alcotest.fail "must not conclude unsat under a step limit"

let test_ground_introspection () =
  let rules = Asp.Parser.parse_program "{pick(X) : item(X)} = 1. :- pick(a)." in
  let g = Asp.Ground.ground rules (Datalog.Parser.parse_base "item(a). item(b).") in
  check_int "atoms" 2 g.Asp.Ground.atom_count;
  check_int "one group" 1 (List.length g.Asp.Ground.groups);
  check_int "one clause" 1 (List.length g.Asp.Ground.clauses);
  check_int "pick atoms listed" 2 (List.length (Asp.Ground.atoms_with_pred g "pick"))

let test_unsafe_rule_rejected () =
  match run ":- X <> Y." "" with
  | exception Asp.Ground.Ground_error _ -> ()
  | _ -> Alcotest.fail "expected ground error for unsafe rule"

(* ------------------------------------------------------------------ *)
(* Optimization with priorities, and classic encodings                 *)
(* ------------------------------------------------------------------ *)

let test_minimize_priorities_lexicographic () =
  (* Level 2 dominates: picking b costs (0@2, 5@1); picking a costs
     (1@2, 0@1).  Lexicographically b wins despite the bigger level-1
     cost. *)
  let program =
    {|
{pick(X) : item(X)} = 1.
high(X,1) :- pick(X), bad_high(X).
low(X,5) :- pick(X), bad_low(X).
#minimize { W@2,X : high(X,W) }.
#minimize { W@1,X : low(X,W) }.
|}
  in
  match run program "item(a). item(b). bad_high(a). bad_low(b)." with
  | Asp.Engine.Model { atoms; cost; _ } ->
      check_int "total cost 5 (level 1 only)" 5 cost;
      check_bool "picked b" true
        (List.exists
           (fun f ->
             f.Datalog.Fact.pred = "pick"
             && Datalog.Fact.string_of_term (List.hd f.Datalog.Fact.args) = "b")
           atoms)
  | _ -> Alcotest.fail "expected model"

let test_priority_roundtrip () =
  let rules = Asp.Parser.parse_program "#minimize { W@3,X : c(X,W) }." in
  check_bool "priority parsed" true
    (match rules with [ Asp.Rule.Minimize m ] -> m.Asp.Rule.priority = 3 | _ -> false);
  check_bool "roundtrip" true (Asp.Parser.parse_program (Asp.Rule.program_to_string rules) = rules)

let test_graph_coloring () =
  (* Classic 3-coloring of a 4-cycle: satisfiable with 2 colors. *)
  let program =
    {|
{color(N,C) : col(C)} = 1 :- node(N).
:- edge(X,Y), color(X,C), color(Y,C).
|}
  in
  let facts = "node(a). node(b). node(c). node(d). edge(a,b). edge(b,c). edge(c,d). edge(d,a). col(red). col(blue)." in
  (match run program facts with
  | Asp.Engine.Model { atoms; _ } ->
      check_int "every node colored" 4 (List.length atoms);
      (* Verify no monochromatic edge. *)
      let color_of n =
        List.find_map
          (fun f ->
            match f.Datalog.Fact.args with
            | [ x; c ] when Datalog.Fact.string_of_term x = n ->
                Some (Datalog.Fact.string_of_term c)
            | _ -> None)
          atoms
      in
      List.iter
        (fun (x, y) -> check_bool "proper coloring" false (color_of x = color_of y))
        [ ("a", "b"); ("b", "c"); ("c", "d"); ("d", "a") ]
  | _ -> Alcotest.fail "4-cycle is 2-colorable");
  (* A triangle is not 2-colorable. *)
  match run program "node(a). node(b). node(c). edge(a,b). edge(b,c). edge(a,c). col(red). col(blue)." with
  | Asp.Engine.Unsat -> ()
  | _ -> Alcotest.fail "triangle must not be 2-colorable"

let test_weighted_vertex_cover () =
  (* Each vertex is in or out of the cover; every edge needs a covered
     endpoint; minimize the covered weight. *)
  let program =
    {|
{cover(V,S) : state(S)} = 1 :- vertex(V,_).
:- edge(X,Y), cover(X,out), cover(Y,out).
penalty(V,W) :- cover(V,yes), vertex(V,W).
#minimize { W,V : penalty(V,W) }.
|}
  in
  (* Path a-b-c with weights 1, 10, 1: optimal cover is {a, c} (2), not {b} (10). *)
  match
    run program
      "state(yes). state(out). vertex(a,1). vertex(b,10). vertex(c,1). edge(a,b). edge(b,c)."
  with
  | Asp.Engine.Model { cost; atoms; _ } ->
      check_int "optimal weight" 2 cost;
      let cover =
        List.filter_map
          (fun f ->
            match f.Datalog.Fact.args with
            | [ v; yes ]
              when f.Datalog.Fact.pred = "cover"
                   && Datalog.Fact.equal_term yes (Datalog.Fact.Sym "yes") ->
                Some (Datalog.Fact.string_of_term v)
            | _ -> None)
          atoms
      in
      Alcotest.(check (list string)) "cover" [ "a"; "c" ] (List.sort String.compare cover)
  | _ -> Alcotest.fail "expected model"

(* ------------------------------------------------------------------ *)
(* Datalog evaluation                                                  *)
(* ------------------------------------------------------------------ *)

let eval_query program facts pred =
  Asp.Eval.query (Asp.Parser.parse_program program) (Datalog.Parser.parse_base facts) pred

let test_eval_transitive_closure () =
  let program = "reach(X,Y) :- edge(X,Y). reach(X,Z) :- reach(X,Y), edge(Y,Z)." in
  let facts = "edge(a,b). edge(b,c). edge(c,d)." in
  check_int "closure of a 4-chain" 6 (List.length (eval_query program facts "reach"))

let test_eval_cycle_converges () =
  let program = "reach(X,Y) :- edge(X,Y). reach(X,Z) :- reach(X,Y), edge(Y,Z)." in
  let facts = "edge(a,b). edge(b,a)." in
  (* a->a, a->b, b->a, b->b *)
  check_int "cycle closure" 4 (List.length (eval_query program facts "reach"))

let test_eval_builtin_filter () =
  let program = "sibling(X,Y) :- parent(X,P), parent(Y,P), X <> Y." in
  let facts = "parent(a,p). parent(b,p). parent(c,q)." in
  check_int "one unordered pair, both directions" 2 (List.length (eval_query program facts "sibling"))

let test_eval_negation () =
  let program = "connected(X) :- edge(X,_). isolated(X) :- node(X), not connected(X)." in
  let facts = "node(a). node(b). edge(a,c). node(c)." in
  let isolated = eval_query program facts "isolated" in
  let names = List.map (fun f -> Datalog.Fact.string_of_term (List.hd f.Datalog.Fact.args)) isolated in
  check_bool "b isolated" true (List.mem "b" names);
  check_bool "c isolated (no outgoing edge)" true (List.mem "c" names);
  check_bool "a connected" false (List.mem "a" names)

let test_eval_fact_rules () =
  check_int "bare facts derive" 2 (List.length (eval_query "f(a). f(b) :- g." "g." "f"))

let test_eval_rejects_choice () =
  match eval_query "{pick(X) : item(X)} = 1." "item(a)." "pick" with
  | exception Asp.Eval.Eval_error _ -> ()
  | _ -> Alcotest.fail "choice rules must be rejected by Eval"

let test_eval_rejects_unsafe_head () =
  match eval_query "out(X,Y) :- f(X)." "f(a)." "out" with
  | exception Asp.Eval.Eval_error _ -> ()
  | _ -> Alcotest.fail "unsafe head variable must be rejected"

let test_eval_string_constants () =
  let program = {|named(F) :- p(F,"key","the value").|} in
  let facts = {|p(f1,"key","the value"). p(f2,"key","other").|} in
  check_int "string constants matched" 1 (List.length (eval_query program facts "named"))

(* ------------------------------------------------------------------ *)
(* Listings on real graphs                                             *)
(* ------------------------------------------------------------------ *)

let props = Props.of_list

let chain labels =
  (* n0 -l0-> n1 -l1-> n2 ... *)
  let g = ref Graph.empty in
  List.iteri
    (fun i _ -> g := Graph.add_node !g ~id:(Printf.sprintf "n%d" i) ~label:"node" ~props:Props.empty)
    (() :: List.map (fun _ -> ()) labels);
  List.iteri
    (fun i l ->
      g :=
        Graph.add_edge !g
          ~id:(Printf.sprintf "e%d" i)
          ~src:(Printf.sprintf "n%d" i)
          ~tgt:(Printf.sprintf "n%d" (i + 1))
          ~label:l ~props:Props.empty)
    labels;
  !g

let encode g1 g2 =
  Datalog.Base.union
    (Datalog.Encode.graph_to_base ~gid:"1" g1)
    (Datalog.Encode.graph_to_base ~gid:"2" g2)

let solve_listing program g1 g2 =
  Asp.Engine.run ~program ~facts:(encode g1 g2) ()

let test_similarity_identical () =
  let g = chain [ "a"; "b" ] in
  match solve_listing Asp.Listings.similarity g (Helpers.rename_with_prefix "r" g) with
  | Asp.Engine.Model { atoms; _ } ->
      let pairs = Asp.Engine.matching_of_atoms atoms in
      check_int "all elements matched" (Graph.size g) (List.length pairs)
  | _ -> Alcotest.fail "identical chains must be similar"

let test_similarity_label_mismatch () =
  match solve_listing Asp.Listings.similarity (chain [ "a"; "b" ]) (chain [ "a"; "c" ]) with
  | Asp.Engine.Unsat -> ()
  | _ -> Alcotest.fail "different edge labels must not be similar"

let test_similarity_size_mismatch () =
  match solve_listing Asp.Listings.similarity (chain [ "a" ]) (chain [ "a"; "a" ]) with
  | Asp.Engine.Unsat -> ()
  | _ -> Alcotest.fail "different sizes must not be similar"

let test_subgraph_embedding () =
  (* chain a->b embeds into chain a->b->c *)
  match solve_listing Asp.Listings.subgraph (chain [ "a"; "b" ]) (chain [ "a"; "b"; "c" ]) with
  | Asp.Engine.Model { cost; _ } -> check_int "no property cost" 0 cost
  | _ -> Alcotest.fail "expected embedding"

let test_subgraph_no_embedding () =
  match solve_listing Asp.Listings.subgraph (chain [ "z" ]) (chain [ "a"; "b" ]) with
  | Asp.Engine.Unsat -> ()
  | _ -> Alcotest.fail "no embedding should exist"

let test_subgraph_property_cost () =
  (* Two one-node graphs; left node has 2 properties, right shares 1. *)
  let g1 = Graph.add_node Graph.empty ~id:"x" ~label:"n" ~props:(props [ ("k1", "v"); ("k2", "v") ]) in
  let g2 = Graph.add_node Graph.empty ~id:"y" ~label:"n" ~props:(props [ ("k1", "v"); ("k3", "w") ]) in
  match solve_listing Asp.Listings.subgraph g1 g2 with
  | Asp.Engine.Model { cost; _ } -> check_int "one mismatched property" 1 cost
  | _ -> Alcotest.fail "expected model"

let test_subgraph_picks_min_cost_target () =
  (* Left node can map to two right nodes; one matches its property. *)
  let g1 = Graph.add_node Graph.empty ~id:"x" ~label:"n" ~props:(props [ ("k", "v") ]) in
  let g2 = Graph.add_node Graph.empty ~id:"y1" ~label:"n" ~props:(props [ ("k", "other") ]) in
  let g2 = Graph.add_node g2 ~id:"y2" ~label:"n" ~props:(props [ ("k", "v") ]) in
  match solve_listing Asp.Listings.subgraph g1 g2 with
  | Asp.Engine.Model { cost; atoms; _ } ->
      check_int "zero cost" 0 cost;
      check_bool "mapped to matching node" true
        (List.mem ("x", "y2") (Asp.Engine.matching_of_atoms atoms))
  | _ -> Alcotest.fail "expected model"

let test_subgraph_structure_respected () =
  (* The injective map must preserve edge endpoints, not just labels:
     g1: a->b edge; g2 has nodes with the right labels but the edge in
     the wrong direction. *)
  let mk dir =
    let g = Graph.add_node Graph.empty ~id:"p" ~label:"proc" ~props:Props.empty in
    let g = Graph.add_node g ~id:"f" ~label:"file" ~props:Props.empty in
    if dir then Graph.add_edge g ~id:"e" ~src:"p" ~tgt:"f" ~label:"used" ~props:Props.empty
    else Graph.add_edge g ~id:"e" ~src:"f" ~tgt:"p" ~label:"used" ~props:Props.empty
  in
  match solve_listing Asp.Listings.subgraph (mk true) (mk false) with
  | Asp.Engine.Unsat -> ()
  | _ -> Alcotest.fail "reversed edge must not embed"

(* ------------------------------------------------------------------ *)
(* Randomized reference check of the watched-literal solver            *)
(* ------------------------------------------------------------------ *)

(* Builds a random ground instance directly, respecting the invariant
   {!Asp.Ground.ground} establishes: every atom belongs to a cardinality
   group (choice heads are the only open atoms). *)
let random_instance seed =
  let st = Random.State.make [| seed; 0x9e3779b9 |] in
  let n = 1 + Random.State.int st 7 in
  let atom_names = Array.init n (fun i -> Datalog.Fact.make "a" [ Datalog.Fact.Int i ]) in
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let rec chunks i =
    if i >= n then []
    else
      let size = min (n - i) (1 + Random.State.int st 3) in
      let atoms = List.init size (fun k -> perm.(i + k)) in
      { Asp.Ground.atoms; bound = Random.State.int st (size + 1) } :: chunks (i + size)
  in
  let groups = chunks 0 in
  let rand_lit () = (Random.State.int st n, Random.State.bool st) in
  let clauses =
    List.init (Random.State.int st 5) (fun _ ->
        List.init (1 + Random.State.int st 3) (fun _ -> rand_lit ()))
  in
  let costs =
    List.init (Random.State.int st 4) (fun _ ->
        {
          Asp.Ground.weight = 1 + Random.State.int st 3;
          level = Random.State.int st 2;
          disj = List.init (1 + Random.State.int st 2) (fun _ -> Random.State.int st n);
        })
  in
  let atoms_by_pred = Hashtbl.create 1 in
  Hashtbl.replace atoms_by_pred "a"
    (List.init n (fun i -> (i, atom_names.(i))));
  {
    Asp.Ground.atom_count = n;
    atom_names;
    atoms_by_pred;
    clauses;
    groups;
    costs;
    base_costs = (if Random.State.bool st then [ (0, 1) ] else []);
    statically_unsat = false;
  }

let assignment_valid (g : Asp.Ground.t) value =
  List.for_all (List.exists (fun (a, want) -> value.(a) = want)) g.Asp.Ground.clauses
  && List.for_all
       (fun (grp : Asp.Ground.group) ->
         List.length (List.filter (fun a -> value.(a)) grp.Asp.Ground.atoms)
         = grp.Asp.Ground.bound)
       g.Asp.Ground.groups

(* Brute-force optimum: the lexicographically minimal cost vector over
   descending #minimize levels, as an int list (so polymorphic compare
   is the lexicographic order the solver uses). *)
let reference_solve (g : Asp.Ground.t) =
  let n = g.Asp.Ground.atom_count in
  let levels =
    List.sort_uniq
      (fun a b -> compare b a)
      (List.map (fun (c : Asp.Ground.cost_group) -> c.Asp.Ground.level) g.Asp.Ground.costs
      @ List.map fst g.Asp.Ground.base_costs)
  in
  let cost_vector value =
    List.map
      (fun l ->
        let base =
          List.fold_left
            (fun acc (l', w) -> if l' = l then acc + w else acc)
            0 g.Asp.Ground.base_costs
        in
        List.fold_left
          (fun acc (c : Asp.Ground.cost_group) ->
            if c.Asp.Ground.level = l && List.exists (fun a -> value.(a)) c.Asp.Ground.disj
            then acc + c.Asp.Ground.weight
            else acc)
          base g.Asp.Ground.costs)
      levels
  in
  let best = ref None in
  for mask = 0 to (1 lsl n) - 1 do
    let value = Array.init n (fun i -> mask land (1 lsl i) <> 0) in
    if assignment_valid g value then
      let cv = cost_vector value in
      match !best with Some b when compare b cv <= 0 -> () | _ -> best := Some cv
  done;
  !best

let value_of_model (g : Asp.Ground.t) atoms =
  let value = Array.make g.Asp.Ground.atom_count false in
  List.iter
    (fun f ->
      match f.Datalog.Fact.args with
      | [ Datalog.Fact.Int i ] -> value.(i) <- true
      | _ -> ())
    atoms;
  value

let prop_solver_matches_reference =
  Helpers.qcheck ~count:300 "watched-literal solver matches brute force"
    QCheck.(small_nat)
    (fun seed ->
      let g = random_instance seed in
      let expected = reference_solve g in
      let optimal_ok =
        match (Asp.Solver.solve g, expected) with
        | Asp.Solver.Unsat, None -> true
        | Asp.Solver.Model { cost; atoms; optimal = true }, Some cv ->
            cost = List.fold_left ( + ) 0 cv && assignment_valid g (value_of_model g atoms)
        | _ -> false
      in
      let first_model_ok =
        match (Asp.Solver.solve ~find_optimal:false g, expected) with
        | Asp.Solver.Unsat, None -> true
        | Asp.Solver.Model { atoms; _ }, Some _ -> assignment_valid g (value_of_model g atoms)
        | _ -> false
      in
      optimal_ok && first_model_ok)

let test_solver_stats_count () =
  Asp.Solver.reset_stats ();
  (match run "{pick(X) : item(X)} = 1. :- pick(a)." "item(a). item(b)." with
  | Asp.Engine.Model _ -> ()
  | _ -> Alcotest.fail "expected model");
  let s = Asp.Solver.stats () in
  check_bool "propagations counted" true (s.Asp.Solver.propagations > 0)

let () =
  Alcotest.run "asp"
    [
      ( "parser",
        [
          Alcotest.test_case "listing 3 parses" `Quick test_parse_similarity;
          Alcotest.test_case "listing 4 parses" `Quick test_parse_subgraph;
          Alcotest.test_case "print/parse roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "solver",
        [
          Alcotest.test_case "exactly-one choice" `Quick test_exactly_one_choice;
          Alcotest.test_case "empty candidate pool unsat" `Quick test_choice_unsat_when_no_candidates;
          Alcotest.test_case "constraint prunes" `Quick test_constraint_prunes;
          Alcotest.test_case "static unsat" `Quick test_static_unsat;
          Alcotest.test_case "vacuous constraint" `Quick test_constraint_vacuous;
          Alcotest.test_case "minimize prefers cheap model" `Quick test_minimize_prefers_cheap;
          Alcotest.test_case "unavoidable cost reported" `Quick test_minimize_unavoidable_cost;
          Alcotest.test_case "distinctness constraint" `Quick test_neq_builtin;
          Alcotest.test_case "unsafe rule rejected" `Quick test_unsafe_rule_rejected;
          Alcotest.test_case "cardinality two" `Quick test_cardinality_two;
          Alcotest.test_case "cardinality with constraint" `Quick test_cardinality_two_with_constraint;
          Alcotest.test_case "cardinality unsatisfiable" `Quick test_cardinality_unsatisfiable;
          Alcotest.test_case "#show filters models" `Quick test_show_filters_model;
          Alcotest.test_case "#show parse roundtrip" `Quick test_show_roundtrip;
          Alcotest.test_case "step limit stops early" `Quick test_step_limit;
          Alcotest.test_case "ground introspection" `Quick test_ground_introspection;
          Alcotest.test_case "search stats counted" `Quick test_solver_stats_count;
          prop_solver_matches_reference;
        ] );
      ( "optimization",
        [
          Alcotest.test_case "lexicographic priorities" `Quick test_minimize_priorities_lexicographic;
          Alcotest.test_case "priority parse roundtrip" `Quick test_priority_roundtrip;
          Alcotest.test_case "graph coloring" `Quick test_graph_coloring;
          Alcotest.test_case "weighted vertex cover" `Quick test_weighted_vertex_cover;
        ] );
      ( "eval",
        [
          Alcotest.test_case "transitive closure" `Quick test_eval_transitive_closure;
          Alcotest.test_case "cycles converge" `Quick test_eval_cycle_converges;
          Alcotest.test_case "builtins filter" `Quick test_eval_builtin_filter;
          Alcotest.test_case "stratified negation" `Quick test_eval_negation;
          Alcotest.test_case "bare facts" `Quick test_eval_fact_rules;
          Alcotest.test_case "choice rejected" `Quick test_eval_rejects_choice;
          Alcotest.test_case "unsafe head rejected" `Quick test_eval_rejects_unsafe_head;
          Alcotest.test_case "string constants" `Quick test_eval_string_constants;
        ] );
      ( "listings",
        [
          Alcotest.test_case "similarity of identical graphs" `Quick test_similarity_identical;
          Alcotest.test_case "similarity rejects label mismatch" `Quick test_similarity_label_mismatch;
          Alcotest.test_case "similarity rejects size mismatch" `Quick test_similarity_size_mismatch;
          Alcotest.test_case "subgraph embedding" `Quick test_subgraph_embedding;
          Alcotest.test_case "subgraph rejects missing labels" `Quick test_subgraph_no_embedding;
          Alcotest.test_case "property mismatch cost" `Quick test_subgraph_property_cost;
          Alcotest.test_case "optimal target choice" `Quick test_subgraph_picks_min_cost_target;
          Alcotest.test_case "edge direction respected" `Quick test_subgraph_structure_respected;
        ] );
    ]
