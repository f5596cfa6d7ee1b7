exception Decode_error of string

let node_pred gid = "n" ^ gid
let edge_pred gid = "e" ^ gid
let prop_pred gid = "p" ^ gid

let graph_to_facts ~gid g =
  let open Pgraph in
  let node_facts =
    List.map
      (fun (n : Graph.node) ->
        Fact.make (node_pred gid) [ Fact.sym_of_string n.Graph.node_id; Fact.Str n.Graph.node_label ])
      (Graph.nodes g)
  in
  let edge_facts =
    List.map
      (fun (e : Graph.edge) ->
        Fact.make (edge_pred gid)
          [
            Fact.sym_of_string e.Graph.edge_id;
            Fact.sym_of_string e.Graph.edge_src;
            Fact.sym_of_string e.Graph.edge_tgt;
            Fact.Str e.Graph.edge_label;
          ])
      (Graph.edges g)
  in
  let props_of id props =
    Props.fold
      (fun k v acc -> Fact.make (prop_pred gid) [ Fact.sym_of_string id; Fact.Str k; Fact.Str v ] :: acc)
      props []
  in
  let prop_facts =
    List.concat_map (fun (n : Graph.node) -> props_of n.Graph.node_id n.Graph.node_props) (Graph.nodes g)
    @ List.concat_map (fun (e : Graph.edge) -> props_of e.Graph.edge_id e.Graph.edge_props) (Graph.edges g)
  in
  node_facts @ edge_facts @ prop_facts

let graph_to_base ~gid g = Base.of_list (graph_to_facts ~gid g)

(* The store and digest paths render and read fact text directly, with
   no [Fact.t] records and no fact sets.  The text is byte-identical to
   [Base.to_string (graph_to_base ~gid g)], and [graph_of_string]
   returns, or raises, what decoding [Parser.parse_base s] fact by fact
   would (the tests keep that decoder as the oracle). *)

(* An identifier as [Fact.sym_of_string] prints it. *)
let add_id b s = if Fact.is_bare s then Buffer.add_string b s else Fact.add_quoted b s

(* [Base] orders a predicate's facts by their arguments, a bare
   constant before a quoted one.  Identifiers are unique, so the first
   argument decides: bare ids in [String.compare] order, then quoted
   ones. *)
let bare_first id xs =
  let bare, quoted = List.partition (fun x -> Fact.is_bare (id x)) xs in
  bare @ quoted

let compare_ids a b =
  match (Fact.is_bare a, Fact.is_bare b) with
  | true, false -> -1
  | false, true -> 1
  | _ -> String.compare a b

let graph_to_string ~gid g =
  let open Pgraph in
  let b = Buffer.create (64 * (Graph.size g + 1)) in
  let start pred =
    Buffer.add_string b pred;
    Buffer.add_char b '('
  in
  let finish () = Buffer.add_string b ").\n" in
  let nodes = bare_first (fun (n : Graph.node) -> n.Graph.node_id) (Graph.nodes g) in
  let edges = bare_first (fun (e : Graph.edge) -> e.Graph.edge_id) (Graph.edges g) in
  (* Predicates in [String.compare] order: e<gid>, n<gid>, p<gid>. *)
  let ep = edge_pred gid in
  List.iter
    (fun (e : Graph.edge) ->
      start ep;
      add_id b e.Graph.edge_id;
      Buffer.add_char b ',';
      add_id b e.Graph.edge_src;
      Buffer.add_char b ',';
      add_id b e.Graph.edge_tgt;
      Buffer.add_char b ',';
      Fact.add_quoted b e.Graph.edge_label;
      finish ())
    edges;
  let np = node_pred gid in
  List.iter
    (fun (n : Graph.node) ->
      start np;
      add_id b n.Graph.node_id;
      Buffer.add_char b ',';
      Fact.add_quoted b n.Graph.node_label;
      finish ())
    nodes;
  let pp = prop_pred gid in
  let elements =
    List.merge
      (fun (x, _) (y, _) -> compare_ids x y)
      (List.map (fun (n : Graph.node) -> (n.Graph.node_id, n.Graph.node_props)) nodes)
      (List.map (fun (e : Graph.edge) -> (e.Graph.edge_id, e.Graph.edge_props)) edges)
  in
  List.iter
    (fun (id, props) ->
      Props.iter
        (fun k v ->
          start pp;
          add_id b id;
          Buffer.add_char b ',';
          Fact.add_quoted b k;
          Buffer.add_char b ',';
          Fact.add_quoted b v;
          finish ())
        props)
    elements;
  (* [Base.to_string] of no facts is a lone newline. *)
  if Buffer.length b = 0 then Buffer.add_char b '\n';
  Buffer.contents b

(* Parsed arguments in [Fact.compare]'s order. *)
let compare_args = List.compare Fact.compare_term

(* One predicate's facts, collected in reverse text order, noting whether
   the text listed them strictly ascending (as [graph_to_string] writes
   them) so that [ordered] sorts and removes duplicates only when not. *)
type facts = { mutable rev : Fact.term list list; mutable ascending : bool }

let collect () = { rev = []; ascending = true }

let push fs args =
  (match fs.rev with
  | prev :: _ when compare_args prev args >= 0 -> fs.ascending <- false
  | _ -> ());
  fs.rev <- args :: fs.rev

let ordered fs = if fs.ascending then List.rev fs.rev else List.sort_uniq compare_args fs.rev

let graph_of_string ~gid s =
  let open Pgraph in
  let fail fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt in
  let np = node_pred gid and ep = edge_pred gid and pp = prop_pred gid in
  let node_facts = collect () and edge_facts = collect () and prop_facts = collect () in
  Parser.fold_facts
    (fun pred args () ->
      if String.equal pred np then push node_facts args
      else if String.equal pred ep then push edge_facts args
      else if String.equal pred pp then push prop_facts args)
    () s;
  let prop_facts = ordered prop_facts in
  (* Each element's properties, added in fact order so that a repeated
     key keeps its last value, as successive [Props.add]s would. *)
  let props = Hashtbl.create 64 in
  let malformed_props = ref false in
  List.iter
    (function
      | [ id; key; value ] ->
          let id = Fact.string_of_term id in
          let current = Option.value (Hashtbl.find_opt props id) ~default:Props.empty in
          Hashtbl.replace props id (Props.add (Fact.string_of_term key) (Fact.string_of_term value) current)
      | _ -> malformed_props := true)
    prop_facts;
  let attached = ref 0 in
  let props_of id =
    match Hashtbl.find_opt props id with
    | Some p ->
        incr attached;
        p
    | None -> Props.empty
  in
  let g = Graph.Builder.create () in
  List.iter
    (fun args ->
      match args with
      | [ id; label ] ->
          let id = Fact.string_of_term id in
          Graph.Builder.add_node g ~id ~label:(Fact.string_of_term label) ~props:(props_of id)
      | _ -> fail "node fact %s has wrong shape" (Fact.to_string (Fact.make np args)))
    (ordered node_facts);
  List.iter
    (fun args ->
      match args with
      | [ id; src; tgt; label ] ->
          let src = Fact.string_of_term src and tgt = Fact.string_of_term tgt in
          if not (Graph.Builder.mem_node g src) then
            fail "edge %s refers to unknown source %s" (Fact.to_string (Fact.make ep args)) src;
          if not (Graph.Builder.mem_node g tgt) then
            fail "edge %s refers to unknown target %s" (Fact.to_string (Fact.make ep args)) tgt;
          let id = Fact.string_of_term id in
          Graph.Builder.add_edge g ~id ~src ~tgt ~label:(Fact.string_of_term label) ~props:(props_of id)
      | _ -> fail "edge fact %s has wrong shape" (Fact.to_string (Fact.make ep args)))
    (ordered edge_facts);
  if !malformed_props || !attached < Hashtbl.length props then
    (* Some property fact is at fault: report the first, in fact order. *)
    List.iter
      (fun args ->
        match args with
        | [ id; _; _ ] ->
            let id = Fact.string_of_term id in
            if not (Graph.Builder.mem_node g id || Graph.Builder.mem_edge g id) then
              fail "property fact %s refers to unknown element" (Fact.to_string (Fact.make pp args))
        | _ -> fail "property fact %s has wrong shape" (Fact.to_string (Fact.make pp args)))
      prop_facts;
  Graph.Builder.freeze g
