type node = { n_id : string; n_attrs : (string * string) list }
type edge = { e_src : string; e_tgt : string; e_attrs : (string * string) list }
type graph = { g_name : string; g_nodes : node list; g_edges : edge list }

exception Parse_error of { offset : int; reason : string }

let parse_fail offset fmt =
  Printf.ksprintf (fun reason -> raise (Parse_error { offset; reason })) fmt

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let attrs_to_string attrs =
  match attrs with
  | [] -> ""
  | _ ->
      " ["
      ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s=%s" (quote k) (quote v)) attrs)
      ^ "]"

let to_string g =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "digraph %s {\n" (quote g.g_name));
  List.iter
    (fun n -> Buffer.add_string b (Printf.sprintf "  %s%s;\n" (quote n.n_id) (attrs_to_string n.n_attrs)))
    g.g_nodes;
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "  %s -> %s%s;\n" (quote e.e_src) (quote e.e_tgt) (attrs_to_string e.e_attrs)))
    g.g_edges;
  Buffer.add_string b "}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

type token =
  | Tid of string
  | Tarrow
  | Tlbracket
  | Trbracket
  | Tlbrace
  | Trbrace
  | Teq
  | Tcomma
  | Tsemi

(* Tokens carry the byte offset they start at, so both lexical failures
   here and grammar failures in [of_string] locate themselves in the
   input — truncated or garbled DOT (a killed SPADE, an injected
   recorder fault) diagnoses as "reason at offset N", never as an
   unlocated exception. *)
let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let pos = ref 0 in
  let fail fmt = parse_fail !pos fmt in
  let emit start t = toks := (t, start) :: !toks in
  while !pos < n do
    let start = !pos in
    match src.[!pos] with
    | ' ' | '\t' | '\n' | '\r' -> incr pos
    | '{' -> emit start Tlbrace; incr pos
    | '}' -> emit start Trbrace; incr pos
    | '[' -> emit start Tlbracket; incr pos
    | ']' -> emit start Trbracket; incr pos
    | '=' -> emit start Teq; incr pos
    | ',' -> emit start Tcomma; incr pos
    | ';' -> emit start Tsemi; incr pos
    | '-' ->
        if !pos + 1 < n && src.[!pos + 1] = '>' then (
          emit start Tarrow;
          pos := !pos + 2)
        else fail "expected ->"
    | '"' ->
        incr pos;
        let b = Buffer.create 16 in
        let rec loop () =
          if !pos >= n then fail "unterminated string"
          else
            match src.[!pos] with
            | '"' -> incr pos
            | '\\' ->
                incr pos;
                if !pos >= n then fail "unterminated escape";
                (match src.[!pos] with
                | 'n' -> Buffer.add_char b '\n'
                | c -> Buffer.add_char b c);
                incr pos;
                loop ()
            | c ->
                Buffer.add_char b c;
                incr pos;
                loop ()
        in
        loop ();
        emit start (Tid (Buffer.contents b))
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' ->
        while
          !pos < n
          && match src.[!pos] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' -> true | _ -> false
        do
          incr pos
        done;
        emit start (Tid (String.sub src start (!pos - start)))
    | '/' ->
        (* // comment *)
        if !pos + 1 < n && src.[!pos + 1] = '/' then
          while !pos < n && src.[!pos] <> '\n' do
            incr pos
          done
        else fail "unexpected /"
    | c -> fail "unexpected character %C" c
  done;
  List.rev !toks

let of_string src =
  let toks = ref (tokenize src) in
  (* The offset blamed by a grammar failure: the offending token's
     start, or one past the input when it ended too early. *)
  let here () = match !toks with (_, off) :: _ -> off | [] -> String.length src in
  let fail fmt = parse_fail (here ()) fmt in
  let next () =
    match !toks with
    | [] -> fail "unexpected end of input"
    | (t, _) :: rest ->
        toks := rest;
        t
  in
  let peek () = match !toks with [] -> None | (t, _) :: _ -> Some t in
  let expect t = if next () <> t then fail "unexpected token" in
  (match next () with
  | Tid "digraph" -> ()
  | _ -> fail "expected digraph");
  let name = match next () with Tid s -> s | _ -> fail "expected graph name" in
  expect Tlbrace;
  let nodes = ref [] in
  let edges = ref [] in
  let parse_attrs () =
    match peek () with
    | Some Tlbracket ->
        ignore (next ());
        let rec loop acc =
          match next () with
          | Trbracket -> List.rev acc
          | Tid k -> (
              expect Teq;
              match next () with
              | Tid v -> (
                  match peek () with
                  | Some Tcomma ->
                      ignore (next ());
                      loop ((k, v) :: acc)
                  | _ -> loop ((k, v) :: acc))
              | _ -> fail "expected attribute value")
          | Tcomma -> loop acc
          | _ -> fail "expected attribute"
        in
        loop []
    | _ -> []
  in
  let rec stmts () =
    let stmt_off = here () in
    match next () with
    | Trbrace -> ()
    | Tid id -> (
        match peek () with
        | Some Tarrow ->
            ignore (next ());
            let tgt = match next () with Tid t -> t | _ -> fail "expected edge target" in
            let attrs = parse_attrs () in
            (match peek () with Some Tsemi -> ignore (next ()) | _ -> ());
            edges := (stmt_off, { e_src = id; e_tgt = tgt; e_attrs = attrs }) :: !edges;
            stmts ()
        | _ ->
            let attrs = parse_attrs () in
            (match peek () with Some Tsemi -> ignore (next ()) | _ -> ());
            nodes := { n_id = id; n_attrs = attrs } :: !nodes;
            stmts ())
    | Tsemi -> stmts ()
    | _ -> fail "expected statement"
  in
  stmts ();
  (* Dangling edge endpoints are a parse-time reject with the edge
     statement's offset — a truncated graph whose node declarations were
     cut off diagnoses here, not deep inside graph construction.  Edges
     are checked in file order, source before target, so the first
     dangling reference in the text is the one blamed. *)
  let declared = Hashtbl.create (List.length !nodes) in
  List.iter (fun n -> Hashtbl.replace declared n.n_id ()) !nodes;
  List.iter
    (fun (off, e) ->
      if not (Hashtbl.mem declared e.e_src) then
        parse_fail off "edge references undeclared node %s" e.e_src;
      if not (Hashtbl.mem declared e.e_tgt) then
        parse_fail off "edge references undeclared node %s" e.e_tgt)
    (List.rev !edges);
  { g_name = name; g_nodes = List.rev !nodes; g_edges = List.rev (List.map snd !edges) }

(* ------------------------------------------------------------------ *)
(* Property-graph conversion                                           *)
(* ------------------------------------------------------------------ *)

let type_attr = "type"

let to_pgraph_unsafe g =
  let open Pgraph in
  let b = Graph.Builder.create () in
  List.iter
    (fun n ->
      let label = Option.value (List.assoc_opt type_attr n.n_attrs) ~default:"Unknown" in
      let props = Props.of_list (List.remove_assoc type_attr n.n_attrs) in
      Graph.Builder.add_node b ~id:n.n_id ~label ~props)
    g.g_nodes;
  List.iteri
    (fun i e ->
      let label = Option.value (List.assoc_opt type_attr e.e_attrs) ~default:"Unknown" in
      let props = Props.of_list (List.remove_assoc type_attr e.e_attrs) in
      (* Offset 0: a hand-built [graph] value has no source text to
         point into; parsed text was already endpoint-checked with
         real offsets in [of_string]. *)
      if not (Graph.Builder.mem_node b e.e_src) then
        parse_fail 0 "edge references undeclared node %s" e.e_src;
      if not (Graph.Builder.mem_node b e.e_tgt) then
        parse_fail 0 "edge references undeclared node %s" e.e_tgt;
      Graph.Builder.add_edge b ~id:(Printf.sprintf "e%d" i) ~src:e.e_src ~tgt:e.e_tgt ~label ~props)
    g.g_edges;
  Graph.Builder.freeze b

let to_pgraph g =
  (* Duplicate declarations (or a node id clashing with a synthetic
     edge id) surface from graph construction as [Invalid_argument];
     rewrap so only Parse_error leaves this module. *)
  try to_pgraph_unsafe g with Invalid_argument m -> parse_fail 0 "%s" m

let of_pgraph ~name g =
  let open Pgraph in
  {
    g_name = name;
    g_nodes =
      List.map
        (fun (n : Graph.node) ->
          {
            n_id = n.Graph.node_id;
            n_attrs = (type_attr, n.Graph.node_label) :: Props.to_list n.Graph.node_props;
          })
        (Graph.nodes g);
    g_edges =
      List.map
        (fun (e : Graph.edge) ->
          {
            e_src = e.Graph.edge_src;
            e_tgt = e.Graph.edge_tgt;
            e_attrs = (type_attr, e.Graph.edge_label) :: Props.to_list e.Graph.edge_props;
          })
        (Graph.edges g);
  }
