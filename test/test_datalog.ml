open Datalog
open Pgraph

let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_fact_print () =
  check_string "simple" "ng1(n1,\"File\")."
    (Fact.to_string (Fact.make "ng1" [ Fact.Sym "n1"; Fact.Str "File" ]));
  check_string "escaped" "p(x,\"a\\\"b\")."
    (Fact.to_string (Fact.make "p" [ Fact.Sym "x"; Fact.Str "a\"b" ]));
  check_string "int arg" "f(3)." (Fact.to_string (Fact.make "f" [ Fact.Int 3 ]))

let test_sym_of_string () =
  check_bool "bare" true (Fact.equal_term (Fact.sym_of_string "n1") (Fact.Sym "n1"));
  check_bool "uppercase quoted" true
    (Fact.equal_term (Fact.sym_of_string "N1") (Fact.Str "N1"));
  check_bool "dash quoted" true
    (Fact.equal_term (Fact.sym_of_string "a-b") (Fact.Str "a-b"));
  check_bool "empty quoted" true (Fact.equal_term (Fact.sym_of_string "") (Fact.Str ""));
  (* Equal payloads still differ as a bare and a quoted constant. *)
  check_bool "sym <> str" false (Fact.equal_term (Fact.Sym "n1") (Fact.Str "n1"))

let test_parse_listing2 () =
  (* The exact fact text of the paper's Listing 2. *)
  let text =
    {|
ng1(n1,"File").
pg1(n1,"Userid","1").
pg1(n1,"Name","text").
ng2(n1,"File").
ng2(n2,"Process").
pg2(n1,"Userid","1").
eg2(e1,n1,n2,"Used").
pg2(n1,"Name","text").
|}
  in
  let facts = Parser.parse_facts text in
  check_int "fact count" 8 (List.length facts);
  let base = Base.of_list facts in
  check_int "ng2 facts" 2 (List.length (Base.facts_with_pred base "ng2"));
  check_int "eg2 facts" 1 (List.length (Base.facts_with_pred base "eg2"))

let test_parse_comments_and_ws () =
  let facts = Parser.parse_facts "% a comment\n  f(a). % trailing\n\tg(b,\"c\")." in
  check_int "two facts" 2 (List.length facts)

let test_parse_errors () =
  let expect_fail s =
    match Parser.parse_facts s with
    | exception Parser.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" s
  in
  List.iter expect_fail [ "f(a)"; "f(a,)."; "f(."; "(a)."; "f(a)) ." ]

let test_base_dedup () =
  let f = Fact.make "f" [ Fact.Sym "a" ] in
  let b = Base.of_list [ f; f; f ] in
  check_int "deduplicated" 1 (Base.cardinal b);
  check_bool "mem" true (Base.mem f b)

(* [Base.to_string] order, byte for byte: [Sym] before [Str] before
   [Int], payloads by [String.compare] (so a prefix first, uppercase
   before lowercase, non-ASCII bytes last), shorter argument lists
   first.  Memo keys and reports are this text. *)
let test_base_order_pinned () =
  let y s = Fact.Sym s and s x = Fact.Str x and i n = Fact.Int n in
  let facts =
    [
      Fact.make "f" [ s "ab" ]; Fact.make "f" [ y "ab" ]; Fact.make "f" [ i 7 ]; Fact.make "f" [ s "7" ];
      Fact.make "f" [ y "a" ]; Fact.make "f" [ s "a" ]; Fact.make "f" [ i (-1) ]; Fact.make "f" [ i 10 ];
      Fact.make "f" [ y "aB" ]; Fact.make "f" [ s "B" ]; Fact.make "f" [ s "Z" ]; Fact.make "f" [ s "z" ];
      Fact.make "f" [ s "\xc3\xbc" ]; Fact.make "f" [ s "u" ]; Fact.make "f" [ s "" ];
      Fact.make "f" [ s "q\"" ]; Fact.make "f" [ s "b\\" ]; Fact.make "f" [ s "nl\n" ]; Fact.make "f" [ s "nl" ];
      Fact.make "g" [ y "a"; s "x" ]; Fact.make "g" [ y "a" ]; Fact.make "g" [ y "a"; i 1 ];
      Fact.make "g" [ s "a"; y "a" ]; Fact.make "g" [ y "ab"; s "x" ]; Fact.make "g" [ y "a"; y "x" ];
      Fact.make "g" [ y "a"; s "x"; s "" ]; Fact.make "G" [ i 0 ]; Fact.make "f" [];
      Fact.make "f" [ s "ab" ]; Fact.make "g" [ y "a"; s "x" ];
    ]
  in
  let want =
    {|G(0).
f().
f(a).
f(aB).
f(ab).
f("").
f("7").
f("B").
f("Z").
f("a").
f("ab").
f("b\\").
f("nl").
f("nl\n").
f("q\"").
f("u").
f("z").
|}
    ^ "f(\"\xc3\xbc\").\n"
    ^ {|f(-1).
f(7).
f(10).
g(a).
g(a,x).
g(a,"x").
g(a,"x","").
g(a,1).
g(ab,"x").
g("a",a).
|}
  in
  check_string "rendered order" want (Base.to_string (Base.of_list facts))

let sample_graph () =
  let g = Graph.empty in
  let g = Graph.add_node g ~id:"n1" ~label:"File" ~props:(Props.of_list [ ("Userid", "1"); ("Name", "text") ]) in
  let g = Graph.add_node g ~id:"n2" ~label:"Process" ~props:Props.empty in
  Graph.add_edge g ~id:"e1" ~src:"n1" ~tgt:"n2" ~label:"Used"
    ~props:(Props.of_list [ ("t", "5") ])

let test_encode_matches_listing_format () =
  let g = sample_graph () in
  let text = Encode.graph_to_string ~gid:"g2" g in
  check_bool "node fact present" true
    (String.length text > 0
    && List.exists
         (fun line -> String.equal line "ng2(n1,\"File\").")
         (String.split_on_char '\n' text));
  check_bool "edge fact present" true
    (List.exists
       (fun line -> String.equal line "eg2(e1,n1,n2,\"Used\").")
       (String.split_on_char '\n' text))

let test_roundtrip () =
  let g = sample_graph () in
  let g' = Encode.graph_of_string ~gid:"g2" (Encode.graph_to_string ~gid:"g2" g) in
  check_bool "roundtrip equal" true (Graph.equal g g')

let test_decode_errors () =
  let expect_fail s =
    match Encode.graph_of_string ~gid:"1" s with
    | exception Encode.Decode_error _ -> ()
    | _ -> Alcotest.failf "expected decode error for %S" s
  in
  (* Edge with missing endpoint; property on unknown element; bad arity. *)
  List.iter expect_fail
    [
      "e1(e1,n1,n2,\"x\").";
      "n1(n1,\"a\"). p1(zz,\"k\",\"v\").";
      "n1(n1,\"a\",\"extra\",\"args\").";
    ]

let arb = Helpers.graph_arbitrary ()

let prop_roundtrip =
  Helpers.qcheck "datalog encode/decode roundtrip" arb (fun g ->
      Graph.equal g (Encode.graph_of_string ~gid:"7" (Encode.graph_to_string ~gid:"7" g)))

let prop_fact_count =
  Helpers.qcheck "fact count = nodes + edges + properties" arb (fun g ->
      let s = Stats.of_graph g in
      List.length (Encode.graph_to_facts ~gid:"1" g) = s.Stats.nodes + s.Stats.edges + s.Stats.properties)

(* ------------------------------------------------------------------ *)
(* Direct codec against the fact-base oracle                           *)
(* ------------------------------------------------------------------ *)

(* [graph_to_string]/[graph_of_string] render and read fact text
   directly; the path through [Fact.t] values and [Base] is the oracle.
   Its decoder adds one fact at a time to a persistent graph, in [Base]
   order: nodes, then edges, then each property through
   [set_*_props]. *)
let graph_of_base ~gid b =
  let fail fmt = Printf.ksprintf (fun s -> raise (Encode.Decode_error s)) fmt in
  let id_of = Fact.string_of_term in
  let g =
    List.fold_left
      (fun g f ->
        match f.Fact.args with
        | [ id; label ] ->
            Graph.add_node g ~id:(id_of id) ~label:(Fact.string_of_term label) ~props:Props.empty
        | _ -> fail "node fact %s has wrong shape" (Fact.to_string f))
      Graph.empty
      (Base.facts_with_pred b ("n" ^ gid))
  in
  let g =
    List.fold_left
      (fun g f ->
        match f.Fact.args with
        | [ id; src; tgt; label ] ->
            let src = id_of src and tgt = id_of tgt in
            if not (Graph.mem_node g src) then
              fail "edge %s refers to unknown source %s" (Fact.to_string f) src;
            if not (Graph.mem_node g tgt) then
              fail "edge %s refers to unknown target %s" (Fact.to_string f) tgt;
            Graph.add_edge g ~id:(id_of id) ~src ~tgt ~label:(Fact.string_of_term label)
              ~props:Props.empty
        | _ -> fail "edge fact %s has wrong shape" (Fact.to_string f))
      g
      (Base.facts_with_pred b ("e" ^ gid))
  in
  List.fold_left
    (fun g f ->
      match f.Fact.args with
      | [ id; key; value ] -> (
          let id = id_of id in
          let key = Fact.string_of_term key and value = Fact.string_of_term value in
          match (Graph.find_node g id, Graph.find_edge g id) with
          | Some n, _ -> Graph.set_node_props g id (Props.add key value n.Graph.node_props)
          | None, Some e -> Graph.set_edge_props g id (Props.add key value e.Graph.edge_props)
          | None, None -> fail "property fact %s refers to unknown element" (Fact.to_string f))
      | _ -> fail "property fact %s has wrong shape" (Fact.to_string f))
    g
    (Base.facts_with_pred b ("p" ^ gid))

let oracle_render ~gid g = Base.to_string (Encode.graph_to_base ~gid g)
let oracle_decode ~gid s = graph_of_base ~gid (Parser.parse_base s)

(* [graph_of_string]'s reject texts: a dangling endpoint is a decode
   error naming the fact, a repeated id the builder's own text. *)
let test_decode_error_texts () =
  let verdict s =
    match Encode.graph_of_string ~gid:"1" s with
    | exception Encode.Decode_error m -> "decode: " ^ m
    | exception Invalid_argument m -> "invalid: " ^ m
    | _ -> "accepted"
  in
  List.iter
    (fun (name, s, expected) -> check_string name expected (verdict s))
    [
      ( "dangling source",
        "e1(e1,a,b,\"x\").\nn1(b,\"y\").\n",
        "decode: edge e1(e1,a,b,\"x\"). refers to unknown source a" );
      ( "dangling target",
        "e1(e1,a,b,\"x\").\nn1(a,\"y\").\n",
        "decode: edge e1(e1,a,b,\"x\"). refers to unknown target b" );
      ( "duplicate node",
        "n1(a,\"x\").\nn1(a,\"y\").\n",
        "invalid: Pgraph.Graph.add_node: duplicate identifier a" );
      ( "edge id clashes with a node id",
        "e1(a,a,a,\"x\").\nn1(a,\"y\").\n",
        "invalid: Pgraph.Graph.add_edge: duplicate identifier a" );
      ( "duplicate edge",
        "e1(e,a,a,\"x\").\ne1(e,a,a,\"z\").\nn1(a,\"y\").\n",
        "invalid: Pgraph.Graph.add_edge: duplicate identifier e" );
      ( "property of an unknown element",
        "n1(a,\"y\").\np1(b,\"k\",\"v\").\n",
        "decode: property fact p1(b,\"k\",\"v\"). refers to unknown element" );
    ]

let test_distinct_gids_do_not_mix () =
  let g = sample_graph () in
  let base =
    Base.union (Encode.graph_to_base ~gid:"1" g) (Encode.graph_to_base ~gid:"2" Graph.empty)
  in
  let g1 = graph_of_base ~gid:"1" base in
  let g2 = graph_of_base ~gid:"2" base in
  check_bool "gid 1 intact" true (Graph.equal g g1);
  check_int "gid 2 empty" 0 (Graph.size g2)

(* A decode's verdict: the graph, or the exception with its message. *)
let verdict decode =
  match decode () with
  | g -> Ok g
  | exception (Parser.Parse_error _ as e) -> Error (Printexc.to_string e)
  | exception (Encode.Decode_error _ as e) -> Error (Printexc.to_string e)
  | exception (Invalid_argument _ as e) -> Error (Printexc.to_string e)

let verdicts ~gid s =
  (verdict (fun () -> Encode.graph_of_string ~gid s), verdict (fun () -> oracle_decode ~gid s))

let same_verdict ~gid s =
  match verdicts ~gid s with
  | Ok g, Ok g' -> Graph.equal g g'
  | Error e, Error e' -> String.equal e e'
  | Ok _, Error _ | Error _, Ok _ -> false

let check_same_verdict ~gid s =
  if not (same_verdict ~gid s) then
    let show = function Ok g -> Graph.summary g | Error e -> e in
    let got, want = verdicts ~gid s in
    Alcotest.failf "%S: graph_of_string gives %s, the oracle %s" s (show got) (show want)

(* Identifiers in every spelling class: bare, leading capital, leading
   digit or underscore, and quoted with a quote, backslash, newline or
   space inside. *)
let id_styles =
  [|
    (fun i -> "n" ^ i);
    (fun i -> "a_b" ^ i);
    (fun i -> "N" ^ i);
    (fun i -> i ^ "x");
    (fun i -> "_u" ^ i);
    (fun i -> "q\"" ^ i);
    (fun i -> "b\\" ^ i);
    (fun i -> "nl\n" ^ i);
    (fun i -> "s p" ^ i);
    (fun i -> "d-" ^ i);
  |]

let tricky_strings =
  [| "File"; ""; "a\"b"; "back\\slash"; "line\nbreak"; "%not a comment"; "cr\r"; "\xc3\xbc"; "x"; "\\n" |]

let tricky_graph st =
  let pick a = a.(Random.State.int st (Array.length a)) in
  let id i = (pick id_styles) (string_of_int i) in
  let props () =
    Props.of_list (List.init (Random.State.int st 4) (fun _ -> (pick tricky_strings, pick tricky_strings)))
  in
  let n = Random.State.int st 8 in
  let ids = List.init n id in
  let g =
    List.fold_left (fun g id -> Graph.add_node g ~id ~label:(pick tricky_strings) ~props:(props ())) Graph.empty ids
  in
  if n = 0 then g
  else
    let ids = Array.of_list ids in
    List.fold_left
      (fun g j ->
        Graph.add_edge g ~id:(id (100 + j)) ~src:(pick ids) ~tgt:(pick ids) ~label:(pick tricky_strings)
          ~props:(props ()))
      g
      (List.init (Random.State.int st 10) Fun.id)

let gids = [ "d"; "1"; "bg"; "g2" ]

let tricky_arb = QCheck.make ~print:(fun g -> Format.asprintf "%a" Graph.pp g) tricky_graph

let prop_render_matches_oracle =
  Helpers.qcheck ~count:300 "graph_to_string is Base.to_string of graph_to_base" tricky_arb (fun g ->
      List.for_all (fun gid -> String.equal (Encode.graph_to_string ~gid g) (oracle_render ~gid g)) gids)

let prop_decode_matches_oracle =
  Helpers.qcheck ~count:300 "graph_of_string decodes as graph_of_base" tricky_arb (fun g ->
      List.for_all
        (fun gid ->
          let text = Encode.graph_to_string ~gid g in
          Graph.equal g (Encode.graph_of_string ~gid text) && same_verdict ~gid text)
        gids)

(* Out-of-order text — shuffled lines, some repeated, another graph's
   facts mixed in — takes the sorting path and must still agree. *)
let prop_shuffled_matches_oracle =
  Helpers.qcheck ~count:300 "shuffled, repeated and mixed facts decode as the oracle"
    (QCheck.pair tricky_arb (QCheck.make QCheck.Gen.int))
    (fun (g, seed) ->
      let st = Random.State.make [| seed |] in
      let lines gid = List.filter (( <> ) "") (String.split_on_char '\n' (Encode.graph_to_string ~gid g)) in
      let mixed =
        List.concat_map
          (fun l -> if Random.State.int st 4 = 0 then [ l; l ] else [ l ])
          (lines "1" @ lines "2")
      in
      let keyed = List.map (fun l -> (Random.State.bits st, l)) mixed in
      let text = String.concat "\n" (List.map snd (List.sort compare keyed)) in
      same_verdict ~gid:"1" text)

let test_decode_malformed_table () =
  List.iter (check_same_verdict ~gid:"1")
    [
      "";
      "\n";
      (* wrong arity *)
      "n1(a).";
      "n1.";
      "n1(a,\"x\"). e1(e,a,a).";
      "n1(a,\"x\"). p1(a,\"k\").";
      "n1(a,\"x\"). p1(a,\"k\",\"v\",\"w\"). p1(zz,\"k\",\"v\").";
      (* unknown endpoints and elements *)
      "n1(a,\"x\"). e1(e,a,b,\"l\").";
      "n1(a,\"x\"). e1(e,b,a,\"l\").";
      "n1(a,\"x\"). p1(z,\"k\",\"v\").";
      "n1(a,\"x\"). p1(\"Z q\",\"k\",\"v\"). p1(a,\"k\",\"v\").";
      "n1(a,\"x\"). e1(e,a,a,\"l\"). p1(e,\"k\",\"v\"). p1(a,\"k\",\"w\").";
      (* comments, integers and other predicates *)
      "% header\nn1(a,\"x\"). % trailing\n";
      "n1(5,\"x\"). n1(-3,\"y\"). e1(7,5,-3,\"l\"). p1(5,\"k\",7). p1(7,\"k\",-1).";
      "n2(a,\"x\"). q(1,2). n1(b,\"y\"). foo. eg1(b,b,b,\"l\"). p(b,\"k\",\"v\").";
      (* exact duplicates and repeated (element, key) *)
      "n1(a,\"x\"). n1(a,\"x\"). p1(a,\"k\",\"v\"). p1(a,\"k\",\"v\").";
      "n1(a,\"x\"). p1(a,\"k\",\"v2\"). p1(a,\"k\",\"v1\").";
      "n1(a,\"x\"). p1(a,\"k\",\"aa\"). p1(a,\"k\",zz). p1(a,\"k\",3).";
      "n1(a,\"x\"). p1(\"a\",\"k\",\"v\"). p1(a,\"k\",\"w\").";
      (* one identifier, two facts *)
      "n1(a,\"x\"). n1(\"a\",\"x\").";
      "n1(a,\"x\"). n1(a,\"y\").";
      "n1(a,\"x\"). e1(a,a,a,\"l\").";
      "n1(a,\"x\"). e1(e,a,a,\"l\"). e1(e,a,a,\"m\").";
      "n1(b). n1(a,\"x\"). n1(a,\"y\").";
      "n1(a). n1(b,\"x\"). n1(b,\"y\").";
      "n1(a,\"x\"). e1(e). p1(zz,\"k\",\"v\").";
      (* quoting and escapes *)
      "n1(\"a\\\"b\",\"x\"). p1(\"a\\\"b\",\"k\\\\\",\"v\\n\").";
      "n1(a,\"t\\tab\").";
      "n1(\"n1\",\"x\"). n1(n2,\"y\"). e1(\"E\",\"n1\",n2,\"l\").";
      (* lexical and syntax errors *)
      "n1(a,\"x";
      "n1(a,\"x\\";
      "n1(a,@).";
      "n1(-,\"x\").";
      "n1(99999999999999999999,\"x\").";
      "n1(a,\"x\")";
      "n1(a,,\"x\").";
      "(a).";
      "n1(a,\"x\") n1(b,\"y\").";
      "f(a,). \"unterminated";
      "n1(). n1(a,\"x\").";
    ]

let () =
  Alcotest.run "datalog"
    [
      ( "fact",
        [
          Alcotest.test_case "printing" `Quick test_fact_print;
          Alcotest.test_case "sym_of_string quoting" `Quick test_sym_of_string;
        ] );
      ( "parser",
        [
          Alcotest.test_case "paper listing 2" `Quick test_parse_listing2;
          Alcotest.test_case "comments and whitespace" `Quick test_parse_comments_and_ws;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "base",
        [
          Alcotest.test_case "dedup and mem" `Quick test_base_dedup;
          Alcotest.test_case "rendered fact order is pinned" `Quick test_base_order_pinned;
        ] );
      ( "encode",
        [
          Alcotest.test_case "matches listing format" `Quick test_encode_matches_listing_format;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "decode errors" `Quick test_decode_errors;
          Alcotest.test_case "decode error texts" `Quick test_decode_error_texts;
          Alcotest.test_case "graph ids are independent" `Quick test_distinct_gids_do_not_mix;
          Alcotest.test_case "malformed text decodes as the oracle" `Quick test_decode_malformed_table;
        ] );
      ( "properties",
        [
          prop_roundtrip;
          prop_fact_count;
          prop_render_matches_oracle;
          prop_decode_matches_oracle;
          prop_shuffled_matches_oracle;
        ] );
    ]
