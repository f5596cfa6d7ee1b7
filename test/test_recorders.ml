open Pgraph
module Event = Oskernel.Event
module Program = Oskernel.Program
module Syscall = Oskernel.Syscall
module Kernel = Oskernel.Kernel
module Trace = Oskernel.Trace

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* DOT                                                                 *)
(* ------------------------------------------------------------------ *)

let sample_pgraph () =
  let g = Graph.add_node Graph.empty ~id:"a" ~label:"Process" ~props:(Props.of_list [ ("pid", "12") ]) in
  let g = Graph.add_node g ~id:"b" ~label:"Artifact" ~props:(Props.of_list [ ("path", "/x y") ]) in
  Graph.add_edge g ~id:"e0" ~src:"a" ~tgt:"b" ~label:"Used" ~props:(Props.of_list [ ("op", "read") ])

let test_dot_roundtrip () =
  let g = sample_pgraph () in
  let text = Recorders.Dot.to_string (Recorders.Dot.of_pgraph ~name:"t" g) in
  let g' = Recorders.Dot.to_pgraph (Recorders.Dot.of_string text) in
  check_bool "roundtrip" true (Graph.equal g g')

let test_dot_escapes () =
  let g =
    Graph.add_node Graph.empty ~id:"n\"1" ~label:"L"
      ~props:(Props.of_list [ ("k", "va\\lue\nnext") ])
  in
  let text = Recorders.Dot.to_string (Recorders.Dot.of_pgraph ~name:"t" g) in
  let g' = Recorders.Dot.to_pgraph (Recorders.Dot.of_string text) in
  check_bool "escape roundtrip" true (Graph.equal g g')

let test_dot_parse_plain () =
  let g =
    Recorders.Dot.of_string
      {|digraph "spade" {
        "v1" ["type"="Process", "pid"="5"];
        "v2" ["type"="Artifact"];
        "v1" -> "v2" ["type"="Used"];
      }|}
  in
  check_int "nodes" 2 (List.length g.Recorders.Dot.g_nodes);
  check_int "edges" 1 (List.length g.Recorders.Dot.g_edges);
  let pg = Recorders.Dot.to_pgraph g in
  check_string "label from type attr" "Process"
    (Option.get (Graph.find_node pg "v1")).Graph.node_label

let test_dot_parse_errors () =
  let expect_fail s =
    match Recorders.Dot.of_string s with
    | exception Recorders.Dot.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected DOT parse error for %S" s
  in
  List.iter expect_fail
    [ "graph g {}"; "digraph g { \"a\" -> ; }"; "digraph g { \"a\" [x=]; }"; "digraph g {" ]

(* DOT rejects pinned to exact (offset, reason) verdicts. *)
let dot_verdict text =
  match Recorders.Dot.to_pgraph (Recorders.Dot.of_string text) with
  | g -> Ok (Graph.node_count g, Graph.edge_count g)
  | exception Recorders.Dot.Parse_error { offset; reason } -> Error (offset, reason)

let check_dot_verdict what expected text =
  let show = function
    | Ok (n, e) -> Printf.sprintf "parsed %d nodes, %d edges" n e
    | Error (o, r) -> Printf.sprintf "reject at %d: %s" o r
  in
  check_string what (show expected) (show (dot_verdict text))

let test_dot_undeclared_edge_node () =
  check_dot_verdict "single dangling edge"
    (Error (30, "edge references undeclared node ghost"))
    "digraph g { \"a\" [\"type\"=\"X\"]; \"a\" -> \"ghost\"; }";
  (* Two dangling edges: the first edge statement in the file is blamed. *)
  check_dot_verdict "first of two dangling edges"
    (Error (34, "edge references undeclared node ghost"))
    "digraph g {\n  \"a\" [\"type\"=\"X\"];\n  \"a\" -> \"ghost\";\n  \"phantom\" -> \"wraith\";\n}\n";
  (* Both endpoints dangling: the source is blamed before the target. *)
  check_dot_verdict "source before target"
    (Error (14, "edge references undeclared node ghost"))
    "digraph g {\n  \"ghost\" -> \"phantom\";\n  \"a\" [\"type\"=\"X\"];\n}\n"

let test_dot_forward_reference () =
  check_dot_verdict "edge before its node declarations" (Ok (2, 1))
    "digraph g {\n  \"a\" -> \"b\" [\"type\"=\"used\"];\n  \"a\" [\"type\"=\"X\"];\n  \"b\" [\"type\"=\"Y\"];\n}\n"

let test_dot_lexical_error_first () =
  check_dot_verdict "grammar error alone" (Error (20, "expected statement"))
    "digraph g {\n  \"a\" = ;\n  \"b\";\n}\n";
  (* The whole input is tokenized before parsing, so a later lexical
     error outranks the earlier grammar error. *)
  check_dot_verdict "later lexical error wins" (Error (28, "unexpected character '@'"))
    "digraph g {\n  \"a\" = ;\n  \"b\" @\n}\n"

(* Graph construction faults, rewrapped at offset 0 with the builder's
   text: a node declared twice, and a node whose id clashes with a
   synthetic edge id ([e<k>] for the k-th edge). *)
let test_dot_construction_errors () =
  check_dot_verdict "duplicate node"
    (Error (0, "Pgraph.Graph.add_node: duplicate identifier a"))
    "digraph g {\n  a [type=\"x\"];\n  a [type=\"y\"];\n}\n";
  check_dot_verdict "node id clashes with an edge id"
    (Error (0, "Pgraph.Graph.add_edge: duplicate identifier e0"))
    "digraph g {\n  a [type=\"x\"];\n  e0 [type=\"y\"];\n  a -> e0;\n}\n"

(* ------------------------------------------------------------------ *)
(* PROV-JSON                                                           *)
(* ------------------------------------------------------------------ *)

let camflow_like_graph () =
  let g = Graph.add_node Graph.empty ~id:"t1" ~label:"task" ~props:(Props.of_list [ ("cf:pid", "9") ]) in
  let g = Graph.add_node g ~id:"f1" ~label:"file" ~props:(Props.of_list [ ("cf:ino", "77") ]) in
  let g = Graph.add_node g ~id:"p1" ~label:"path" ~props:(Props.of_list [ ("cf:pathname", "/z") ]) in
  let g = Graph.add_node g ~id:"m1" ~label:"machine" ~props:Props.empty in
  let g = Graph.add_edge g ~id:"u1" ~src:"t1" ~tgt:"f1" ~label:"used" ~props:(Props.of_list [ ("cf:type", "open") ]) in
  let g = Graph.add_edge g ~id:"n1" ~src:"p1" ~tgt:"f1" ~label:"named" ~props:Props.empty in
  Graph.add_edge g ~id:"a1" ~src:"t1" ~tgt:"m1" ~label:"wasAssociatedWith" ~props:Props.empty

let test_provjson_roundtrip () =
  let g = camflow_like_graph () in
  let g' = Recorders.Provjson.of_string (Recorders.Provjson.to_string g) in
  check_bool "roundtrip" true (Graph.equal g g')

let test_provjson_sections () =
  let j = Recorders.Provjson.of_pgraph (camflow_like_graph ()) in
  let open Minijson in
  check_bool "task in activity section" true (Json.mem "t1" (Json.member "activity" j));
  check_bool "file in entity section" true (Json.mem "f1" (Json.member "entity" j));
  check_bool "path in entity section" true (Json.mem "p1" (Json.member "entity" j));
  check_bool "machine in agent section" true (Json.mem "m1" (Json.member "agent" j));
  check_bool "used section" true (Json.mem "u1" (Json.member "used" j));
  check_bool "named in generic relation section" true (Json.mem "n1" (Json.member "relation" j));
  (* Endpoint keys follow the PROV-JSON conventions. *)
  let u = Json.member "u1" (Json.member "used" j) in
  check_string "prov:activity" "t1" (Json.to_str (Json.member "prov:activity" u));
  check_string "prov:entity" "f1" (Json.to_str (Json.member "prov:entity" u))

let test_provjson_errors () =
  let expect_fail s =
    match Recorders.Provjson.of_string s with
    | exception Recorders.Provjson.Format_error _ -> ()
    | _ -> Alcotest.failf "expected PROV-JSON error for %S" s
  in
  List.iter expect_fail
    [
      "[]";
      "{\"mystery\": {\"x\": {}}}";
      "{\"used\": {\"u\": {\"prov:activity\": \"ghost\", \"prov:entity\": \"also-ghost\"}}}";
      "{\"entity\": {\"e\": {}}, \"used\": {\"u\": {\"prov:activity\": \"e\"}}}";
      "not json at all";
    ]

(* The reasons [Provjson.of_string] gives, and which one wins when a
   document has several faults (values recorded from the list-scanning
   reader): an unknown endpoint outranks a bad property and a duplicate
   id, and a missing endpoint outranks an unknown one. *)
let test_provjson_error_reasons () =
  let nodes = {|"entity": {"n1": {"prov:type": "file"}, "n2": {}}|} in
  let reason doc =
    match Recorders.Provjson.of_string doc with
    | exception Recorders.Provjson.Format_error { reason; _ } -> reason
    | _ -> "accepted"
  in
  List.iter
    (fun (name, doc, expected) -> Alcotest.(check string) name expected (reason doc))
    [
      ("not an object", "[]", "document is not an object");
      ("unknown section", {|{"mystery": {"x": {}}}|}, "unknown section mystery");
      ("section not an object", {|{"used": 3}|}, "section used not an object");
      ("node not an object", {|{"entity": {"n1": 3}}|}, "node n1 not an object");
      ("edge not an object", Printf.sprintf {|{%s, "used": {"u": 3}}|} nodes, "edge u not an object");
      ( "missing endpoint",
        Printf.sprintf {|{%s, "used": {"u": {"prov:activity": "n1"}}}|} nodes,
        "edge u lacks endpoint prov:entity" );
      ( "unknown source",
        Printf.sprintf {|{%s, "used": {"u": {"prov:activity": "zz", "prov:entity": "n2"}}}|} nodes,
        "edge u references unknown node zz" );
      ( "unknown target",
        Printf.sprintf {|{%s, "used": {"u": {"prov:activity": "n1", "prov:entity": "zz"}}}|} nodes,
        "edge u references unknown node zz" );
      ( "non-scalar property",
        Printf.sprintf {|{%s, "used": {"u": {"prov:activity": "n1", "prov:entity": "n2", "k": []}}}|}
          nodes,
        "property k has non-scalar value" );
      ( "unknown endpoint before a bad property",
        Printf.sprintf {|{%s, "used": {"u": {"prov:activity": "zz", "prov:entity": "n2", "k": []}}}|}
          nodes,
        "edge u references unknown node zz" );
      ( "duplicate id",
        Printf.sprintf {|{%s, "used": {"n1": {"prov:activity": "n1", "prov:entity": "n2"}}}|} nodes,
        "Pgraph.Graph.add_edge: duplicate identifier n1" );
      ( "node repeated across sections",
        {|{"entity": {"n1": {}}, "activity": {"n1": {}}}|},
        "Pgraph.Graph.add_node: duplicate identifier n1" );
      ( "edge repeated across sections",
        Printf.sprintf
          {|{%s, "used": {"u": {"prov:activity": "n1", "prov:entity": "n2"}}, "wasGeneratedBy": {"u": {"prov:entity": "n1", "prov:activity": "n2"}}}|}
          nodes,
        "Pgraph.Graph.add_edge: duplicate identifier u" );
      ( "unknown endpoint before a duplicate id",
        Printf.sprintf {|{%s, "used": {"n1": {"prov:activity": "n1", "prov:entity": "zz"}}}|} nodes,
        "edge n1 references unknown node zz" );
      ( "missing endpoint before an unknown one",
        Printf.sprintf {|{%s, "used": {"u": {"prov:activity": "zz"}}}|} nodes,
        "edge u lacks endpoint prov:entity" );
      ( "relation without a type",
        Printf.sprintf {|{%s, "relation": {"r": {"rel:from": "n1", "rel:to": "n2"}}}|} nodes,
        "relation r lacks rel:type" );
      ( "relation to an unknown node",
        Printf.sprintf {|{%s, "relation": {"r": {"rel:from": "n1", "rel:to": "zz", "rel:type": "x"}}}|}
          nodes,
        "edge r references unknown node zz" );
    ]

(* ------------------------------------------------------------------ *)
(* SPADE                                                               *)
(* ------------------------------------------------------------------ *)

let run_prog ?(run_id = 1) prog variant = Kernel.run ~run_id prog variant

let staged = [ Program.staged_file "/staging/test.txt" ]

let prog_of ?(staging = staged) ?(setup = []) ?cred syscall target =
  Program.make ~name:("t_" ^ syscall) ~syscall ~staging ~setup ?cred ~target ()

let open_setup = [ Syscall.Open { path = "/staging/test.txt"; flags = [ Syscall.O_RDWR ]; ret = "id" } ]

let spade_graph ?config prog variant =
  Recorders.Spade.build ?config (run_prog prog variant)

let test_spade_open_adds_node_and_edge () =
  let prog = prog_of "open" open_setup in
  let bg = spade_graph prog Program.Background in
  let fg = spade_graph prog Program.Foreground in
  check_int "one extra node" (Graph.node_count bg + 1) (Graph.node_count fg);
  check_int "one extra edge" (Graph.edge_count bg + 1) (Graph.edge_count fg)

let test_spade_failed_calls_invisible () =
  let prog =
    prog_of "rename" [ Syscall.Rename { old_path = "/staging/test.txt"; new_path = "/etc/passwd" } ]
  in
  let bg = spade_graph prog Program.Background in
  let fg = spade_graph prog Program.Foreground in
  check_bool "success-only audit rules" true (Graph.equal_structure bg fg)

let test_spade_success_only_off_records_failures () =
  let prog =
    prog_of "rename" [ Syscall.Rename { old_path = "/staging/test.txt"; new_path = "/etc/passwd" } ]
  in
  let config = { Recorders.Spade.default_config with Recorders.Spade.success_only = false } in
  let bg = spade_graph ~config prog Program.Background in
  let fg = spade_graph ~config prog Program.Foreground in
  check_bool "failed call now visible" true (Graph.size fg > Graph.size bg)

let test_spade_vfork_disconnected () =
  let prog = prog_of ~staging:[] "vfork" [ Syscall.Vfork ] in
  let g = spade_graph prog Program.Foreground in
  (* The vfork child process vertex exists but has no incident edge. *)
  let disconnected =
    List.filter
      (fun (n : Graph.node) ->
        n.Graph.node_label = "Process" && Graph.incident_edges g n.Graph.node_id = [])
      (Graph.nodes g)
  in
  check_int "exactly one disconnected process" 1 (List.length disconnected)

let test_spade_fork_connected () =
  let prog = prog_of ~staging:[] "fork" [ Syscall.Fork ] in
  let g = spade_graph prog Program.Foreground in
  let disconnected =
    List.filter (fun (n : Graph.node) -> Graph.incident_edges g n.Graph.node_id = []) (Graph.nodes g)
  in
  check_int "no disconnected vertices" 0 (List.length disconnected)

let test_spade_dup_not_recorded () =
  let prog = prog_of "dup" ~setup:open_setup [ Syscall.Dup { fd = "id"; ret = "id2" } ] in
  let bg = spade_graph prog Program.Background in
  let fg = spade_graph prog Program.Foreground in
  check_bool "dup invisible" true (Graph.equal_structure bg fg)

let test_spade_versioning () =
  let prog = prog_of "write" ~setup:open_setup [ Syscall.Write { fd = "id"; count = 8 } ] in
  let plain = spade_graph prog Program.Foreground in
  let config = { Recorders.Spade.default_config with Recorders.Spade.versioning = true } in
  let versioned = spade_graph ~config prog Program.Foreground in
  check_bool "versioning adds artifact versions" true (Graph.size versioned > Graph.size plain)

let test_spade_truncate_edges () =
  let prog = prog_of "open" open_setup in
  let full = Recorders.Dot.to_pgraph (Recorders.Dot.of_string (Recorders.Spade.record (run_prog prog Program.Foreground))) in
  let truncated =
    Recorders.Dot.to_pgraph
      (Recorders.Dot.of_string (Recorders.Spade.record ~truncate_edges:2 (run_prog prog Program.Foreground)))
  in
  check_int "two edges dropped" (Graph.edge_count full - 2) (Graph.edge_count truncated)

let test_spade_transients_differ_across_runs () =
  let prog = prog_of "open" open_setup in
  let g1 = spade_graph ~config:Recorders.Spade.default_config prog Program.Foreground in
  let g2 = Recorders.Spade.build (run_prog ~run_id:2 prog Program.Foreground) in
  check_bool "same shape" true (Gmatch.Vf2.similar g1 g2);
  check_bool "but not property-equal (transients)" false
    (match Gmatch.Vf2.iso_min_cost g1 g2 with Some m -> m.Gmatch.Matching.cost = 0 | None -> true)

let test_spade_setres_bug () =
  let prog =
    prog_of ~staging:[] "setresgid" [ Syscall.Setresgid { rgid = -1; egid = 1000; sgid = -1 } ]
  in
  let config = { Recorders.Spade.default_config with Recorders.Spade.simplify = false } in
  let g = spade_graph ~config prog Program.Foreground in
  let flags_edges =
    List.filter (fun (e : Graph.edge) -> Props.mem "flags" e.Graph.edge_props) (Graph.edges g)
  in
  check_int "buggy edge present" 1 (List.length flags_edges);
  (* And with simplify on, the call leaves nothing behind. *)
  let clean = spade_graph prog Program.Foreground in
  let clean_bg = spade_graph prog Program.Background in
  check_bool "invisible with simplify" true (Graph.equal_structure clean clean_bg)

let test_spade_procfs_enrichment () =
  let prog = prog_of "open" open_setup in
  let plain = spade_graph prog Program.Foreground in
  let enriched =
    spade_graph ~config:{ Recorders.Spade.default_config with Recorders.Spade.use_procfs = true }
      prog Program.Foreground
  in
  let has_cwd g =
    List.exists (fun (n : Graph.node) -> Props.mem "cwd" n.Graph.node_props) (Graph.nodes g)
  in
  check_bool "baseline has no procfs props" false (has_cwd plain);
  check_bool "procfs adds cwd/cmdline" true (has_cwd enriched);
  check_bool "same structure either way" true (Gmatch.Vf2.similar plain enriched)

(* ------------------------------------------------------------------ *)
(* OPUS                                                                *)
(* ------------------------------------------------------------------ *)

let opus_graph ?config prog variant =
  let store = Recorders.Opus.record ?config (run_prog prog variant) in
  Graphstore.Store.open_db store;
  Recorders.Opus.store_to_pgraph store

let test_opus_env_recorded () =
  let prog = prog_of "open" open_setup in
  let g = opus_graph prog Program.Background in
  let metas = List.filter (fun (n : Graph.node) -> n.Graph.node_label = "Meta") (Graph.nodes g) in
  check_int "ten environment nodes" 10 (List.length metas);
  let without_env =
    opus_graph ~config:{ Recorders.Opus.default_config with Recorders.Opus.record_env = false } prog
      Program.Background
  in
  check_bool "env accounts for the size difference" true
    (Graph.size g - Graph.size without_env = 20)

let test_opus_failed_rename_same_structure () =
  let ok_prog =
    prog_of "rename" [ Syscall.Rename { old_path = "/staging/test.txt"; new_path = "/staging/r.txt" } ]
  in
  let failed_prog =
    prog_of "rename" [ Syscall.Rename { old_path = "/staging/test.txt"; new_path = "/etc/passwd" } ]
  in
  let g_ok = opus_graph ok_prog Program.Foreground in
  let g_fail = opus_graph failed_prog Program.Foreground in
  check_int "same node count" (Graph.node_count g_ok) (Graph.node_count g_fail);
  check_int "same edge count" (Graph.edge_count g_ok) (Graph.edge_count g_fail);
  let ret_of g =
    List.find_map
      (fun (n : Graph.node) ->
        match Props.find "op" n.Graph.node_props with
        | Some "rename" -> Props.find "ret" n.Graph.node_props
        | _ -> None)
      (Graph.nodes g)
  in
  Alcotest.(check (option string)) "success returns 0" (Some "0") (ret_of g_ok);
  Alcotest.(check (option string)) "failure returns -1" (Some "-1") (ret_of g_fail)

let test_opus_dup_two_unconnected_nodes () =
  let prog = prog_of "dup" ~setup:open_setup [ Syscall.Dup { fd = "id"; ret = "id2" } ] in
  let bg = opus_graph prog Program.Background in
  let fg = opus_graph prog Program.Foreground in
  check_int "two new nodes" (Graph.node_count bg + 2) (Graph.node_count fg);
  (* Find the two new-node ids and check no edge connects them directly. *)
  let bg_ids = Graph.node_ids bg in
  let new_ids = List.filter (fun id -> not (List.mem id bg_ids)) (Graph.node_ids fg) in
  check_int "names" 2 (List.length new_ids);
  match new_ids with
  | [ x; y ] ->
      check_bool "not directly connected" false
        (List.exists
           (fun (e : Graph.edge) ->
             (e.Graph.edge_src = x && e.Graph.edge_tgt = y)
             || (e.Graph.edge_src = y && e.Graph.edge_tgt = x))
           (Graph.edges fg))
  | _ -> Alcotest.fail "expected two new nodes"

let test_opus_clone_blind () =
  let prog = prog_of ~staging:[] "clone" [ Syscall.Clone ] in
  let bg = opus_graph prog Program.Background in
  let fg = opus_graph prog Program.Foreground in
  check_bool "clone invisible to interposition" true (Graph.equal_structure bg fg)

let test_opus_fork_large () =
  let prog = prog_of "fork" ~setup:open_setup [ Syscall.Fork ] in
  let bg = opus_graph prog Program.Background in
  let fg = opus_graph prog Program.Foreground in
  (* Event + child + cloned local binding and their edges. *)
  check_bool "fork graph notably larger" true (Graph.size fg - Graph.size bg >= 6)

let test_opus_record_io_flag () =
  let prog = prog_of "read" ~setup:open_setup [ Syscall.Read { fd = "id"; count = 8 } ] in
  let bg = opus_graph prog Program.Background in
  let fg = opus_graph prog Program.Foreground in
  check_bool "default config blind to reads" true (Graph.equal_structure bg fg);
  let io = { Recorders.Opus.default_config with Recorders.Opus.record_io = true } in
  let fg_io = opus_graph ~config:io prog Program.Foreground in
  let bg_io = opus_graph ~config:io prog Program.Background in
  check_bool "record_io surfaces the read" true (Graph.size fg_io > Graph.size bg_io)

(* ------------------------------------------------------------------ *)
(* CamFlow                                                             *)
(* ------------------------------------------------------------------ *)

let camflow_graph ?config ?session prog variant =
  Recorders.Camflow.build ?config ?session (run_prog prog variant)

let test_camflow_open_file_and_path () =
  let prog = prog_of "open" open_setup in
  let bg = camflow_graph prog Program.Background in
  let fg = camflow_graph prog Program.Foreground in
  let count label g =
    List.length (List.filter (fun (n : Graph.node) -> n.Graph.node_label = label) (Graph.nodes g))
  in
  check_int "adds a file entity" (count "file" bg + 1) (count "file" fg);
  check_int "adds a path entity" (count "path" bg + 1) (count "path" fg)

let test_camflow_denied_not_recorded () =
  let prog =
    prog_of "rename" [ Syscall.Rename { old_path = "/staging/test.txt"; new_path = "/etc/passwd" } ]
  in
  let bg = camflow_graph prog Program.Background in
  let fg = camflow_graph prog Program.Foreground in
  check_bool "denied hook not serialized" true (Graph.equal_structure bg fg)

let test_camflow_rename_adds_new_path_only () =
  let prog =
    prog_of "rename" [ Syscall.Rename { old_path = "/staging/test.txt"; new_path = "/staging/r.txt" } ]
  in
  let fg = camflow_graph prog Program.Foreground in
  let pathnames =
    List.filter_map
      (fun (n : Graph.node) -> Props.find "cf:pathname" n.Graph.node_props)
      (Graph.nodes fg)
  in
  check_bool "new path present" true (List.mem "/staging/r.txt" pathnames);
  (* The old path was never opened in this program, so it does not
     appear at all — matching the paper's rename description. *)
  check_bool "old path absent" false (List.mem "/staging/test.txt" pathnames)

let test_camflow_skip_list () =
  List.iter
    (fun (syscall, target) ->
      let prog = prog_of ~staging:staged ~setup:open_setup syscall target in
      let bg = camflow_graph prog Program.Background in
      let fg = camflow_graph prog Program.Foreground in
      check_bool (syscall ^ " not serialized") true (Graph.equal_structure bg fg))
    [
      ("dup", [ Syscall.Dup { fd = "id"; ret = "id2" } ]);
      ("symlink", [ Syscall.Symlink { target = "/staging/test.txt"; link_path = "/staging/s" } ]);
      ("mknod", [ Syscall.Mknod { path = "/staging/f" } ]);
      ("pipe", [ Syscall.Pipe { ret_read = "r"; ret_write = "w" } ]);
      ("close", [ Syscall.Close "id" ]);
    ]

let test_camflow_write_versions () =
  let prog = prog_of "write" ~setup:open_setup [ Syscall.Write { fd = "id"; count = 4 } ] in
  let fg = camflow_graph prog Program.Foreground in
  let derived =
    List.filter (fun (e : Graph.edge) -> e.Graph.edge_label = "wasDerivedFrom") (Graph.edges fg)
  in
  check_bool "write derives a new entity version" true (List.length derived >= 1)

let test_camflow_reserialize_workaround () =
  let prog = prog_of "open" open_setup in
  (* With the 0.4.5 workaround (default), two runs have the same shape. *)
  let g1 = camflow_graph prog Program.Foreground in
  let g2 = Recorders.Camflow.build (run_prog ~run_id:2 prog Program.Foreground) in
  check_bool "workaround: consistent runs" true (Gmatch.Vf2.similar g1 g2);
  (* Without it, nodes already serialized in the session are withheld,
     so the second run's graph is smaller — the problem the paper
     reports having had to work around with the CamFlow developers. *)
  let config = { Recorders.Camflow.default_config with Recorders.Camflow.reserialize = false } in
  let session = Recorders.Camflow.new_session () in
  let h1 = Recorders.Camflow.build ~config ~session (run_prog ~run_id:1 prog Program.Foreground) in
  let h2 = Recorders.Camflow.build ~config ~session (run_prog ~run_id:2 prog Program.Foreground) in
  check_bool "first run complete" true (Graph.size h1 > Graph.size h2);
  check_bool "runs inconsistent" false (Gmatch.Vf2.similar h1 h2)

let test_camflow_session_required () =
  let prog = prog_of "open" open_setup in
  let config = { Recorders.Camflow.default_config with Recorders.Camflow.reserialize = false } in
  match Recorders.Camflow.build ~config (run_prog prog Program.Foreground) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "reserialize=false without session must be rejected"

let test_camflow_track_self_varies () =
  let prog = prog_of "open" open_setup in
  let config = { Recorders.Camflow.default_config with Recorders.Camflow.track_self = true } in
  let g1 = Recorders.Camflow.build ~config (run_prog ~run_id:1 prog Program.Foreground) in
  let g5 =
    List.find_map
      (fun run_id ->
        let g = Recorders.Camflow.build ~config (run_prog ~run_id prog Program.Foreground) in
        if Graph.size g <> Graph.size g1 then Some g else None)
      [ 2; 3; 4; 5; 6; 7; 8 ]
  in
  check_bool "self-tracking makes run sizes vary" true (Option.is_some g5)

let test_camflow_filter_types () =
  let prog = prog_of "open" open_setup in
  let filtered =
    Recorders.Camflow.build
      ~config:{ Recorders.Camflow.default_config with Recorders.Camflow.filter_types = [ "path" ] }
      (run_prog prog Program.Foreground)
  in
  check_bool "no path entities" false
    (List.exists (fun (n : Graph.node) -> n.Graph.node_label = "path") (Graph.nodes filtered));
  (* File entities survive, with their incident used edges. *)
  check_bool "file entities kept" true
    (List.exists (fun (n : Graph.node) -> n.Graph.node_label = "file") (Graph.nodes filtered));
  check_bool "no dangling named edges" false
    (List.exists (fun (e : Graph.edge) -> e.Graph.edge_label = "named") (Graph.edges filtered))

let test_camflow_output_parses () =
  let prog = prog_of "open" open_setup in
  let text = Recorders.Camflow.record (run_prog prog Program.Foreground) in
  let g = Recorders.Provjson.of_string text in
  check_bool "non-empty" true (Graph.size g > 0);
  check_bool "same as direct build" true (Graph.equal g (camflow_graph prog Program.Foreground))

(* ------------------------------------------------------------------ *)
(* PROV-DM constraints                                                 *)
(* ------------------------------------------------------------------ *)

let test_prov_constraints_accept_camflow () =
  let prog = prog_of "rename" [ Syscall.Rename { old_path = "/staging/test.txt"; new_path = "/staging/r.txt" } ] in
  let g = Recorders.Camflow.build (run_prog prog Program.Foreground) in
  Alcotest.(check (list string)) "no violations" []
    (List.map Recorders.Prov_constraints.violation_to_string (Recorders.Prov_constraints.check g))

let test_prov_constraints_reject_bad_used () =
  (* A used edge from an entity to an entity violates PROV-DM. *)
  let g = Graph.add_node Graph.empty ~id:"f1" ~label:"file" ~props:Props.empty in
  let g = Graph.add_node g ~id:"f2" ~label:"file" ~props:Props.empty in
  let g = Graph.add_edge g ~id:"u" ~src:"f1" ~tgt:"f2" ~label:"used" ~props:Props.empty in
  match Recorders.Prov_constraints.check g with
  | [ v ] ->
      check_string "edge named" "u" v.Recorders.Prov_constraints.edge_id;
      check_bool "rule mentions used" true
        (String.length (Recorders.Prov_constraints.violation_to_string v) > 0)
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

let test_prov_constraints_ignore_unknown_relations () =
  let g = Graph.add_node Graph.empty ~id:"a" ~label:"file" ~props:Props.empty in
  let g = Graph.add_node g ~id:"b" ~label:"task" ~props:Props.empty in
  let g = Graph.add_edge g ~id:"x" ~src:"a" ~tgt:"b" ~label:"EXOTIC" ~props:Props.empty in
  check_int "unknown relations ignored" 0 (List.length (Recorders.Prov_constraints.check g))

let test_prov_categories () =
  check_bool "task is activity" true (Recorders.Prov_constraints.category_of_label "task" = `Activity);
  check_bool "machine is agent" true (Recorders.Prov_constraints.category_of_label "machine" = `Agent);
  check_bool "file is entity" true (Recorders.Prov_constraints.category_of_label "file" = `Entity)

(* ------------------------------------------------------------------ *)
(* SPADE with the CamFlow reporter (extension)                         *)
(* ------------------------------------------------------------------ *)

let spc_graph prog variant = Recorders.Spade_camflow.build (run_prog prog variant)

let test_spc_uses_spade_vocabulary () =
  let g = spc_graph (prog_of "open" open_setup) Program.Foreground in
  let labels = List.sort_uniq String.compare (Graph.node_label_multiset g) in
  check_bool "only OPM labels" true
    (List.for_all (fun l -> List.mem l [ "Process"; "Artifact" ]) labels)

let test_spc_chown_covered () =
  (* The audit-based SPADE misses chown; the LSM reporter sees the
     inode_setattr hook. *)
  let prog = prog_of "chown" [ Syscall.Chown { path = "/staging/test.txt"; uid = -1; gid = 1000 } ] in
  let bg = spc_graph prog Program.Background in
  let fg = spc_graph prog Program.Foreground in
  check_bool "chown visible" true (Graph.size fg > Graph.size bg)

let test_spc_symlink_not_covered () =
  let prog =
    prog_of "symlink" [ Syscall.Symlink { target = "/staging/test.txt"; link_path = "/staging/s" } ]
  in
  let bg = spc_graph prog Program.Background in
  let fg = spc_graph prog Program.Foreground in
  check_bool "symlink invisible (0.4.5 hook gap)" true (Graph.equal_structure bg fg)

let test_spc_vfork_connected () =
  (* task_alloc fires at fork time, so the vfork child connects — the DV
     quirk is specific to the audit reporter. *)
  let g = spc_graph (prog_of ~staging:[] "vfork" [ Syscall.Vfork ]) Program.Foreground in
  let disconnected =
    List.filter (fun (n : Graph.node) -> Graph.incident_edges g n.Graph.node_id = []) (Graph.nodes g)
  in
  check_int "no disconnected vertices" 0 (List.length disconnected)

let test_spc_denied_invisible () =
  let prog =
    prog_of "rename" [ Syscall.Rename { old_path = "/staging/test.txt"; new_path = "/etc/passwd" } ]
  in
  let bg = spc_graph prog Program.Background in
  let fg = spc_graph prog Program.Foreground in
  check_bool "denied hooks not reported" true (Graph.equal_structure bg fg)

let test_spc_output_is_dot () =
  let text = Recorders.Spade_camflow.record (run_prog (prog_of "open" open_setup) Program.Foreground) in
  let g = Recorders.Dot.to_pgraph (Recorders.Dot.of_string text) in
  check_bool "parses as DOT" true (Graph.size g > 0)

let () =
  Alcotest.run "recorders"
    [
      ( "dot",
        [
          Alcotest.test_case "roundtrip" `Quick test_dot_roundtrip;
          Alcotest.test_case "escapes" `Quick test_dot_escapes;
          Alcotest.test_case "parse" `Quick test_dot_parse_plain;
          Alcotest.test_case "parse errors" `Quick test_dot_parse_errors;
          Alcotest.test_case "undeclared edge endpoint" `Quick test_dot_undeclared_edge_node;
          Alcotest.test_case "edge before node declaration" `Quick test_dot_forward_reference;
          Alcotest.test_case "lexical error outranks grammar" `Quick test_dot_lexical_error_first;
          Alcotest.test_case "graph construction errors" `Quick test_dot_construction_errors;
        ] );
      ( "provjson",
        [
          Alcotest.test_case "roundtrip" `Quick test_provjson_roundtrip;
          Alcotest.test_case "sections" `Quick test_provjson_sections;
          Alcotest.test_case "errors" `Quick test_provjson_errors;
          Alcotest.test_case "error reasons and precedence" `Quick test_provjson_error_reasons;
        ] );
      ( "spade",
        [
          Alcotest.test_case "open adds node+edge" `Quick test_spade_open_adds_node_and_edge;
          Alcotest.test_case "failed calls invisible" `Quick test_spade_failed_calls_invisible;
          Alcotest.test_case "success-only off" `Quick test_spade_success_only_off_records_failures;
          Alcotest.test_case "vfork disconnected (DV)" `Quick test_spade_vfork_disconnected;
          Alcotest.test_case "fork connected" `Quick test_spade_fork_connected;
          Alcotest.test_case "dup not recorded" `Quick test_spade_dup_not_recorded;
          Alcotest.test_case "versioning flag" `Quick test_spade_versioning;
          Alcotest.test_case "truncation flake" `Quick test_spade_truncate_edges;
          Alcotest.test_case "transient properties vary" `Quick test_spade_transients_differ_across_runs;
          Alcotest.test_case "setres* bug without simplify" `Quick test_spade_setres_bug;
          Alcotest.test_case "procfs enrichment" `Quick test_spade_procfs_enrichment;
        ] );
      ( "opus",
        [
          Alcotest.test_case "environment recorded" `Quick test_opus_env_recorded;
          Alcotest.test_case "failed rename same structure" `Quick test_opus_failed_rename_same_structure;
          Alcotest.test_case "dup: two unconnected nodes" `Quick test_opus_dup_two_unconnected_nodes;
          Alcotest.test_case "clone blind spot" `Quick test_opus_clone_blind;
          Alcotest.test_case "fork graph large" `Quick test_opus_fork_large;
          Alcotest.test_case "record_io flag" `Quick test_opus_record_io_flag;
        ] );
      ( "prov-constraints",
        [
          Alcotest.test_case "camflow output accepted" `Quick test_prov_constraints_accept_camflow;
          Alcotest.test_case "bad used rejected" `Quick test_prov_constraints_reject_bad_used;
          Alcotest.test_case "unknown relations ignored" `Quick test_prov_constraints_ignore_unknown_relations;
          Alcotest.test_case "label categories" `Quick test_prov_categories;
        ] );
      ( "spade+camflow",
        [
          Alcotest.test_case "OPM vocabulary" `Quick test_spc_uses_spade_vocabulary;
          Alcotest.test_case "chown gained" `Quick test_spc_chown_covered;
          Alcotest.test_case "symlink lost" `Quick test_spc_symlink_not_covered;
          Alcotest.test_case "vfork connected" `Quick test_spc_vfork_connected;
          Alcotest.test_case "denied invisible" `Quick test_spc_denied_invisible;
          Alcotest.test_case "DOT output" `Quick test_spc_output_is_dot;
        ] );
      ( "camflow",
        [
          Alcotest.test_case "open: file and path entities" `Quick test_camflow_open_file_and_path;
          Alcotest.test_case "denied operations skipped" `Quick test_camflow_denied_not_recorded;
          Alcotest.test_case "rename adds only the new path" `Quick test_camflow_rename_adds_new_path_only;
          Alcotest.test_case "0.4.5 serialization gaps" `Quick test_camflow_skip_list;
          Alcotest.test_case "writes version entities" `Quick test_camflow_write_versions;
          Alcotest.test_case "reserialize workaround" `Quick test_camflow_reserialize_workaround;
          Alcotest.test_case "session required" `Quick test_camflow_session_required;
          Alcotest.test_case "self-tracking varies" `Quick test_camflow_track_self_varies;
          Alcotest.test_case "capture filters" `Quick test_camflow_filter_types;
          Alcotest.test_case "PROV-JSON output parses" `Quick test_camflow_output_parses;
        ] );
    ]
