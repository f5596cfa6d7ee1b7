open Minijson

exception Format_error of { offset : int option; reason : string }

let fail fmt = Printf.ksprintf (fun reason -> raise (Format_error { offset = None; reason })) fmt

let fail_at offset fmt =
  Printf.ksprintf (fun reason -> raise (Format_error { offset = Some offset; reason })) fmt

let activity_labels = [ "task"; "activity"; "process_memory" ]
let agent_labels = [ "machine"; "agent" ]

let node_section label =
  if List.mem label activity_labels then "activity"
  else if List.mem label agent_labels then "agent"
  else "entity"

(* Relation label -> (section, source endpoint key, target endpoint key). *)
let relations =
  [
    ("used", ("used", "prov:activity", "prov:entity"));
    ("wasGeneratedBy", ("wasGeneratedBy", "prov:entity", "prov:activity"));
    ("wasInformedBy", ("wasInformedBy", "prov:informed", "prov:informant"));
    ("wasDerivedFrom", ("wasDerivedFrom", "prov:generatedEntity", "prov:usedEntity"));
    ("wasAssociatedWith", ("wasAssociatedWith", "prov:activity", "prov:agent"));
  ]

let generic_section = "relation"

let of_pgraph g =
  let open Pgraph in
  let node_member (n : Graph.node) =
    ( n.Graph.node_id,
      Json.Object
        (("prov:type", Json.String n.Graph.node_label)
        :: List.map (fun (k, v) -> (k, Json.String v)) (Props.to_list n.Graph.node_props)) )
  in
  let sections = Hashtbl.create 8 in
  let add section member =
    let r =
      match Hashtbl.find_opt sections section with
      | Some r -> r
      | None ->
          let r = ref [] in
          Hashtbl.add sections section r;
          r
    in
    r := member :: !r
  in
  List.iter (fun n -> add (node_section n.Graph.node_label) (node_member n)) (Graph.nodes g);
  List.iter
    (fun (e : Graph.edge) ->
      let props = List.map (fun (k, v) -> (k, Json.String v)) (Props.to_list e.Graph.edge_props) in
      match List.assoc_opt e.Graph.edge_label relations with
      | Some (section, src_key, tgt_key) ->
          add section
            ( e.Graph.edge_id,
              Json.Object
                ((src_key, Json.String e.Graph.edge_src)
                :: (tgt_key, Json.String e.Graph.edge_tgt)
                :: props) )
      | None ->
          add generic_section
            ( e.Graph.edge_id,
              Json.Object
                (("rel:from", Json.String e.Graph.edge_src)
                :: ("rel:to", Json.String e.Graph.edge_tgt)
                :: ("rel:type", Json.String e.Graph.edge_label)
                :: props) ))
    (Graph.edges g);
  let section_order =
    [ "entity"; "activity"; "agent"; "used"; "wasGeneratedBy"; "wasInformedBy"; "wasDerivedFrom";
      "wasAssociatedWith"; generic_section ]
  in
  Json.Object
    (("prefix", Json.Object [ ("cf", Json.String "http://camflow.org/ns#") ])
    :: List.filter_map
         (fun s ->
           match Hashtbl.find_opt sections s with
           | None -> None
           | Some r -> Some (s, Json.Object (List.rev !r)))
         section_order)

let props_of_members members ~drop =
  List.filter_map
    (fun (k, v) ->
      if List.mem k drop then None
      else
        match v with
        | Json.String s -> Some ((k, s))
        | Json.Number f -> Some ((k, Printf.sprintf "%.0f" f))
        | Json.Bool b -> Some ((k, string_of_bool b))
        | _ -> fail "property %s has non-scalar value" k)
    members

let to_pgraph_unsafe json =
  let open Pgraph in
  let sections = match json with Json.Object s -> s | _ -> fail "document is not an object" in
  let node_sections = [ "entity"; "activity"; "agent" ] in
  let g = ref Graph.empty in
  (* Nodes first. *)
  List.iter
    (fun (section, value) ->
      if List.mem section node_sections then
        List.iter
          (fun (id, body) ->
            let members = match body with Json.Object m -> m | _ -> fail "node %s not an object" id in
            let label =
              match List.assoc_opt "prov:type" members with
              | Some (Json.String t) -> t
              | _ -> section
            in
            g :=
              Graph.add_node !g ~id ~label
                ~props:(Pgraph.Props.of_list (props_of_members members ~drop:[ "prov:type" ])))
          (match value with Json.Object m -> m | _ -> fail "section %s not an object" section))
    sections;
  (* Then relations. *)
  let known_edge_sections =
    List.map (fun (label, (section, sk, tk)) -> (section, (label, sk, tk))) relations
  in
  List.iter
    (fun (section, value) ->
      if String.equal section "prefix" || List.mem section node_sections then ()
      else
        let members = match value with Json.Object m -> m | _ -> fail "section %s not an object" section in
        let handle id body (label, src_key, tgt_key) extra_drop =
          let fields = match body with Json.Object m -> m | _ -> fail "edge %s not an object" id in
          let endpoint key =
            match List.assoc_opt key fields with
            | Some (Json.String s) -> s
            | _ -> fail "edge %s lacks endpoint %s" id key
          in
          let src = endpoint src_key and tgt = endpoint tgt_key in
          if not (Graph.mem_node !g src) then fail "edge %s references unknown node %s" id src;
          if not (Graph.mem_node !g tgt) then fail "edge %s references unknown node %s" id tgt;
          g :=
            Graph.add_edge !g ~id ~src ~tgt ~label
              ~props:
                (Pgraph.Props.of_list
                   (props_of_members fields ~drop:([ src_key; tgt_key ] @ extra_drop)))
        in
        match List.assoc_opt section known_edge_sections with
        | Some spec -> List.iter (fun (id, body) -> handle id body spec []) members
        | None ->
            if String.equal section generic_section then
              List.iter
                (fun (id, body) ->
                  let fields =
                    match body with Json.Object m -> m | _ -> fail "edge %s not an object" id
                  in
                  let label =
                    match List.assoc_opt "rel:type" fields with
                    | Some (Json.String t) -> t
                    | _ -> fail "relation %s lacks rel:type" id
                  in
                  handle id body (label, "rel:from", "rel:to") [ "rel:type" ])
                members
            else fail "unknown section %s" section)
    sections;
  !g

let to_pgraph json =
  try to_pgraph_unsafe json
  with Invalid_argument m ->
    (* Duplicate identifiers across sections surface from graph
       construction; rewrap so only Format_error leaves this module. *)
    fail "%s" m

let to_string g = Json.to_string ~pretty:true (of_pgraph g)

let of_string s =
  match Json.of_string_located s with
  | Error (offset, reason) -> fail_at offset "invalid JSON: %s" reason
  | Ok json -> to_pgraph json
