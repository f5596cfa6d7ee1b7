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

let scalar k = function
  | Json.String s -> s
  | Json.Number f -> Printf.sprintf "%.0f" f
  | Json.Bool b -> string_of_bool b
  | _ -> fail "property %s has non-scalar value" k

(* The first binding of [key] among a member's fields. *)
let rec field key = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k key then Some v else field key rest

(* A member's properties: every field whose key [dropped] does not
   claim, in field order (a later duplicate key wins). *)
let props_of_fields fields ~dropped =
  List.fold_left
    (fun props (k, v) -> if dropped k then props else Pgraph.Props.add k (scalar k v) props)
    Pgraph.Props.empty fields

let is_node_section = function "entity" | "activity" | "agent" -> true | _ -> false

(* Relation section -> (label, source endpoint key, target endpoint key). *)
let edge_spec section =
  List.find_map
    (fun (label, (s, sk, tk)) -> if String.equal s section then Some (label, sk, tk) else None)
    relations

let to_pgraph_unsafe json =
  let open Pgraph in
  let sections = match json with Json.Object s -> s | _ -> fail "document is not an object" in
  let members section = function
    | Json.Object m -> m
    | _ -> fail "section %s not an object" section
  in
  let node_fields id = function Json.Object m -> m | _ -> fail "node %s not an object" id in
  let edge_fields id = function Json.Object m -> m | _ -> fail "edge %s not an object" id in
  let b = Graph.Builder.create () in
  (* Nodes first. *)
  List.iter
    (fun (section, value) ->
      if is_node_section section then
        List.iter
          (fun (id, body) ->
            let fields = node_fields id body in
            let label =
              match field "prov:type" fields with Some (Json.String t) -> t | _ -> section
            in
            Graph.Builder.add_node b ~id ~label
              ~props:(props_of_fields fields ~dropped:(String.equal "prov:type")))
          (members section value))
    sections;
  (* Then relations. *)
  let edge id fields (label, src_key, tgt_key) ~dropped =
    let endpoint key =
      match field key fields with
      | Some (Json.String s) -> s
      | _ -> fail "edge %s lacks endpoint %s" id key
    in
    let src = endpoint src_key and tgt = endpoint tgt_key in
    (* [add_edge] looks both endpoints up anyway, so they are only
       looked up again when something failed: an unknown endpoint is
       reported first, ahead of a bad property or a duplicate id. *)
    match
      Graph.Builder.add_edge b ~id ~src ~tgt ~label
        ~props:
          (props_of_fields fields ~dropped:(fun k ->
               String.equal k src_key || String.equal k tgt_key || dropped k))
    with
    | () -> ()
    | exception ((Format_error _ | Invalid_argument _) as e) ->
        if not (Graph.Builder.mem_node b src) then fail "edge %s references unknown node %s" id src;
        if not (Graph.Builder.mem_node b tgt) then fail "edge %s references unknown node %s" id tgt;
        raise e
  in
  List.iter
    (fun (section, value) ->
      if not (String.equal section "prefix" || is_node_section section) then
        let members = members section value in
        match edge_spec section with
        | Some spec ->
            List.iter (fun (id, body) -> edge id (edge_fields id body) spec ~dropped:(fun _ -> false)) members
        | None ->
            if String.equal section generic_section then
              List.iter
                (fun (id, body) ->
                  let fields = edge_fields id body in
                  let label =
                    match field "rel:type" fields with
                    | Some (Json.String t) -> t
                    | _ -> fail "relation %s lacks rel:type" id
                  in
                  edge id fields (label, "rel:from", "rel:to") ~dropped:(String.equal "rel:type"))
                members
            else fail "unknown section %s" section)
    sections;
  Graph.Builder.freeze b

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
