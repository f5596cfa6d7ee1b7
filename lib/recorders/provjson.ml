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

(* One member's fields, read in one walk.  Keys in [claimed] are not
   properties: the walk leaves the first binding of [claimed.(j)] in
   [first.(j)].  Every other field is a property, in field order (a
   later duplicate key wins); the first non-scalar one is left in
   [bad] rather than raised, so the caller's own faults can outrank
   it.  One [fields] serves every member of a section in turn. *)
type fields = { claimed : string array; first : Json.t option array; mutable bad : string option }

let fields claimed = { claimed; first = Array.make (Array.length claimed) None; bad = None }

let rec claim f k v j =
  j < Array.length f.claimed
  && (if String.equal k f.claimed.(j) then begin
        if Option.is_none f.first.(j) then f.first.(j) <- Some v;
        true
      end
      else claim f k v (j + 1))

let rec props_of f props = function
  | [] -> props
  | (k, v) :: rest ->
      if claim f k v 0 then props_of f props rest
      else
        let props =
          match v with
          | Json.String s -> Pgraph.Props.add k s props
          | Json.Number x -> Pgraph.Props.add k (Printf.sprintf "%.0f" x) props
          | Json.Bool b -> Pgraph.Props.add k (string_of_bool b) props
          | _ ->
              if Option.is_none f.bad then f.bad <- Some k;
              props
        in
        props_of f props rest

(* The properties of a member with fields [members]; [f.first] and
   [f.bad] describe it until the next [walk f]. *)
let walk f members =
  Array.fill f.first 0 (Array.length f.first) None;
  f.bad <- None;
  props_of f Pgraph.Props.empty members

let non_scalar k = fail "property %s has non-scalar value" k

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
        let f = fields [| "prov:type" |] in
        List.iter
          (fun (id, body) ->
            let props = walk f (node_fields id body) in
            let label = match f.first.(0) with Some (Json.String t) -> t | _ -> section in
            Option.iter non_scalar f.bad;
            Graph.Builder.add_node b ~id ~label ~props)
          (members section value))
    sections;
  (* Then relations: [f] has just walked edge [id]'s fields, and
     [f.first.(0)] and [f.first.(1)] are its endpoints. *)
  let edge id f props label =
    let endpoint j =
      match f.first.(j) with
      | Some (Json.String s) -> s
      | _ -> fail "edge %s lacks endpoint %s" id f.claimed.(j)
    in
    let src = endpoint 0 and tgt = endpoint 1 in
    (* [add_edge] looks both endpoints up anyway, so they are only
       looked up again when something failed: an unknown endpoint is
       reported first, ahead of a bad property or a duplicate id. *)
    let unknown_endpoint () =
      if not (Graph.Builder.mem_node b src) then fail "edge %s references unknown node %s" id src;
      if not (Graph.Builder.mem_node b tgt) then fail "edge %s references unknown node %s" id tgt
    in
    match f.bad with
    | Some k ->
        unknown_endpoint ();
        non_scalar k
    | None -> (
        match Graph.Builder.add_edge b ~id ~src ~tgt ~label ~props with
        | () -> ()
        | exception (Invalid_argument _ as e) ->
            unknown_endpoint ();
            raise e)
  in
  List.iter
    (fun (section, value) ->
      if not (String.equal section "prefix" || is_node_section section) then
        let members = members section value in
        match edge_spec section with
        | Some (label, src_key, tgt_key) ->
            let f = fields [| src_key; tgt_key |] in
            List.iter (fun (id, body) -> edge id f (walk f (edge_fields id body)) label) members
        | None ->
            if String.equal section generic_section then
              let f = fields [| "rel:from"; "rel:to"; "rel:type" |] in
              List.iter
                (fun (id, body) ->
                  let props = walk f (edge_fields id body) in
                  let label =
                    match f.first.(2) with
                    | Some (Json.String t) -> t
                    | _ -> fail "relation %s lacks rel:type" id
                  in
                  edge id f props label)
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
