open Pgraph

type violation = {
  edge_id : string;
  rule : string;
}

let category_of_label label =
  if List.mem label Provjson.activity_labels then `Activity
  else if List.mem label Provjson.agent_labels then `Agent
  else `Entity

let category_name = function `Activity -> "activity" | `Agent -> "agent" | `Entity -> "entity"

(* PROV-DM endpoint typing per relation, as (source, target) categories.
   [named] is CamFlow's path-to-file association: entity -> entity. *)
let expected_endpoints = function
  | "used" -> Some (`Activity, `Entity)
  | "wasGeneratedBy" -> Some (`Entity, `Activity)
  | "wasInformedBy" -> Some (`Activity, `Activity)
  | "wasAssociatedWith" -> Some (`Activity, `Agent)
  | "wasDerivedFrom" -> Some (`Entity, `Entity)
  | "named" -> Some (`Entity, `Entity)
  | _ -> None

let check (g : Graph.t) =
  List.filter_map Fun.id
    (List.mapi
       (fun ei (e : Graph.edge) ->
         match expected_endpoints e.Graph.edge_label with
         | None -> None
         | Some (want_src, want_tgt) ->
             let src_cat = category_of_label g.Graph.nodes.(g.Graph.src.(ei)).Graph.node_label in
             let tgt_cat = category_of_label g.Graph.nodes.(g.Graph.tgt.(ei)).Graph.node_label in
             if src_cat = want_src && tgt_cat = want_tgt then None
             else
               Some
                 {
                   edge_id = e.Graph.edge_id;
                   rule =
                     Printf.sprintf "%s: %s -> %s (found %s -> %s)" e.Graph.edge_label
                       (category_name want_src) (category_name want_tgt) (category_name src_cat)
                       (category_name tgt_cat);
                 })
       (Graph.edges g))

let violation_to_string v = Printf.sprintf "%s violates %s" v.edge_id v.rule
