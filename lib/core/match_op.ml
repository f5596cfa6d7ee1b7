type kind = Similar | Generalize | Compare

let kind_of_string = function
  | "similar" -> Ok Similar
  | "generalize" -> Ok Generalize
  | "compare" -> Ok Compare
  | s -> Error (Printf.sprintf "unknown match kind %S (expected similar, generalize or compare)" s)

let kind_to_string = function
  | Similar -> "similar"
  | Generalize -> "generalize"
  | Compare -> "compare"

type format = Dot | Provjson

let format_of_string = function
  | "dot" -> Ok Dot
  | "provjson" -> Ok Provjson
  | s -> Error (Printf.sprintf "unknown graph format %S (expected dot or provjson)" s)

let format_name = function Dot -> "dot" | Provjson -> "provjson"

let format_for_file file = if Filename.check_suffix file ".dot" then Dot else Provjson

let parse_graph format text =
  match
    match format with
    | Dot -> Recorders.Dot.to_pgraph (Recorders.Dot.of_string text)
    | Provjson -> Recorders.Provjson.of_string text
  with
  | g -> Ok g
  | exception ((Stack_overflow | Out_of_memory) as e) -> raise e
  | exception e -> Error (Printf.sprintf "graph parse error: %s" (Printexc.to_string e))

(* Witness rendering: sorted mapping lines make the text independent of
   the order the solver emitted matching atoms in. *)
let matching_lines (m : Gmatch.Matching.t) =
  let buf = Buffer.create 256 in
  List.iter
    (fun (a, b) -> Buffer.add_string buf (Printf.sprintf "  n %s -> %s\n" a b))
    (List.sort compare m.Gmatch.Matching.node_map);
  List.iter
    (fun (a, b) -> Buffer.add_string buf (Printf.sprintf "  e %s -> %s\n" a b))
    (List.sort compare m.Gmatch.Matching.edge_map);
  Buffer.contents buf

(* A match runs outside any stage, so no [Stage.compute] drains the
   decision lines the native cascade leaves on this domain: drop them
   here, or a long-lived daemon grows the log without bound and the
   next stage on this domain reports them as its own. *)
let run ?opts ?backend kind a b =
  let answer () =
    match kind with
    | Similar ->
        Printf.sprintf "similar: %s\n"
          (if Gmatch.Engine.similar ?opts ?backend a b then "yes" else "no")
    | Generalize -> (
        match Gmatch.Engine.generalization_matching ?opts ?backend a b with
        | None -> "generalize: no (graphs are not similar)\n"
        | Some m ->
            Printf.sprintf "generalize: cost=%d\n%s" m.Gmatch.Matching.cost (matching_lines m))
    | Compare -> (
        match Gmatch.Engine.subgraph_matching ?opts ?backend a b with
        | None -> "compare: no (first graph does not embed into the second)\n"
        | Some m -> Printf.sprintf "compare: cost=%d\n%s" m.Gmatch.Matching.cost (matching_lines m))
  in
  Fun.protect ~finally:(fun () -> ignore (Gmatch.Planner.drain_decisions ())) answer
