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

(* Witness rendering: a [<kind>: cost=<n>] line, then sorted mapping
   lines, which make the text independent of the order the solver
   emitted matching atoms in.  The buffer is sized to the text up
   front. *)
let witness_text kind (m : Gmatch.Matching.t) =
  let header = Printf.sprintf "%s: cost=%d\n" kind m.Gmatch.Matching.cost in
  let size pairs = List.fold_left (fun acc (a, b) -> acc + String.length a + String.length b + 9) 0 pairs in
  let buf =
    Buffer.create
      (String.length header + size m.Gmatch.Matching.node_map + size m.Gmatch.Matching.edge_map)
  in
  Buffer.add_string buf header;
  let lines tag pairs =
    List.sort
      (fun (a1, b1) (a2, b2) -> match String.compare a1 a2 with 0 -> String.compare b1 b2 | c -> c)
      pairs
    |> List.iter (fun (a, b) ->
           Buffer.add_string buf tag;
           Buffer.add_string buf a;
           Buffer.add_string buf " -> ";
           Buffer.add_string buf b;
           Buffer.add_char buf '\n')
  in
  lines "  n " m.Gmatch.Matching.node_map;
  lines "  e " m.Gmatch.Matching.edge_map;
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
        | Some m -> witness_text "generalize" m)
    | Compare -> (
        match Gmatch.Engine.subgraph_matching ?opts ?backend a b with
        | None -> "compare: no (first graph does not embed into the second)\n"
        | Some m -> witness_text "compare" m)
  in
  Fun.protect ~finally:(fun () -> ignore (Gmatch.Planner.drain_decisions ())) answer
