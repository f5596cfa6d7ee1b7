type t = {
  prune : bool;
  canon : bool;
  segment_min_nodes : int option;
  fallback : bool;
  memo : bool;
}

(* Below this size whole-graph solving beats the decomposition's
   overhead (and the suite's recorder graphs all stay below it, which
   keeps suite output byte-identical with segmentation on or off). *)
let default_segment_min_nodes = 64

let default =
  {
    prune = true;
    canon = true;
    segment_min_nodes = Some default_segment_min_nodes;
    fallback = true;
    memo = true;
  }
