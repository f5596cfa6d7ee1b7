module Program = Oskernel.Program
module Syscall = Oskernel.Syscall
module Prng = Oskernel.Prng

type spec = {
  name : string;
  staging : Program.staged_file list;
  setup : Syscall.t list;
  threads : Syscall.t list list;
}

(* All merges of the thread sequences, depth-first with the earlier
   thread preferred, truncated at [limit]. *)
let schedules ?(limit = 64) spec =
  let out = ref [] in
  let count = ref 0 in
  let rec go acc threads =
    if !count >= limit then ()
    else if List.for_all (fun t -> t = []) threads then (
      incr count;
      out := List.rev acc :: !out)
    else
      List.iteri
        (fun i thread ->
          match thread with
          | [] -> ()
          | call :: rest ->
              let threads' = List.mapi (fun j t -> if i = j then rest else t) threads in
              go (call :: acc) threads')
        threads
  in
  go [] spec.threads;
  List.rev !out

type behaviour = {
  target : Pgraph.Graph.t;
  observations : int;
}

type outcome = {
  behaviours : behaviour list;
  trials : int;
  schedules_total : int;
  schedules_exercised : int;
  discarded : int;
}

type failure =
  | No_background
  | No_behaviour

let failure_to_string = function
  | No_background -> "background generalization failed"
  | No_behaviour -> "no foreground behaviour was observed at least twice"

let program_for spec target =
  Program.make ~name:spec.name ~syscall:spec.name ~staging:spec.staging ~setup:spec.setup
    ~target ()

let benchmark (config : Config.t) spec =
  let scheds = Array.of_list (schedules spec) in
  if Array.length scheds = 0 || List.for_all (fun t -> t = []) spec.threads then
    Error No_behaviour
  else begin
    let backend = config.Config.backend and opts = config.Config.opts in
    (* Background: the usual deterministic pipeline on setup only. *)
    let bg_prog = program_for spec [] in
    let bg_recs = Recording.record_variant config bg_prog Program.Background in
    let bg_graphs = Transform.batch bg_recs in
    match
      Generalize.generalize ~opts ~backend ~filter:config.Config.filter_graphs
        ~pair_choice:config.Config.pair_choice bg_graphs
    with
    | Error _ -> Error No_background
    | Ok bg ->
        (* Foreground: one run per trial, schedule drawn per trial. *)
        let prng = Prng.create ~seed:(Int64.of_int ((config.Config.seed * 7919) + 13)) in
        let drawn = ref [] in
        let fg_graphs =
          List.init config.Config.trials (fun trial ->
              let s = Prng.int prng (Array.length scheds) in
              drawn := s :: !drawn;
              let prog = program_for spec scheds.(s) in
              let recs =
                Recording.record_variant
                  { config with Config.trials = 1; seed = config.Config.seed + (trial * 131) }
                  prog Program.Foreground
              in
              List.hd (Transform.batch recs))
        in
        (* Group trials by structure (the paper's "fingerprinting"). *)
        let classes : (Pgraph.Fingerprint.t * Pgraph.Graph.t list ref) list ref = ref [] in
        List.iter
          (fun g ->
            let fp = Pgraph.Fingerprint.of_graph g in
            let rec place = function
              | [] -> classes := !classes @ [ (fp, ref [ g ]) ]
              | (fp', members) :: rest ->
                  if
                    Pgraph.Fingerprint.equal fp fp'
                    && match !members with m :: _ -> Gmatch.Engine.similar ~opts ~backend g m | [] -> false
                  then members := g :: !members
                  else place rest
            in
            place !classes)
          fg_graphs;
        let eligible, singletons =
          List.partition (fun (_, members) -> List.length !members >= 2) !classes
        in
        let behaviours =
          List.filter_map
            (fun (_, members) ->
              match !members with
              | g1 :: g2 :: _ -> (
                  match Gmatch.Engine.generalization_matching ~opts ~backend g1 g2 with
                  | None -> None
                  | Some m ->
                      let general = Generalize.intersect_props g1 g2 m in
                      let target =
                        if Gmatch.Engine.similar ~opts ~backend bg.Generalize.general general then
                          Pgraph.Graph.empty
                        else
                          match Compare.compare_with opts ~backend ~bg:bg.Generalize.general ~fg:general with
                          | Ok o -> o.Compare.target
                          | Error _ -> Pgraph.Graph.empty
                      in
                      Some { target; observations = List.length !members })
              | _ -> None)
            eligible
        in
        if behaviours = [] then Error No_behaviour
        else
          Ok
            {
              behaviours =
                List.sort (fun a b -> Int.compare b.observations a.observations) behaviours;
              trials = config.Config.trials;
              schedules_total = Array.length scheds;
              schedules_exercised = List.length (List.sort_uniq Int.compare !drawn);
              discarded = List.length singletons;
            }
  end
