(* The native backend's decision log: which path of its fixed cascade
   answered each instance that got past the digest gates.  A counter
   per path, and a per-domain log that [Stage.compute] drains into
   span tags. *)

type path = Delta | Incr | Vf2 | Seg

let path_name = function
  | Delta -> "delta"
  | Incr -> "incremental"
  | Vf2 -> "vf2"
  | Seg -> "segmented"

let paths = [ Delta; Incr; Vf2; Seg ]
let index = function Delta -> 0 | Incr -> 1 | Vf2 -> 2 | Seg -> 3
let counters = Array.init (List.length paths) (fun _ -> Atomic.make 0)

(* Per-domain, like the engine's degradation notes: decisions made on
   pool domains surface on that domain's next drained stage — a
   profiling aid, not an accounting guarantee. *)
let log_key : string list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let note ~task path =
  Atomic.incr counters.(index path);
  let log = Domain.DLS.get log_key in
  log := (task ^ "=" ^ path_name path) :: !log

let drain_decisions () =
  let log = Domain.DLS.get log_key in
  let ds = List.rev !log in
  log := [];
  ds

let decision_counts () = List.map (fun p -> (path_name p, Atomic.get counters.(index p))) paths
let decisions_total () = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 counters
let mispredictions () = 0

let reset () =
  Array.iter (fun a -> Atomic.set a 0) counters;
  Domain.DLS.get log_key := []
