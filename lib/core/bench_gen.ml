module Program = Oskernel.Program
module Syscall = Oskernel.Syscall

(* ------------------------------------------------------------------ *)
(* Failure variants                                                    *)
(* ------------------------------------------------------------------ *)

(* Retarget a call at a protected location (or privileged id) so it
   fails for the unprivileged benchmark user.  [None]: the call has no
   meaningful access-control failure mode. *)
let failing_call (c : Syscall.t) : Syscall.t option =
  match c with
  | Syscall.Open { flags = _; ret; _ } ->
      Some (Syscall.Open { path = "/etc/shadow"; flags = [ Syscall.O_RDWR ]; ret })
  | Syscall.Openat { flags = _; ret; _ } ->
      Some (Syscall.Openat { path = "/etc/shadow"; flags = [ Syscall.O_RDWR ]; ret })
  | Syscall.Creat { ret; _ } -> Some (Syscall.Creat { path = "/etc/intruder"; ret })
  | Syscall.Link { old_path; _ } ->
      Some (Syscall.Link { old_path; new_path = "/etc/intruder" })
  | Syscall.Linkat { old_path; _ } ->
      Some (Syscall.Linkat { old_path; new_path = "/etc/intruder" })
  | Syscall.Symlink { target; _ } ->
      Some (Syscall.Symlink { target; link_path = "/etc/intruder" })
  | Syscall.Symlinkat { target; _ } ->
      Some (Syscall.Symlinkat { target; link_path = "/etc/intruder" })
  | Syscall.Mknod _ -> Some (Syscall.Mknod { path = "/etc/intruder" })
  | Syscall.Mknodat _ -> Some (Syscall.Mknodat { path = "/etc/intruder" })
  | Syscall.Rename { old_path; _ } ->
      Some (Syscall.Rename { old_path; new_path = "/etc/passwd" })
  | Syscall.Renameat { old_path; _ } ->
      Some (Syscall.Renameat { old_path; new_path = "/etc/passwd" })
  | Syscall.Truncate { length; _ } -> Some (Syscall.Truncate { path = "/etc/passwd"; length })
  | Syscall.Unlink _ -> Some (Syscall.Unlink { path = "/etc/passwd" })
  | Syscall.Unlinkat _ -> Some (Syscall.Unlinkat { path = "/etc/passwd" })
  | Syscall.Chmod { mode; _ } -> Some (Syscall.Chmod { path = "/etc/passwd"; mode })
  | Syscall.Fchmodat { mode; _ } -> Some (Syscall.Fchmodat { path = "/etc/passwd"; mode })
  | Syscall.Chown _ -> Some (Syscall.Chown { path = "/etc/passwd"; uid = 1000; gid = 1000 })
  | Syscall.Fchownat _ ->
      Some (Syscall.Fchownat { path = "/etc/passwd"; uid = 1000; gid = 1000 })
  | Syscall.Setuid _ -> Some (Syscall.Setuid { uid = 0 })
  | Syscall.Setgid _ -> Some (Syscall.Setgid { gid = 0 })
  | Syscall.Setreuid _ -> Some (Syscall.Setreuid { ruid = 0; euid = 0 })
  | Syscall.Setregid _ -> Some (Syscall.Setregid { rgid = 0; egid = 0 })
  | Syscall.Setresuid _ -> Some (Syscall.Setresuid { ruid = 0; euid = 0; suid = 0 })
  | Syscall.Setresgid _ -> Some (Syscall.Setresgid { rgid = 0; egid = 0; sgid = 0 })
  | Syscall.Execve _ -> Some (Syscall.Execve { path = "/etc/shadow" })
  (* fd-based and process-lifecycle calls have no access-control
     failure to derive here. *)
  | Syscall.Close _ | Syscall.Dup _ | Syscall.Dup2 _ | Syscall.Dup3 _ | Syscall.Read _
  | Syscall.Pread _ | Syscall.Write _ | Syscall.Pwrite _ | Syscall.Ftruncate _
  | Syscall.Fchmod _ | Syscall.Fchown _ | Syscall.Clone | Syscall.Exit _ | Syscall.Fork
  | Syscall.Vfork | Syscall.Kill _ | Syscall.Pipe _ | Syscall.Pipe2 _ | Syscall.Tee _ -> None

let failure_variants () =
  List.filter_map
    (fun (p : Program.t) ->
      let targets = List.map failing_call p.Program.target in
      if List.exists Option.is_none targets || targets = [] then None
      else
        Some
          (Program.make
             ~name:("cmdFailed" ^ String.capitalize_ascii p.Program.syscall)
             ~syscall:p.Program.syscall ~staging:p.Program.staging ~setup:p.Program.setup
             ?cred:p.Program.cred
             ~target:(List.map Option.get targets)
             ()))
    Bench_registry.all

(* ------------------------------------------------------------------ *)
(* Sequence composition                                                *)
(* ------------------------------------------------------------------ *)

(* Rename every fd register through [f] so composed programs cannot
   observe each other's descriptors. *)
let map_regs f (c : Syscall.t) : Syscall.t =
  match c with
  | Syscall.Open r -> Syscall.Open { r with ret = f r.ret }
  | Syscall.Openat r -> Syscall.Openat { r with ret = f r.ret }
  | Syscall.Creat r -> Syscall.Creat { r with ret = f r.ret }
  | Syscall.Close r -> Syscall.Close (f r)
  | Syscall.Dup r -> Syscall.Dup { fd = f r.fd; ret = f r.ret }
  | Syscall.Dup2 r -> Syscall.Dup2 { r with fd = f r.fd; ret = f r.ret }
  | Syscall.Dup3 r -> Syscall.Dup3 { r with fd = f r.fd; ret = f r.ret }
  | Syscall.Read r -> Syscall.Read { r with fd = f r.fd }
  | Syscall.Pread r -> Syscall.Pread { r with fd = f r.fd }
  | Syscall.Write r -> Syscall.Write { r with fd = f r.fd }
  | Syscall.Pwrite r -> Syscall.Pwrite { r with fd = f r.fd }
  | Syscall.Ftruncate r -> Syscall.Ftruncate { r with fd = f r.fd }
  | Syscall.Fchmod r -> Syscall.Fchmod { r with fd = f r.fd }
  | Syscall.Fchown r -> Syscall.Fchown { r with fd = f r.fd }
  | Syscall.Pipe r -> Syscall.Pipe { ret_read = f r.ret_read; ret_write = f r.ret_write }
  | Syscall.Pipe2 r -> Syscall.Pipe2 { ret_read = f r.ret_read; ret_write = f r.ret_write }
  | Syscall.Tee r -> Syscall.Tee { fd_in = f r.fd_in; fd_out = f r.fd_out }
  | Syscall.Link _ | Syscall.Linkat _ | Syscall.Symlink _ | Syscall.Symlinkat _
  | Syscall.Mknod _ | Syscall.Mknodat _ | Syscall.Rename _ | Syscall.Renameat _
  | Syscall.Truncate _ | Syscall.Unlink _ | Syscall.Unlinkat _ | Syscall.Clone
  | Syscall.Execve _ | Syscall.Exit _ | Syscall.Fork | Syscall.Vfork | Syscall.Kill _
  | Syscall.Chmod _ | Syscall.Fchmodat _ | Syscall.Chown _ | Syscall.Fchownat _
  | Syscall.Setgid _ | Syscall.Setregid _ | Syscall.Setresgid _ | Syscall.Setuid _
  | Syscall.Setreuid _ | Syscall.Setresuid _ -> c

let sequence_benchmark names =
  let parts = List.map Bench_registry.find_exn names in
  let staging =
    List.fold_left
      (fun acc (p : Program.t) ->
        List.fold_left
          (fun acc (f : Program.staged_file) ->
            if List.exists (fun (g : Program.staged_file) -> g.Program.sf_path = f.Program.sf_path) acc
            then acc
            else f :: acc)
          acc p.Program.staging)
      [] parts
  in
  let rename i reg = Printf.sprintf "s%d_%s" i reg in
  let setup =
    List.concat (List.mapi (fun i (p : Program.t) -> List.map (map_regs (rename i)) p.Program.setup) parts)
  in
  let target =
    List.concat
      (List.mapi (fun i (p : Program.t) -> List.map (map_regs (rename i)) p.Program.target) parts)
  in
  let cred = List.find_map (fun (p : Program.t) -> p.Program.cred) parts in
  Program.make
    ~name:("cmdSeq_" ^ String.concat "_" names)
    ~syscall:(String.concat "+" names)
    ~staging:(List.rev staging) ~setup ?cred ~target ()

let pair_sequences names =
  let rec pairs = function
    | a :: (b :: _ as rest) -> sequence_benchmark [ a; b ] :: pairs rest
    | _ -> []
  in
  pairs names

(* ------------------------------------------------------------------ *)
(* Synthetic matching workloads                                        *)
(* ------------------------------------------------------------------ *)

module Prng = Oskernel.Prng
module Graph = Pgraph.Graph
module Props = Pgraph.Props

let node_label_pool = [| "process"; "file"; "socket"; "pipe" |]
let edge_label_pool = [| "used"; "wasGeneratedBy"; "wasInformedBy" |]

(* A provenance-shaped random DAG: node [i] points back at earlier
   nodes, so every graph is connected and acyclic like a real trace. *)
let random_graph rng nodes =
  let g = Graph.Builder.create () in
  for i = 0 to nodes - 1 do
    let label = node_label_pool.(Prng.int rng (Array.length node_label_pool)) in
    let props =
      Props.of_list
        [ ("seq", string_of_int i); ("token", Prng.hex_token rng) ]
    in
    Graph.Builder.add_node g ~id:(Printf.sprintf "n%d" i) ~label ~props
  done;
  let edge = ref 0 in
  for i = 1 to nodes - 1 do
    let fan = 1 + Prng.int rng 2 in
    for _ = 1 to fan do
      let tgt = Prng.int rng i in
      let label = edge_label_pool.(Prng.int rng (Array.length edge_label_pool)) in
      let props = Props.of_list [ ("op", Prng.hex_token rng) ] in
      Graph.Builder.add_edge g
        ~id:(Printf.sprintf "e%d" !edge)
        ~src:(Printf.sprintf "n%d" i)
        ~tgt:(Printf.sprintf "n%d" tgt)
        ~label ~props;
      incr edge
    done
  done;
  Graph.Builder.freeze g

let shuffle rng arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done

let match_pair ~nodes ~seed =
  let rng = Prng.create ~seed:(Int64.of_int seed) in
  let g1 = random_graph rng nodes in
  (* Isomorphic copy under a random identifier permutation... *)
  let rename ids prefix =
    let arr = Array.of_list ids in
    shuffle rng arr;
    let tbl = Hashtbl.create (Array.length arr) in
    Array.iteri (fun i id -> Hashtbl.add tbl id (Printf.sprintf "%s%d" prefix i)) arr;
    tbl
  in
  let node_map = rename (Graph.node_ids g1) "m" in
  let edge_map = rename (Graph.edge_ids g1) "f" in
  let lookup tbl id = match Hashtbl.find_opt tbl id with Some x -> x | None -> id in
  let g2 =
    Graph.map_ids (fun id -> lookup node_map (lookup edge_map id)) g1
  in
  (* ...with a sprinkle of perturbed transient properties, so the
     cost-minimizing matchings have real work to do. *)
  let tokens = Hashtbl.create 16 in
  let victims = max 1 (nodes / 8) in
  let node_ids = Array.of_list (Graph.node_ids g2) in
  for _ = 1 to victims do
    let id = node_ids.(Prng.int rng (Array.length node_ids)) in
    Hashtbl.replace tokens id (Prng.hex_token rng)
  done;
  let perturb (n : Graph.node) =
    match Hashtbl.find_opt tokens n.Graph.node_id with
    | Some token -> Props.add "token" token n.Graph.node_props
    | None -> n.Graph.node_props
  in
  (g1, Graph.map_props ~node:perturb ~edge:(fun e -> e.Graph.edge_props) g2)

(* A provenance trace with a rigid structure: a single lineage chain
   (node [i] consumes node [i-1], with occasional shortcut edges two
   steps back) — the shape of a real recorded syscall trace, where one
   process's actions follow each other in order.  Refinement separates
   every position by its distance from the ends, so the automorphism
   group is trivial and the delta re-solve fast path can certify
   transient-only re-runs of the same trace.  Labels and transient
   values are still seed-randomized. *)
let rigid_trace ~nodes ~seed =
  let rng = Prng.create ~seed:(Int64.of_int seed) in
  let g = Graph.Builder.create () in
  for i = 0 to nodes - 1 do
    let label = node_label_pool.(Prng.int rng (Array.length node_label_pool)) in
    Graph.Builder.add_node g ~id:(Printf.sprintf "n%d" i) ~label
      ~props:(Props.of_list [ ("seq", string_of_int i); ("token", Prng.hex_token rng) ])
  done;
  let edge = ref 0 in
  let link i j =
    let label = edge_label_pool.(Prng.int rng (Array.length edge_label_pool)) in
    Graph.Builder.add_edge g
      ~id:(Printf.sprintf "e%d" !edge)
      ~src:(Printf.sprintf "n%d" i)
      ~tgt:(Printf.sprintf "n%d" j)
      ~label ~props:(Props.of_list [ ("op", Prng.hex_token rng) ]);
    incr edge
  in
  for i = 1 to nodes - 1 do
    link i (i - 1);
    if i >= 2 && Prng.int rng 4 = 0 then link i (i - 2)
  done;
  Graph.Builder.freeze g

(* A transient-only rewrite of [g]: identical identifiers, labels,
   topology and structural properties, but every transient value
   ("token" on nodes, "op" on edges — the per-run noise [random_graph]
   plants) re-randomized from [seed].  The result has the same
   canonical structure digest as [g], which is exactly the shape the
   delta re-solve fast path certifies. *)
let transient_variant ~seed g =
  let rng = Prng.create ~seed:(Int64.of_int seed) in
  let refresh key props =
    if Props.mem key props then Props.add key (Prng.hex_token rng) props else props
  in
  Graph.map_props
    ~node:(fun n -> refresh "token" n.Graph.node_props)
    ~edge:(fun e -> refresh "op" e.Graph.edge_props)
    g
