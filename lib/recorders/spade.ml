open Pgraph
module Event = Oskernel.Event
module Trace = Oskernel.Trace
module Prng = Oskernel.Prng

type config = {
  simplify : bool;
  io_runs : bool;
  io_runs_fixed : bool;
  versioning : bool;
  success_only : bool;
  use_procfs : bool;
}

let default_config =
  {
    simplify = true;
    io_runs = false;
    io_runs_fixed = false;
    versioning = false;
    success_only = true;
    use_procfs = false;
  }

type builder = {
  g : Graph.Builder.t;
  mutable next : int;
  procs : (int, string) Hashtbl.t;  (* pid -> current process vertex *)
  artifacts : (string, string) Hashtbl.t;  (* path -> current artifact vertex *)
  versions : (string, int) Hashtbl.t;  (* path -> version counter *)
  prng : Prng.t;
}

let fresh b prefix =
  b.next <- b.next + 1;
  Printf.sprintf "%s%d" prefix b.next

let add_node b ~label ~props =
  let id = fresh b "v" in
  Graph.Builder.add_node b.g ~id ~label ~props:(Props.of_list props);
  id

let add_edge b ~src ~tgt ~label ~props =
  let id = fresh b "r" in
  Graph.Builder.add_edge b.g ~id ~src ~tgt ~label ~props:(Props.of_list props);
  id

let process_props ?(config = default_config) (r : Event.audit_record) =
  [
    ("pid", string_of_int r.Event.a_pid);
    ("ppid", string_of_int r.Event.a_ppid);
    ("name", r.Event.a_comm);
    ("exe", r.Event.a_exe);
    ("uid", string_of_int r.Event.a_uid);
    ("euid", string_of_int r.Event.a_euid);
    ("gid", string_of_int r.Event.a_gid);
    ("egid", string_of_int r.Event.a_egid);
    ("start time", string_of_int r.Event.a_time);
  ]
  @
  (* procfs enrichment: stable metadata SPADE reads from /proc when the
     option is enabled. *)
  if config.use_procfs then [ ("cwd", "/staging"); ("cmdline", r.Event.a_exe) ] else []

let ensure_process b ~config (r : Event.audit_record) =
  match Hashtbl.find_opt b.procs r.Event.a_pid with
  | Some id -> id
  | None ->
      let id = add_node b ~label:"Process" ~props:(process_props ~config r) in
      Hashtbl.replace b.procs r.Event.a_pid id;
      id

let version_of b path = Option.value (Hashtbl.find_opt b.versions path) ~default:0

let artifact_key path version = Printf.sprintf "%s#%d" path version

let ensure_artifact b ~config path =
  let version = if config.versioning then version_of b path else 0 in
  let key = artifact_key path version in
  match Hashtbl.find_opt b.artifacts key with
  | Some id -> id
  | None ->
      let id =
        add_node b ~label:"Artifact"
          ~props:[ ("path", path); ("version", string_of_int version) ]
      in
      Hashtbl.replace b.artifacts key id;
      id

(* With versioning on, a write makes a fresh artifact version derived
   from the previous one. *)
let bump_version b ~config ~time path proc =
  if not config.versioning then ensure_artifact b ~config path
  else begin
    let old_id = ensure_artifact b ~config path in
    let v = version_of b path + 1 in
    Hashtbl.replace b.versions path v;
    let id =
      add_node b ~label:"Artifact" ~props:[ ("path", path); ("version", string_of_int v) ]
    in
    Hashtbl.replace b.artifacts (artifact_key path v) id;
    ignore
      (add_edge b ~src:id ~tgt:old_id ~label:"WasDerivedFrom"
         ~props:[ ("operation", "version"); ("time", string_of_int time) ]);
    ignore proc;
    id
  end

let first_path (r : Event.audit_record) =
  match r.Event.a_paths with p :: _ -> Some p | [] -> None

let fd_path (r : Event.audit_record) =
  match r.Event.a_fds with { Event.path = Some p; _ } :: _ -> Some p | _ -> None

let arg r key = List.assoc_opt key r.Event.a_args

let time_prop (r : Event.audit_record) = ("time", string_of_int r.Event.a_time)

let event_id_prop (r : Event.audit_record) = ("event id", string_of_int r.Event.a_seq)

(* Replace the process vertex for a pid, connecting the new vertex to
   the old one: how SPADE represents execve and credential changes. *)
let new_process_state b ~config (r : Event.audit_record) ~operation =
  let old_id = ensure_process b ~config r in
  let new_id = add_node b ~label:"Process" ~props:(process_props ~config r) in
  Hashtbl.replace b.procs r.Event.a_pid new_id;
  ignore
    (add_edge b ~src:new_id ~tgt:old_id ~label:"WasTriggeredBy"
       ~props:[ ("operation", operation); time_prop r; event_id_prop r ]);
  new_id

let handle_record b ~config (r : Event.audit_record) =
  let syscall = r.Event.a_syscall in
  (* State-change monitoring: SPADE notices credential changes through
     the uid/gid fields of subsequent records even for calls its audit
     rules do not report explicitly (the SC rows of Table 2). *)
  let explicit_cred_change =
    List.mem syscall [ "setuid"; "setreuid"; "setgid"; "setregid"; "setresuid"; "setresgid"; "execve" ]
  in
  (if not explicit_cred_change then
     match Hashtbl.find_opt b.procs r.Event.a_pid with
     | Some id -> (
         match Graph.Builder.find_node b.g id with
         | Some node ->
             let differs key v =
               match Props.find key node.Graph.node_props with
               | Some w -> not (String.equal w v)
               | None -> false
             in
             if
               differs "euid" (string_of_int r.Event.a_euid)
               || differs "egid" (string_of_int r.Event.a_egid)
             then ignore (new_process_state b ~config r ~operation:"update")
         | None -> ())
     | None -> ());
  let proc () = ensure_process b ~config r in
  let used ?(operation = syscall) path =
    let p = proc () in
    let a = ensure_artifact b ~config path in
    ignore
      (add_edge b ~src:p ~tgt:a ~label:"Used"
         ~props:[ ("operation", operation); time_prop r; event_id_prop r ])
  in
  let generated ?(operation = syscall) ?(extra = []) path =
    let p = proc () in
    let a = bump_version b ~config ~time:r.Event.a_time path p in
    ignore
      (add_edge b ~src:a ~tgt:p ~label:"WasGeneratedBy"
         ~props:(((("operation", operation) :: extra) @ [ time_prop r; event_id_prop r ])))
  in
  let derived ~old_path ~new_path =
    let p = proc () in
    let old_a = ensure_artifact b ~config old_path in
    let new_a = ensure_artifact b ~config new_path in
    ignore
      (add_edge b ~src:new_a ~tgt:old_a ~label:"WasDerivedFrom"
         ~props:[ ("operation", syscall); time_prop r; event_id_prop r ]);
    ignore
      (add_edge b ~src:new_a ~tgt:p ~label:"WasGeneratedBy"
         ~props:[ ("operation", syscall); time_prop r; event_id_prop r ]);
    (old_a, new_a)
  in
  match syscall with
  | "fork" | "clone" ->
      let parent = proc () in
      let child_pid = r.Event.a_exit in
      (match Hashtbl.find_opt b.procs child_pid with
      | Some _ -> ()
      | None ->
          let child =
            add_node b ~label:"Process"
              ~props:
                [
                  ("pid", string_of_int child_pid);
                  ("ppid", string_of_int r.Event.a_pid);
                  ("name", r.Event.a_comm);
                  ("exe", r.Event.a_exe);
                  ("uid", string_of_int r.Event.a_uid);
                  ("euid", string_of_int r.Event.a_euid);
                  ("gid", string_of_int r.Event.a_gid);
                  ("egid", string_of_int r.Event.a_egid);
                  ("start time", string_of_int r.Event.a_time);
                ]
          in
          Hashtbl.replace b.procs child_pid child;
          ignore
            (add_edge b ~src:child ~tgt:parent ~label:"WasTriggeredBy"
               ~props:[ ("operation", syscall); time_prop r; event_id_prop r ]))
  | "vfork" ->
      (* The child was already seen (Audit reports at syscall exit, and
         the vforking parent was suspended until the child exited), and
         SPADE tc-e3 does not connect it: the disconnected-vfork quirk. *)
      ignore (proc ());
      let child_pid = r.Event.a_exit in
      if not (Hashtbl.mem b.procs child_pid) then (
        let child =
          add_node b ~label:"Process"
            ~props:[ ("pid", string_of_int child_pid); ("start time", string_of_int r.Event.a_time) ]
        in
        Hashtbl.replace b.procs child_pid child)
  | "execve" -> (
      ignore (new_process_state b ~config r ~operation:"execve");
      match first_path r with
      | Some path -> used ~operation:"load" path
      | None -> ())
  | "exit" ->
      (* Ensures a vertex exists for processes first seen here (the
         vfork child); adds nothing for known processes. *)
      ignore (proc ())
  | "open" | "openat" -> (
      match first_path r with
      | Some path ->
          let flags = Option.value (arg r "flags") ~default:"" in
          (* An open that creates or truncates generates the artifact;
             a plain open reads it. *)
          let sub = (fun needle hay ->
            let ln = String.length needle and lh = String.length hay in
            let rec go i = i + ln <= lh && (String.equal (String.sub hay i ln) needle || go (i + 1)) in
            ln > 0 && go 0) in
          if sub "O_CREAT" flags || sub "O_TRUNC" flags then generated ~operation:syscall path
          else used path
      | None -> ())
  | "creat" -> ( match first_path r with Some path -> generated path | None -> ())
  | "close" -> ( match fd_path r with Some path -> used path | None -> ())
  | "read" | "pread" -> ( match fd_path r with Some path -> used path | None -> ())
  | "mmap" -> ( match fd_path r with Some path -> used path | None -> ())
  | "write" | "pwrite" -> (
      match fd_path r with Some path -> generated path | None -> ())
  | "truncate" -> ( match first_path r with Some path -> generated path | None -> ())
  | "ftruncate" -> ( match fd_path r with Some path -> generated path | None -> ())
  | "rename" | "renameat" -> (
      match r.Event.a_paths with
      | [ old_path; new_path ] ->
          let old_a, _ = derived ~old_path ~new_path in
          let p = Hashtbl.find b.procs r.Event.a_pid in
          ignore
            (add_edge b ~src:p ~tgt:old_a ~label:"Used"
               ~props:[ ("operation", syscall); time_prop r; event_id_prop r ])
      | _ -> ())
  | "link" | "linkat" | "symlink" | "symlinkat" -> (
      match r.Event.a_paths with
      | [ old_path; new_path ] -> ignore (derived ~old_path ~new_path)
      | [ new_path ] -> (
          match arg r "oldname" with
          | Some old_path -> ignore (derived ~old_path ~new_path)
          | None -> ())
      | _ -> ())
  | "unlink" | "unlinkat" -> (
      match first_path r with Some path -> used path | None -> ())
  | "chmod" | "fchmodat" -> (
      match first_path r with
      | Some path ->
          generated ~extra:(match arg r "mode" with Some m -> [ ("mode", m) ] | None -> []) path
      | None -> ())
  | "fchmod" -> (
      match fd_path r with
      | Some path ->
          generated ~extra:(match arg r "mode" with Some m -> [ ("mode", m) ] | None -> []) path
      | None -> ())
  | "setuid" | "setreuid" | "setgid" | "setregid" ->
      ignore (new_process_state b ~config r ~operation:syscall)
  | "setresuid" | "setresgid" ->
      if not config.simplify then (
        (* tc-e3 bug: the fresh process vertex is attached to a spurious
           vertex, and the connecting edge carries a property initialized
           from uninitialized memory — random per run. *)
        let new_id = add_node b ~label:"Process" ~props:(process_props ~config r) in
        Hashtbl.replace b.procs r.Event.a_pid new_id;
        let spurious = add_node b ~label:"Process" ~props:[] in
        ignore
          (add_edge b ~src:new_id ~tgt:spurious ~label:"WasTriggeredBy"
             ~props:
               [
                 ("operation", syscall);
                 ("flags", Prng.hex_token b.prng);
                 time_prop r;
                 event_id_prop r;
               ]))
  (* With simplify on, the audit rules do not include setres*; the
     change is still caught by state-change monitoring above (SC). *)
  | "mknod" | "mknodat" | "dup" | "dup2" | "dup3" | "chown" | "fchown" | "fchownat" | "pipe"
  | "pipe2" | "tee" | "kill" ->
      (* Not recorded by SPADE's handler (NR/SC rows of Table 2). *)
      ()
  | _ -> ()

(* The IORuns filter coalesces runs of read/write edges between the same
   endpoints.  The benchmarked SPADE version looks up property key "op",
   but the reporter emits "operation" — so the filter silently does
   nothing until the fixed key is used (the inconsistency the paper's
   configuration-validation use case uncovered). *)
let io_runs_filter ~fixed g =
  let key = if fixed then "operation" else "op" in
  let is_io e =
    match Props.find key e.Graph.edge_props with
    | Some ("read" | "write" | "pread" | "pwrite") -> true
    | Some _ | None -> false
  in
  (* A run is the io edges of one group; its first edge in id order
     stays, with a [count] of the run when it has company. *)
  let runs = Hashtbl.create 16 in
  let run e =
    if not (is_io e) then None
    else
      let group =
        (e.Graph.edge_src, e.Graph.edge_tgt, e.Graph.edge_label, Props.find key e.Graph.edge_props)
      in
      match Hashtbl.find_opt runs group with
      | Some r -> Some r
      | None ->
          let r = (e.Graph.edge_id, ref 0) in
          Hashtbl.replace runs group r;
          Some r
  in
  List.iter (fun e -> Option.iter (fun (_, size) -> incr size) (run e)) (Graph.edges g);
  let first e = match run e with Some (id, _) -> String.equal id e.Graph.edge_id | None -> true in
  Graph.filter ~node:(fun _ -> true) ~edge:first g
  |> Graph.map_props
       ~node:(fun n -> n.Graph.node_props)
       ~edge:(fun e ->
         match run e with
         | Some (_, size) when !size > 1 -> Props.add "count" (string_of_int !size) e.Graph.edge_props
         | _ -> e.Graph.edge_props)

let build ?(config = default_config) (trace : Trace.t) =
  let b =
    {
      g = Graph.Builder.create ();
      next = 0;
      procs = Hashtbl.create 8;
      artifacts = Hashtbl.create 8;
      versions = Hashtbl.create 8;
      prng = Prng.create ~seed:(Int64.of_string ("0x" ^ trace.Trace.boot_id));
    }
  in
  List.iter
    (fun (r : Event.audit_record) ->
      if r.Event.a_success || not config.success_only then handle_record b ~config r)
    trace.Trace.audit;
  let g = Graph.Builder.freeze b.g in
  if config.io_runs then io_runs_filter ~fixed:config.io_runs_fixed g else g

(* Edge identifiers are r<k> with k increasing in insertion order; a
   truncated flush drops the numerically largest ones. *)
let truncate g truncate_edges =
  if truncate_edges <= 0 then g
  else
    let numeric id =
      match int_of_string_opt (String.sub id 1 (String.length id - 1)) with
      | Some n -> n
      | None -> 0
    in
    let dropped = Hashtbl.create truncate_edges in
    List.sort (fun a b -> Int.compare (numeric b) (numeric a)) (Graph.edge_ids g)
    |> List.iteri (fun k id -> if k < truncate_edges then Hashtbl.replace dropped id ());
    Graph.filter ~node:(fun _ -> true) ~edge:(fun e -> not (Hashtbl.mem dropped e.Graph.edge_id)) g

let record ?(config = default_config) ?(truncate_edges = 0) trace =
  Dot.to_string (Dot.of_pgraph ~name:"spade" (truncate (build ~config trace) truncate_edges))

let record_to_store ?(config = default_config) ?(truncate_edges = 0) trace =
  Store_bridge.to_store (truncate (build ~config trace) truncate_edges)

let store_to_pgraph = Store_bridge.of_store
