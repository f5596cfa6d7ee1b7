open Pgraph
module Event = Oskernel.Event
module Trace = Oskernel.Trace

type builder = {
  g : Graph.Builder.t;
  mutable next : int;
  procs : (int, string) Hashtbl.t;
  artifacts : (int, string) Hashtbl.t;  (* keyed by inode number *)
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
  Graph.Builder.add_edge b.g ~id ~src ~tgt ~label ~props:(Props.of_list props)

let time_prop (s : Event.lsm_record) = ("time", string_of_int s.Event.s_time)

let ensure_process b (s : Event.lsm_record) =
  match Hashtbl.find_opt b.procs s.Event.s_pid with
  | Some id -> id
  | None ->
      let id =
        add_node b ~label:"Process"
          ~props:[ ("pid", string_of_int s.Event.s_pid); ("source", "camflow"); time_prop s ]
      in
      Hashtbl.replace b.procs s.Event.s_pid id;
      id

let ensure_artifact b ~ino ~path ~kind ~time =
  match Hashtbl.find_opt b.artifacts ino with
  | Some id -> id
  | None ->
      let props =
        [ ("ino", string_of_int ino); ("subtype", kind); ("time", string_of_int time) ]
        @ (match path with Some p -> [ ("path", p) ] | None -> [])
      in
      let id = add_node b ~label:"Artifact" ~props in
      Hashtbl.replace b.artifacts ino id;
      id

let inode_parts (s : Event.lsm_record) =
  match s.Event.s_obj with
  | Event.Obj_inode { ino; path; kind } -> Some (ino, path, kind)
  | Event.Obj_process _ | Event.Obj_cred _ -> None

(* Replace the process vertex (execve / credential changes), as the
   Audit-based SPADE reporter does. *)
let new_process_state b (s : Event.lsm_record) ~operation =
  let old_id = ensure_process b s in
  let new_id =
    add_node b ~label:"Process"
      ~props:[ ("pid", string_of_int s.Event.s_pid); ("source", "camflow"); time_prop s ]
  in
  Hashtbl.replace b.procs s.Event.s_pid new_id;
  add_edge b ~src:new_id ~tgt:old_id ~label:"WasTriggeredBy"
    ~props:[ ("operation", operation); time_prop s ]

let handle b (s : Event.lsm_record) =
  if not s.Event.s_allowed then ()
  else
    let used ?(operation = "") () =
      match inode_parts s with
      | Some (ino, path, kind) ->
          let p = ensure_process b s in
          let a = ensure_artifact b ~ino ~path ~kind ~time:s.Event.s_time in
          add_edge b ~src:p ~tgt:a ~label:"Used" ~props:[ ("operation", operation); time_prop s ]
      | None -> ()
    in
    let generated ?(operation = "") () =
      match inode_parts s with
      | Some (ino, path, kind) ->
          let p = ensure_process b s in
          let a = ensure_artifact b ~ino ~path ~kind ~time:s.Event.s_time in
          add_edge b ~src:a ~tgt:p ~label:"WasGeneratedBy"
            ~props:[ ("operation", operation); time_prop s ]
      | None -> ()
    in
    match s.Event.s_hook with
    | "task_alloc" -> (
        match s.Event.s_obj with
        | Event.Obj_process { pid } ->
            let parent = ensure_process b s in
            (* LSM reports the fork when it happens (not at syscall
               exit), so the child connects even for vfork. *)
            let child =
              add_node b ~label:"Process"
                ~props:[ ("pid", string_of_int pid); ("source", "camflow"); time_prop s ]
            in
            Hashtbl.replace b.procs pid child;
            add_edge b ~src:child ~tgt:parent ~label:"WasTriggeredBy"
              ~props:[ ("operation", "fork"); time_prop s ]
        | _ -> ())
    | "bprm_check" -> used ~operation:"execve" ()
    | "bprm_committed_creds" -> new_process_state b s ~operation:"execve"
    | "file_open" -> used ~operation:"open" ()
    | "inode_create" -> generated ~operation:"create" ()
    | "file_permission" -> (
        match List.assoc_opt "mode" s.Event.s_extra with
        | Some "MAY_WRITE" -> generated ~operation:"write" ()
        | _ -> used ~operation:"read" ())
    | "inode_link" | "inode_rename" -> (
        match inode_parts s with
        | Some (ino, path, kind) -> (
            let p = ensure_process b s in
            let a = ensure_artifact b ~ino ~path ~kind ~time:s.Event.s_time in
            let op = if s.Event.s_hook = "inode_link" then "link" else "rename" in
            match
              match List.assoc_opt "new_path" s.Event.s_extra with
              | Some np -> Some np
              | None -> List.assoc_opt "target" s.Event.s_extra
            with
            | Some new_path ->
                let new_a =
                  add_node b ~label:"Artifact"
                    ~props:[ ("path", new_path); ("subtype", kind); time_prop s ]
                in
                add_edge b ~src:new_a ~tgt:a ~label:"WasDerivedFrom"
                  ~props:[ ("operation", op); time_prop s ];
                add_edge b ~src:new_a ~tgt:p ~label:"WasGeneratedBy"
                  ~props:[ ("operation", op); time_prop s ]
            | None -> ())
        | None -> ())
    | "file_truncate" -> generated ~operation:"truncate" ()
    | "inode_unlink" -> used ~operation:"unlink" ()
    | "inode_setattr" ->
        generated
          ~operation:
            (match List.assoc_opt "attr" s.Event.s_extra with
            | Some a -> "setattr:" ^ a
            | None -> "setattr")
          ()
    | "task_fix_setuid" -> new_process_state b s ~operation:"setuid"
    | "task_fix_setgid" -> new_process_state b s ~operation:"setgid"
    (* Hooks CamFlow 0.4.5 does not serialize: same blind spots. *)
    | "inode_symlink" | "inode_mknod" | "inode_alloc" | "task_free" | "task_kill" -> ()
    | _ -> ()

let build (trace : Trace.t) =
  let b = { g = Graph.Builder.create (); next = 0; procs = Hashtbl.create 8; artifacts = Hashtbl.create 8 } in
  List.iter (handle b) trace.Trace.lsm;
  Graph.Builder.freeze b.g

let record trace = Dot.to_string (Dot.of_pgraph ~name:"spade_camflow" (build trace))
