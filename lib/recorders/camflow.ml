open Pgraph
module Event = Oskernel.Event
module Trace = Oskernel.Trace
module Prng = Oskernel.Prng

type config = {
  reserialize : bool;
  track_self : bool;
  filter_types : string list;
}

let default_config = { reserialize = true; track_self = false; filter_types = [] }

type session = (string, unit) Hashtbl.t

let new_session () : session = Hashtbl.create 32

type builder = {
  g : Graph.Builder.t;
  mutable next : int;
  boot_id : string;
  tasks : (int, string) Hashtbl.t;  (* pid -> current task vertex *)
  entities : (int, string) Hashtbl.t;  (* ino -> current entity vertex *)
  entity_versions : (int, int) Hashtbl.t;
  task_versions : (int, int) Hashtbl.t;
  paths : (string, string) Hashtbl.t;  (* pathname -> path vertex *)
  mutable machine : string option;
  session : session option;
  suppressed : (string, unit) Hashtbl.t;  (* vertices withheld from output *)
}

let fresh b =
  b.next <- b.next + 1;
  Printf.sprintf "cf:%s:%d" b.boot_id b.next

(* Old CamFlow serialized each node once per boot session.  When the
   workaround is off and the stable key was already seen, the node (and
   any edge touching it) is withheld from the serialized graph. *)
let add_node b ~stable_key ~label ~props =
  let id = fresh b in
  Graph.Builder.add_node b.g ~id ~label ~props:(Props.of_list props);
  (match b.session with
  | Some session when Hashtbl.mem session stable_key -> Hashtbl.replace b.suppressed id ()
  | Some session -> Hashtbl.replace session stable_key ()
  | None -> ());
  id

let add_edge b ~src ~tgt ~label ~props =
  if Hashtbl.mem b.suppressed src || Hashtbl.mem b.suppressed tgt then ()
  else
    let id = fresh b in
    Graph.Builder.add_edge b.g ~id ~src ~tgt ~label ~props:(Props.of_list props)

let base_props b time =
  [ ("cf:boot_id", b.boot_id); ("cf:date", string_of_int time) ]

let ensure_machine b time =
  match b.machine with
  | Some id -> id
  | None ->
      let id =
        add_node b ~stable_key:"machine" ~label:"machine"
          ~props:(("cf:machine_id", b.boot_id) :: base_props b time)
      in
      b.machine <- Some id;
      id

let ensure_task b ~pid ~time =
  match Hashtbl.find_opt b.tasks pid with
  | Some id -> id
  | None ->
      let id =
        add_node b
          ~stable_key:(Printf.sprintf "task:%d" pid)
          ~label:"task"
          ~props:(("cf:pid", string_of_int pid) :: ("cf:version", "0") :: base_props b time)
      in
      Hashtbl.replace b.tasks pid id;
      let m = ensure_machine b time in
      add_edge b ~src:id ~tgt:m ~label:"wasAssociatedWith" ~props:(base_props b time);
      id

let new_task_version b ~pid ~time ~operation =
  let old_id = ensure_task b ~pid ~time in
  let v = 1 + Option.value (Hashtbl.find_opt b.task_versions pid) ~default:0 in
  Hashtbl.replace b.task_versions pid v;
  let id =
    add_node b
      ~stable_key:(Printf.sprintf "task:%d:v%d" pid v)
      ~label:"task"
      ~props:
        (("cf:pid", string_of_int pid) :: ("cf:version", string_of_int v) :: base_props b time)
  in
  Hashtbl.replace b.tasks pid id;
  add_edge b ~src:id ~tgt:old_id ~label:"wasInformedBy"
    ~props:(("cf:type", operation) :: base_props b time);
  id

let ensure_path b ~pathname ~time =
  match Hashtbl.find_opt b.paths pathname with
  | Some id -> id
  | None ->
      let id =
        add_node b
          ~stable_key:("path:" ^ pathname)
          ~label:"path"
          ~props:(("cf:pathname", pathname) :: base_props b time)
      in
      Hashtbl.replace b.paths pathname id;
      id

let entity_stable_key ~kind ~path ~ino =
  match path with Some p -> Printf.sprintf "%s:%s" kind p | None -> Printf.sprintf "%s:%d" kind ino

let ensure_entity b ~ino ~kind ~path ~time =
  match Hashtbl.find_opt b.entities ino with
  | Some id -> id
  | None ->
      let id =
        add_node b
          ~stable_key:(entity_stable_key ~kind ~path ~ino)
          ~label:kind
          ~props:
            (("cf:ino", string_of_int ino) :: ("cf:version", "0") :: base_props b time)
      in
      Hashtbl.replace b.entities ino id;
      (* The file object is linked to its path entity. *)
      (match path with
      | Some pathname ->
          let p = ensure_path b ~pathname ~time in
          add_edge b ~src:p ~tgt:id ~label:"named" ~props:(base_props b time)
      | None -> ());
      id

let new_entity_version b ~ino ~kind ~path ~time ~operation =
  let old_id = ensure_entity b ~ino ~kind ~path ~time in
  let v = 1 + Option.value (Hashtbl.find_opt b.entity_versions ino) ~default:0 in
  Hashtbl.replace b.entity_versions ino v;
  let id =
    add_node b
      ~stable_key:(entity_stable_key ~kind ~path ~ino ^ Printf.sprintf ":v%d" v)
      ~label:kind
      ~props:(("cf:ino", string_of_int ino) :: ("cf:version", string_of_int v) :: base_props b time)
  in
  Hashtbl.replace b.entities ino id;
  add_edge b ~src:id ~tgt:old_id ~label:"wasDerivedFrom"
    ~props:(("cf:type", operation) :: base_props b time);
  id

let handle b (s : Event.lsm_record) =
  if not s.Event.s_allowed then ()
    (* CamFlow can in principle observe denied operations but does not
       record them in this configuration (Section 3.1). *)
  else
    let time = s.Event.s_time in
    let task () = ensure_task b ~pid:s.Event.s_pid ~time in
    let inode_parts () =
      match s.Event.s_obj with
      | Event.Obj_inode { ino; path; kind } -> Some (ino, path, kind)
      | Event.Obj_process _ | Event.Obj_cred _ -> None
    in
    match s.Event.s_hook with
    | "task_alloc" -> (
        match s.Event.s_obj with
        | Event.Obj_process { pid } ->
            let parent = task () in
            let child = ensure_task b ~pid ~time in
            add_edge b ~src:child ~tgt:parent ~label:"wasInformedBy"
              ~props:(("cf:type", "fork") :: base_props b time)
        | _ -> ())
    | "task_free" -> ()
    | "bprm_check" -> (
        match inode_parts () with
        | Some (ino, path, kind) ->
            let t = task () in
            let e = ensure_entity b ~ino ~kind ~path ~time in
            add_edge b ~src:t ~tgt:e ~label:"used"
              ~props:(("cf:type", "exec") :: base_props b time)
        | None -> ())
    | "bprm_committed_creds" ->
        ignore (new_task_version b ~pid:s.Event.s_pid ~time ~operation:"exec")
    | "file_open" -> (
        match inode_parts () with
        | Some (ino, path, kind) ->
            let t = task () in
            let e = ensure_entity b ~ino ~kind ~path ~time in
            add_edge b ~src:t ~tgt:e ~label:"used"
              ~props:(("cf:type", "open") :: base_props b time)
        | None -> ())
    | "inode_create" -> (
        match inode_parts () with
        | Some (ino, path, kind) ->
            let t = task () in
            let e = ensure_entity b ~ino ~kind ~path ~time in
            add_edge b ~src:e ~tgt:t ~label:"wasGeneratedBy"
              ~props:(("cf:type", "create") :: base_props b time)
        | None -> ())
    | "file_permission" -> (
        match inode_parts () with
        | Some (ino, path, kind) -> (
            let t = task () in
            match List.assoc_opt "mode" s.Event.s_extra with
            | Some "MAY_WRITE" ->
                let nv = new_entity_version b ~ino ~kind ~path ~time ~operation:"version" in
                add_edge b ~src:nv ~tgt:t ~label:"wasGeneratedBy"
                  ~props:(("cf:type", "write") :: base_props b time)
            | _ ->
                let e = ensure_entity b ~ino ~kind ~path ~time in
                add_edge b ~src:t ~tgt:e ~label:"used"
                  ~props:(("cf:type", "read") :: base_props b time))
        | None -> ())
    | "inode_link" | "inode_rename" -> (
        match inode_parts () with
        | Some (ino, path, kind) -> (
            let t = task () in
            let e = ensure_entity b ~ino ~kind ~path ~time in
            (* A new path entity is associated with the file object; the
               old path does not appear (Section 4.1, rename). *)
            let new_pathname =
              match List.assoc_opt "new_path" s.Event.s_extra with
              | Some p -> Some p
              | None -> List.assoc_opt "target" s.Event.s_extra
            in
            match new_pathname with
            | Some pathname ->
                let p = ensure_path b ~pathname ~time in
                add_edge b ~src:p ~tgt:e ~label:"named"
                  ~props:
                    (("cf:type", if s.Event.s_hook = "inode_link" then "link" else "rename")
                    :: base_props b time);
                add_edge b ~src:p ~tgt:t ~label:"wasGeneratedBy"
                  ~props:(("cf:type", "name") :: base_props b time)
            | None -> ())
        | None -> ())
    | "file_truncate" -> (
        match inode_parts () with
        | Some (ino, path, kind) ->
            let t = task () in
            let nv = new_entity_version b ~ino ~kind ~path ~time ~operation:"version" in
            add_edge b ~src:nv ~tgt:t ~label:"wasGeneratedBy"
              ~props:(("cf:type", "truncate") :: base_props b time)
        | None -> ())
    | "inode_unlink" -> (
        match inode_parts () with
        | Some (ino, path, kind) ->
            let t = task () in
            let e = ensure_entity b ~ino ~kind ~path ~time in
            add_edge b ~src:t ~tgt:e ~label:"used"
              ~props:(("cf:type", "unlink") :: base_props b time)
        | None -> ())
    | "inode_setattr" -> (
        match inode_parts () with
        | Some (ino, path, kind) ->
            let t = task () in
            let e = ensure_entity b ~ino ~kind ~path ~time in
            add_edge b ~src:e ~tgt:t ~label:"wasGeneratedBy"
              ~props:
                (("cf:type", "setattr")
                :: (match List.assoc_opt "attr" s.Event.s_extra with
                   | Some a -> [ ("cf:attr", a) ]
                   | None -> [])
                @ base_props b time)
        | None -> ())
    | "task_fix_setuid" ->
        ignore (new_task_version b ~pid:s.Event.s_pid ~time ~operation:"setuid")
    | "task_fix_setgid" ->
        ignore (new_task_version b ~pid:s.Event.s_pid ~time ~operation:"setgid")
    (* Hooks CamFlow 0.4.5 does not serialize (NR rows of Table 2). *)
    | "inode_symlink" | "inode_mknod" | "inode_alloc" | "task_kill" -> ()
    | _ -> ()

(* The recorder's own relay activity: camflowd reading the relay
   channel.  The number of reads varies run to run, which is why the
   paper's configuration excludes ProvMark's own processes. *)
let self_activity b (trace : Trace.t) =
  let prng = Prng.create ~seed:(Int64.of_string ("0x" ^ trace.Trace.boot_id)) in
  let time = trace.Trace.base_time in
  let daemon =
    add_node b ~stable_key:"task:camflowd" ~label:"task"
      ~props:(("cf:pid", "97") :: ("cf:comm", "camflowd") :: base_props b time)
  in
  let relay =
    add_node b ~stable_key:"entity:relay" ~label:"file"
      ~props:(("cf:pathname", "/sys/kernel/debug/provenance") :: base_props b time)
  in
  for _ = 1 to 1 + Prng.int prng 3 do
    add_edge b ~src:daemon ~tgt:relay ~label:"used"
      ~props:(("cf:type", "read") :: base_props b time)
  done

let build ?(config = default_config) ?session ?drop_edge_index (trace : Trace.t) =
  (match (config.reserialize, session) with
  | false, None ->
      invalid_arg "Camflow.build: reserialize = false requires a session"
  | _ -> ());
  let b =
    {
      g = Graph.Builder.create ();
      next = 0;
      boot_id = trace.Trace.boot_id;
      tasks = Hashtbl.create 8;
      entities = Hashtbl.create 8;
      entity_versions = Hashtbl.create 8;
      task_versions = Hashtbl.create 8;
      paths = Hashtbl.create 8;
      machine = None;
      session = (if config.reserialize then None else session);
      suppressed = Hashtbl.create 8;
    }
  in
  if config.track_self then self_activity b trace;
  List.iter (fun s -> handle b s) trace.Trace.lsm;
  (* Withheld vertices go, and so do capture filters' node types, each
     with its incident edges. *)
  let g =
    Graph.filter
      ~node:(fun n ->
        not (Hashtbl.mem b.suppressed n.Graph.node_id || List.mem n.Graph.node_label config.filter_types))
      ~edge:(fun _ -> true) (Graph.Builder.freeze b.g)
  in
  match drop_edge_index with
  | None -> g
  | Some i -> (
      match Graph.edge_ids g with
      | [] -> g
      | ids -> Graph.remove_edge g (List.nth ids (i mod List.length ids)))

let record ?config ?session ?drop_edge_index trace =
  Provjson.to_string (build ?config ?session ?drop_edge_index trace)
