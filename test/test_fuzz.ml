(* Fuzzing the whole stack with random benchmark programs: the kernel
   simulator, all four recorders, the serialization roundtrips and the
   complete pipeline must behave for arbitrary well-scoped programs, not
   just the curated Table 1 suite. *)

open Pgraph
module Program = Oskernel.Program
module Kernel = Oskernel.Kernel
module Recorder = Recorders.Recorder

let prog_arb = Helpers.program_arbitrary ()

let run ?(run_id = 1) prog variant = Kernel.run ~run_id prog variant

(* ------------------------------------------------------------------ *)
(* Kernel invariants                                                   *)
(* ------------------------------------------------------------------ *)

let prop_kernel_total =
  Helpers.qcheck ~count:200 "kernel executes any program" prog_arb (fun prog ->
      let t = run prog Program.Foreground in
      Oskernel.Trace.audit_count t > 0)

let prop_kernel_deterministic =
  Helpers.qcheck ~count:100 "kernel deterministic per run id" prog_arb (fun prog ->
      run ~run_id:7 prog Program.Foreground = run ~run_id:7 prog Program.Foreground)

let prop_kernel_bg_is_prefixish =
  Helpers.qcheck ~count:100 "background stream never longer than foreground" prog_arb
    (fun prog ->
      let bg = run prog Program.Background and fg = run prog Program.Foreground in
      Oskernel.Trace.audit_count bg <= Oskernel.Trace.audit_count fg
      && Oskernel.Trace.libc_count bg <= Oskernel.Trace.libc_count fg
      && Oskernel.Trace.lsm_count bg <= Oskernel.Trace.lsm_count fg)

let prop_kernel_seq_monotonic =
  Helpers.qcheck ~count:100 "merged event stream has strictly increasing sequence" prog_arb
    (fun prog ->
      let t = run prog Program.Foreground in
      let seqs =
        List.map
          (function
            | Oskernel.Event.Audit a -> a.Oskernel.Event.a_seq
            | Oskernel.Event.Libc l -> l.Oskernel.Event.l_seq
            | Oskernel.Event.Lsm s -> s.Oskernel.Event.s_seq)
          (Oskernel.Trace.merged t)
      in
      let rec increasing = function
        | a :: (b :: _ as rest) -> a < b && increasing rest
        | _ -> true
      in
      increasing seqs)

let prop_trace_io_roundtrip =
  Helpers.qcheck ~count:100 "trace serialization roundtrips for any program" prog_arb (fun prog ->
      let t = run prog Program.Foreground in
      Oskernel.Trace_io.of_string (Oskernel.Trace_io.to_string t) = t)

let prop_kernel_audit_exit_consistent =
  Helpers.qcheck ~count:100 "audit success flag matches exit code sign" prog_arb (fun prog ->
      let t = run prog Program.Foreground in
      List.for_all
        (fun (a : Oskernel.Event.audit_record) ->
          if a.Oskernel.Event.a_success then a.Oskernel.Event.a_exit >= 0
          else a.Oskernel.Event.a_exit < 0)
        t.Oskernel.Trace.audit)

(* ------------------------------------------------------------------ *)
(* Recorders                                                           *)
(* ------------------------------------------------------------------ *)

let prop_recorders_total =
  Helpers.qcheck ~count:100 "all recorders handle any trace" prog_arb (fun prog ->
      let t = run prog Program.Foreground in
      let spade = Recorders.Spade.build t in
      let opus =
        let store = Recorders.Opus.record t in
        Graphstore.Store.open_db store;
        Recorders.Opus.store_to_pgraph store
      in
      let camflow = Recorders.Camflow.build t in
      let spc = Recorders.Spade_camflow.build t in
      List.for_all (fun g -> Graph.size g >= 0) [ spade; opus; camflow; spc ])

(* DOT edges are anonymous, so parsing back assigns fresh edge ids:
   compare node tables exactly and edges as a multiset of
   (src, tgt, label, props) descriptors. *)
let equal_mod_edge_ids a b =
  let nodes g =
    List.map (fun (n : Graph.node) -> (n.Graph.node_id, n.Graph.node_label, Props.to_list n.Graph.node_props)) (Graph.nodes g)
  in
  let edges g =
    List.sort compare
      (List.map
         (fun (e : Graph.edge) ->
           (e.Graph.edge_src, e.Graph.edge_tgt, e.Graph.edge_label, Props.to_list e.Graph.edge_props))
         (Graph.edges g))
  in
  nodes a = nodes b && edges a = edges b

let prop_serialization_roundtrips =
  Helpers.qcheck ~count:60 "record/parse equals direct build for every format" prog_arb
    (fun prog ->
      let t = run prog Program.Foreground in
      let spade_rt =
        equal_mod_edge_ids
          (Recorders.Dot.to_pgraph (Recorders.Dot.of_string (Recorders.Spade.record t)))
          (Recorders.Spade.build t)
      in
      let camflow_rt =
        Graph.equal (Recorders.Provjson.of_string (Recorders.Camflow.record t)) (Recorders.Camflow.build t)
      in
      let opus_rt =
        let store = Recorders.Opus.record t in
        let reloaded = Graphstore.Store.load (Graphstore.Store.dump store) in
        Graphstore.Store.open_db store;
        Graphstore.Store.open_db reloaded;
        Graph.equal (Recorders.Opus.store_to_pgraph store) (Recorders.Opus.store_to_pgraph reloaded)
      in
      spade_rt && camflow_rt && opus_rt)

let prop_camflow_prov_wellformed =
  Helpers.qcheck ~count:100 "camflow output satisfies PROV-DM constraints" prog_arb (fun prog ->
      let t = run prog Program.Foreground in
      Recorders.Prov_constraints.check (Recorders.Camflow.build t) = [])

let prop_recorders_shape_stable_across_runs =
  Helpers.qcheck ~count:60 "two runs of any program are shape-similar per recorder" prog_arb
    (fun prog ->
      let t1 = run ~run_id:1 prog Program.Foreground in
      let t2 = run ~run_id:2 prog Program.Foreground in
      Gmatch.Vf2.similar (Recorders.Spade.build t1) (Recorders.Spade.build t2)
      && Gmatch.Vf2.similar (Recorders.Camflow.build t1) (Recorders.Camflow.build t2)
      && Gmatch.Vf2.similar (Recorders.Spade_camflow.build t1) (Recorders.Spade_camflow.build t2))

(* ------------------------------------------------------------------ *)
(* Mutated recorder output                                             *)
(* ------------------------------------------------------------------ *)

(* Each parser's whole failure surface is one structured exception —
   truncated or byte-flipped input (what the fault injector produces,
   and what a killed recorder or torn read produces in the field) must
   either still parse or reject with that exception, never escape with
   anything else.  The mutations are seeded by the generated int, so a
   failing corpus entry reproduces from the QCheck seed alone. *)
let mutations text k =
  let n = String.length text in
  let truncated = String.sub text 0 (k mod (n + 1)) in
  let flipped =
    if n = 0 then text
    else begin
      let b = Bytes.of_string text in
      let i = k mod n in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + (k mod 255))));
      Bytes.to_string b
    end
  in
  [ truncated; flipped ]

let mutated_arb = QCheck.(pair prog_arb (int_bound 1_000_000))

let structured_only parse texts =
  List.for_all
    (fun text ->
      match parse text with
      | _ -> true
      | exception Recorders.Dot.Parse_error _ -> true
      | exception Recorders.Provjson.Format_error _ -> true
      | exception Graphstore.Store.Load_error _ -> true
      | exception _ -> false)
    texts

let prop_dot_mutations_structured =
  Helpers.qcheck ~count:150 "mutated DOT rejects with Parse_error only" mutated_arb
    (fun (prog, k) ->
      let text = Recorders.Spade.record (run prog Program.Foreground) in
      structured_only
        (fun s -> ignore (Recorders.Dot.to_pgraph (Recorders.Dot.of_string s)))
        (mutations text k))

let prop_provjson_mutations_structured =
  Helpers.qcheck ~count:150 "mutated PROV-JSON rejects with Format_error only" mutated_arb
    (fun (prog, k) ->
      let text = Recorders.Camflow.record (run prog Program.Foreground) in
      structured_only (fun s -> ignore (Recorders.Provjson.of_string s)) (mutations text k))

let prop_store_dump_mutations_structured =
  Helpers.qcheck ~count:150 "mutated store dump rejects with Load_error only" mutated_arb
    (fun (prog, k) ->
      let text = Graphstore.Store.dump (Recorders.Opus.record (run prog Program.Foreground)) in
      structured_only (fun s -> ignore (Recorders.Opus.of_dump s)) (mutations text k))

(* ------------------------------------------------------------------ *)
(* Full pipeline                                                       *)
(* ------------------------------------------------------------------ *)

let prop_pipeline_never_fails_without_flakiness =
  Helpers.qcheck ~count:40 "pipeline classifies any program as ok or empty" prog_arb (fun prog ->
      List.for_all
        (fun tool ->
          let config =
            { (Provmark.Config.default tool) with Provmark.Config.flakiness = 0.; trials = 2 }
          in
          match (Provmark.Runner.run_once config prog).Provmark.Result.status with
          | Provmark.Result.Target _ | Provmark.Result.Empty -> true
          | Provmark.Result.Failed _ -> false)
        [ Recorder.Spade; Recorder.Camflow; Recorder.Spade_camflow ])

let prop_pipeline_target_attaches_to_dummies =
  Helpers.qcheck ~count:40 "every non-dummy component rule violation implies DV-style quirk"
    prog_arb (fun prog ->
      (* For SPADE without vfork in the program, targets always attach to
         the background through dummy nodes. *)
      let has_vfork =
        List.exists
          (fun c -> Oskernel.Syscall.name c = "vfork")
          (prog.Program.setup @ prog.Program.target)
      in
      has_vfork
      ||
      let config =
        { (Provmark.Config.default Recorder.Spade) with Provmark.Config.flakiness = 0.; trials = 2 }
      in
      match (Provmark.Runner.run_once config prog).Provmark.Result.status with
      | Provmark.Result.Target g -> not (Provmark.Result.has_disconnected_node g)
      | Provmark.Result.Empty -> true
      | Provmark.Result.Failed _ -> false)

let () =
  Alcotest.run "fuzz"
    [
      ( "kernel",
        [
          prop_kernel_total;
          prop_kernel_deterministic;
          prop_kernel_bg_is_prefixish;
          prop_kernel_seq_monotonic;
          prop_kernel_audit_exit_consistent;
          prop_trace_io_roundtrip;
        ] );
      ( "recorders",
        [
          prop_recorders_total;
          prop_serialization_roundtrips;
          prop_camflow_prov_wellformed;
          prop_recorders_shape_stable_across_runs;
        ] );
      ( "mutations",
        [
          prop_dot_mutations_structured;
          prop_provjson_mutations_structured;
          prop_store_dump_mutations_structured;
        ] );
      ( "pipeline",
        [ prop_pipeline_never_fails_without_flakiness; prop_pipeline_target_attaches_to_dummies ] );
    ]
