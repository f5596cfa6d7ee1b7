module Recorder = Recorders.Recorder

type matrix = (Recorder.tool * Result.t list) list

(* Measured status rendered with the paper's note vocabulary: notes
   (NR/SC/LP/DV) explain *why* a cell is empty or unusual, which is
   curated knowledge — taken from the expected matrix — while the
   ok/empty/failed status is measured. *)
let cell expected (r : Result.t) =
  let measured =
    match r.Result.status with
    | Result.Target g when Result.has_disconnected_node g -> "ok (DV)"
    | Result.Target _ -> (
        match expected with Bench_registry.Ok_sc -> "ok (SC)" | _ -> "ok")
    | Result.Empty -> (
        match expected with
        | Bench_registry.Empty_nr -> "empty (NR)"
        | Bench_registry.Empty_sc -> "empty (SC)"
        | Bench_registry.Empty_lp -> "empty (LP)"
        | _ -> "empty")
    | Result.Failed _ -> "failed"
  in
  let marker = if Bench_registry.matches expected r then "" else " *" in
  let degraded = if r.Result.degraded = [] then "" else " ~" in
  measured ^ marker ^ degraded

let find_result results syscall =
  List.find_opt (fun (r : Result.t) -> String.equal r.Result.syscall syscall) results

let pad width s =
  if String.length s >= width then s else s ^ String.make (width - String.length s) ' '

let validation_matrix (matrix : matrix) =
  let tools = List.map fst matrix in
  let buf = Buffer.create 4096 in
  let width = 14 in
  Buffer.add_string buf (pad 6 "Group");
  Buffer.add_string buf (pad 12 "syscall");
  List.iter (fun t -> Buffer.add_string buf (pad width (Recorder.tool_name t))) tools;
  Buffer.add_char buf '\n';
  List.iter
    (fun name ->
      Buffer.add_string buf (pad 6 (string_of_int (Bench_registry.group_of name)));
      Buffer.add_string buf (pad 12 name);
      List.iter
        (fun tool ->
          let results = List.assoc tool matrix in
          let text =
            match find_result results name with
            | None -> "-"
            | Some r -> (
                (* Tools without a Table 2 column (the experimental
                   SPADE+CamFlow configuration) report the bare status. *)
                match Bench_registry.expected tool name with
                | expected -> cell expected r
                | exception Not_found -> Result.status_word r)
          in
          Buffer.add_string buf (pad width text))
        tools;
      Buffer.add_char buf '\n')
    Oskernel.Syscall.all_names;
  Buffer.add_string buf
    "\nNotes: NR = not recorded (default config), SC = only state changes monitored,\n\
     \       LP = limitation in ProvMark, DV = disconnected vforked process.\n\
     \       * marks disagreement with the paper's Table 2.\n\
     \       ~ marks a degraded result (produced through a fallback path).\n";
  Buffer.contents buf

let agreement (matrix : matrix) =
  List.fold_left
    (fun (ok, total) (tool, results) ->
      List.fold_left
        (fun (ok, total) name ->
          match find_result results name with
          | None -> (ok, total)
          | Some r -> (
              match Bench_registry.expected tool name with
              | expected ->
                  ((if Bench_registry.matches expected r then ok + 1 else ok), total + 1)
              | exception Not_found -> (ok, total)))
        (ok, total) Oskernel.Syscall.all_names)
    (0, 0) matrix

let structure_table (matrix : matrix) ~syscalls =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (pad 12 "syscall");
  List.iter (fun (t, _) -> Buffer.add_string buf (pad 22 (Recorder.tool_name t))) matrix;
  Buffer.add_char buf '\n';
  List.iter
    (fun name ->
      Buffer.add_string buf (pad 12 name);
      List.iter
        (fun (_, results) ->
          let text =
            match find_result results name with
            | None -> "-"
            | Some r -> (
                match r.Result.status with
                | Result.Target g -> Pgraph.Stats.shape_line (Pgraph.Stats.of_graph g)
                | Result.Empty -> "empty"
                | Result.Failed _ -> "failed")
          in
          Buffer.add_string buf (pad 22 text))
        matrix;
      Buffer.add_char buf '\n')
    syscalls;
  Buffer.contents buf

let timing_lines results =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-12s %14s %14s %14s\n" "benchmark" "transform(s)" "generalize(s)"
       "compare(s)");
  List.iter
    (fun (r : Result.t) ->
      let t = Result.times r in
      Buffer.add_string buf
        (Printf.sprintf "%-12s %14.4f %14.4f %14.4f\n" r.Result.syscall
           t.Result.transformation_s t.Result.generalization_s t.Result.comparison_s))
    results;
  Buffer.contents buf

let cache_stats_lines stats =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%-16s %8s %8s %9s\n" "solve stage" "hits" "misses" "hit-rate");
  List.iter
    (fun (stage, hits, misses) ->
      let rate =
        if hits + misses = 0 then "-"
        else Printf.sprintf "%.1f%%" (100. *. float_of_int hits /. float_of_int (hits + misses))
      in
      Buffer.add_string buf (Printf.sprintf "%-16s %8d %8d %9s\n" stage hits misses rate))
    stats;
  Buffer.contents buf

(* Quarantine report: one line per benchmark whose every attempt
   failed.  The suite completed anyway — these lines (and the exit
   code) are how the failure surfaces.  Everything printed is
   deterministic: stage diagnosis and attempt count, never timings. *)
let quarantine_lines results =
  let quarantined = List.filter Result.quarantined results in
  if quarantined = [] then ""
  else begin
    let buf = Buffer.create 256 in
    Buffer.add_string buf "quarantined benchmarks:\n";
    List.iter
      (fun (r : Result.t) ->
        let diagnosis =
          match r.Result.status with
          | Result.Failed e -> Result.stage_error_to_string e
          | Result.Target _ | Result.Empty -> assert false
        in
        Buffer.add_string buf
          (Printf.sprintf "  %-12s %s (after %d attempt%s)\n" r.Result.syscall diagnosis
             (Result.attempts r)
             (if Result.attempts r = 1 then "" else "s")))
      quarantined;
    Buffer.contents buf
  end

(* The chaos-job contract line: every fault-plan run must account for
   its injected faults as retried, degraded or quarantined outcomes.
   All four counters are pure functions of the result list, so two runs
   of the same plan print the same line at any [-j]. *)
let fault_outcome_line results =
  let n = List.length results in
  let quarantined = List.length (List.filter Result.quarantined results) in
  let degraded =
    List.length (List.filter (fun (r : Result.t) -> r.Result.degraded <> []) results)
  in
  let retried = List.length (List.filter (fun r -> Result.attempts r > 1) results) in
  Printf.sprintf "fault outcomes: %d benchmarks, %d retried, %d degraded, %d quarantined" n
    retried degraded quarantined

let timing_csv results =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (r : Result.t) ->
      let t = Result.times r in
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%.4f,%.4f,%.4f,%.4f\n"
           (String.lowercase_ascii (Recorder.tool_name r.Result.tool))
           r.Result.syscall t.Result.recording_s t.Result.transformation_s
           t.Result.generalization_s t.Result.comparison_s))
    results;
  Buffer.contents buf

(* One renderer for the cache/solver statistics block, consumed by the
   batch CLI's epilogue and the serve daemon's [stats] response alike.
   The solve-cache block keeps its historical gate (printed only when
   the memo was consulted at all); the incremental fast-path line has
   its own nonzero gate because the incremental backend never touches
   the memo.  Every scenario that printed bytes before prints the same
   bytes now — the incremental line is strictly additive. *)
let stats_lines () =
  let buf = Buffer.create 256 in
  (match Asp.Memo.stats () with
  | [] -> ()
  | stats ->
      Buffer.add_string buf "ASP solve cache:\n";
      Buffer.add_string buf
        (cache_stats_lines
           (List.map (fun (tag, s) -> (tag, s.Asp.Memo.hits, s.Asp.Memo.misses)) stats));
      (match Asp.Memo.coalesced () with
      | 0 -> ()
      | n -> Buffer.add_string buf (Printf.sprintf "coalesced solves: %d\n" n));
      Buffer.add_string buf
        (Printf.sprintf "canon skips: %d\n" (Gmatch.Engine.canon_skip_total ()));
      let seg_total counts = List.fold_left (fun acc (_, n) -> acc + n) 0 counts in
      let skips = seg_total (Gmatch.Engine.segment_skips ())
      and pairs = seg_total (Gmatch.Engine.segment_pairs ()) in
      if skips > 0 || pairs > 0 then
        Buffer.add_string buf
          (Printf.sprintf
             "segment prepass: %d quotient skips, %d pairs -> %d segment solves, %d fallbacks\n"
             skips pairs
             (Gmatch.Engine.segment_solves ())
             (Gmatch.Engine.segment_fallbacks ())));
  (* Certified/fallback counts are pure functions of the pairs the
     incremental backend attempted (gated on nonzero so runs that never
     touch it keep their historical bytes).  The cascade's decision
     counts and delta cache hits stay out of this block (delta cache
     hits depend on which domain certified a structure first); they
     surface in the serve [stats] op and the benches instead. *)
  let certified, fallback = Gmatch.Incremental.stats () in
  if certified > 0 || fallback > 0 then
    Buffer.add_string buf
      (Printf.sprintf "incremental fast path: %d certified, %d fallbacks\n" certified fallback);
  Buffer.contents buf

let run_output ~result_type (r : Result.t) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-12s %-10s %s\n" r.Result.syscall
       (Recorder.tool_name r.Result.tool)
       (Result.summary r));
  (match r.Result.status with
  | Result.Target g ->
      Buffer.add_char buf '\n';
      Buffer.add_string buf (Transform.to_datalog ~gid:"t" g)
  | Result.Empty | Result.Failed _ -> ());
  if String.equal result_type "rg" then begin
    (match r.Result.bg_general with
    | Some g ->
        Buffer.add_string buf "\n% generalized background graph\n";
        Buffer.add_string buf (Transform.to_datalog ~gid:"bg" g)
    | None -> ());
    match r.Result.fg_general with
    | Some g ->
        Buffer.add_string buf "\n% generalized foreground graph\n";
        Buffer.add_string buf (Transform.to_datalog ~gid:"fg" g)
    | None -> ()
  end;
  Buffer.contents buf

let suite_epilogue results =
  let buf = Buffer.create 256 in
  if Faults.Injector.active () then
    Buffer.add_string buf (Printf.sprintf "\n%s\n" (fault_outcome_line results));
  (match quarantine_lines results with
  | "" -> ()
  | lines ->
      Buffer.add_char buf '\n';
      Buffer.add_string buf lines);
  Buffer.contents buf
