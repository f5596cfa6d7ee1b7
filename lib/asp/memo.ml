(* Memoization of ground-and-solve calls.

   ProvMark's generalization stage asks the solver the same questions
   over and over: every pair of trial graphs in a similarity class is
   checked for similarity, and identical trials (same seed derivation)
   encode to identical fact bases.  Keying on a canonical digest of the
   whole subproblem lets repeated subproblems skip grounding and search
   entirely.

   The table is shared by every domain of the process — suite-runner
   workers and serve-daemon workers alike — so all access goes through
   one mutex; solving itself happens outside the lock.

   Concurrent identical solves are coalesced (single-flight): the first
   caller of a key becomes its leader and computes; later callers find
   the key in the in-flight set and block on the condition until the
   leader broadcasts the outcome.  Because solve keys are built from
   canonically relabelled instances when canonicalization is on, this
   is what collapses K concurrent requests for *renamed* variants of
   one graph pair into one solve — each waiter still translates the
   shared canonical witness back through its own relabelling, so
   responses stay caller-specific.  A leader that raises wakes the
   waiters and the next one retries as the new leader; nothing poisons
   the table. *)

type stats = { hits : int; misses : int }

let mutex = Mutex.create ()
let done_cond = Condition.create ()

(* Bounded wholesale: the suite's working set is far below the cap, and
   a full reset is simpler than eviction bookkeeping under contention. *)
let max_entries = 65_536

let table : (string, Solver.outcome) Hashtbl.t = Hashtbl.create 1024
let in_flight : (string, unit) Hashtbl.t = Hashtbl.create 16
let counters : (string, int ref * int ref) Hashtbl.t = Hashtbl.create 8
let coalesced_count = ref 0

let with_lock f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let counter_of tag =
  match Hashtbl.find_opt counters tag with
  | Some c -> c
  | None ->
      let c = (ref 0, ref 0) in
      Hashtbl.replace counters tag c;
      c

let key ~program ~facts ~max_steps ~find_optimal =
  (* Base.to_string renders facts in sorted order, so structurally equal
     fact bases produce the same digest regardless of insertion order. *)
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%d|%b|%s\x00%s" max_steps find_optimal program
          (Datalog.Base.to_string facts)))

(* Decide, under the lock, what the calling domain should do about
   [key]: return a cached outcome, wait for the in-flight leader, or
   become the leader.  Counters move here: a table hit is a hit, taking
   leadership is a miss, and joining an in-flight solve bumps the
   coalesced counter (the waiter neither computed nor found the table
   populated — it is the single-flight case the serve daemon reports). *)
type role = Cached of Solver.outcome | Lead

let find_or_compute ~tag ~key compute =
  let rec acquire ~joined =
    let role =
      with_lock (fun () ->
          match Hashtbl.find_opt table key with
          | Some v ->
              incr (fst (counter_of tag));
              Some (Cached v)
          | None ->
              if Hashtbl.mem in_flight key then begin
                if not joined then incr coalesced_count;
                None (* wait outside, then re-examine *)
              end
              else begin
                incr (snd (counter_of tag));
                Hashtbl.replace in_flight key ();
                Some Lead
              end)
    in
    match role with
    | Some r -> r
    | None ->
        (* Block until some leader finishes (any key — spurious
           wakeups just loop), then look again: the outcome is now
           cached, or the leader failed and leadership is open. *)
        with_lock (fun () ->
            while Hashtbl.mem in_flight key && not (Hashtbl.mem table key) do
              Condition.wait done_cond mutex
            done);
        acquire ~joined:true
  in
  match acquire ~joined:false with
  | Cached v -> v
  | Lead ->
      let finish store =
        with_lock (fun () ->
            (match store with
            | Some v ->
                if Hashtbl.length table >= max_entries then Hashtbl.reset table;
                Hashtbl.replace table key v
            | None -> ());
            Hashtbl.remove in_flight key;
            Condition.broadcast done_cond)
      in
      let v =
        match compute () with
        | v -> v
        | exception e ->
            finish None;
            raise e
      in
      finish (Some v);
      v

let clear () = with_lock (fun () -> Hashtbl.reset table)

let reset_stats () =
  with_lock (fun () ->
      Hashtbl.reset counters;
      coalesced_count := 0)

let stats () =
  with_lock (fun () ->
      List.sort compare
        (Hashtbl.fold
           (fun tag (h, m) acc -> (tag, { hits = !h; misses = !m }) :: acc)
           counters []))

let coalesced () = with_lock (fun () -> !coalesced_count)

let totals () =
  List.fold_left
    (fun acc (_, s) -> { hits = acc.hits + s.hits; misses = acc.misses + s.misses })
    { hits = 0; misses = 0 } (stats ())

let size () = with_lock (fun () -> Hashtbl.length table)
