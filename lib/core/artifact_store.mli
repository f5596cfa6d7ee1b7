(** Content-addressed on-disk store for pipeline stage artifacts.

    Every stage execution is addressed by a key derived from the stage
    name, a fingerprint of the configuration fields that stage reads,
    and digests of its inputs (chained: a stage's input digest is
    computed from the upstream stage's typed output once, when that
    output's entry is written, and stored in the entry beside it — see
    {!Stage.execute} — so a replay reads downstream keys instead of
    recomputing them).  Because the
    whole pipeline is a pure function of [(config, program)], replaying
    a stored artifact is indistinguishable from recomputing it — a warm
    suite re-run is byte-identical to the cold run and an edited
    benchmark program invalidates exactly its own downstream artifacts.

    The store is shared by all worker domains of the process — the
    parallel suite runner's and the serve daemon's alike: reads are
    plain file reads, writes go through a unique temp file plus atomic
    [rename], and the mutable bookkeeping is sharded by key prefix
    (first hex digit, 16 shards), each shard behind its own mutex, so
    concurrent writers whose keys land in different shards never
    contend on a lock.  Losing a race (two domains computing the same
    artifact) is harmless — both values are identical and one write
    wins. *)

type t

(** [create ~dir] opens (creating directories as needed) a store rooted
    at [dir] and probes it for writability up front, so a misconfigured
    [--store] produces one clear [Sys_error] at startup instead of a
    write failure inside every stage. *)
val create : dir:string -> t

val dir : t -> string

(** {2 Keys and digests} *)

(** Hex content digest of a string (the store's addressing hash). *)
val digest : string -> string

(** [key ~stage ~fingerprint ~inputs] is the artifact key for one stage
    execution.  [fingerprint] covers the config fields the stage reads;
    [inputs] are digests of its inputs.  A store format version and the
    active fault-plan fingerprint (see {!Faults.Injector.fingerprint})
    are baked in, so incompatible layout changes never alias and
    fault-injected runs occupy a key space disjoint from clean runs. *)
val key : stage:string -> fingerprint:string -> inputs:string list -> string

(** [generated_input_key ~generator ~spec ~seed ~run ~format] is the
    artifact key for a synthetically generated input: a [corpus]-stage
    key whose fingerprint is the generator name/version and whose
    inputs are the canonical spec string plus the (seed, run, format)
    coordinates the bytes are a pure function of.  A warm store
    replays generated corpus files instead of regenerating them; any
    spec or generator change invalidates exactly the affected
    entries. *)
val generated_input_key :
  generator:string -> spec:string -> seed:int -> run:int -> format:string -> string

(** Digest of a property graph, combining its Weisfeiler–Leman
    fingerprint colours with the canonical Listing-1 fact rendering
    (the fingerprint alone ignores property values). *)
val graph_digest : Pgraph.Graph.t -> string

(** Like {!graph_digest}, but computed on the canonically relabelled
    graph when [opts.canon] is set (default [Gmatch.Match_opts.default];
    falling back to {!graph_digest} when it is not, or the graph exceeds the
    canonicalization budget).  Equal for renamed copies of the same
    graph, so solve-heavy stage artifacts replay warm across runs that
    mint fresh identifiers.  The trade-off: properties still
    distinguish entries, but two runs whose graphs differ only in ids
    share entries whose stored payload carries the {e first} run's ids
    — callers must only key artifacts whose payloads are id-insensitive
    or whose ids they re-derive (see DESIGN.md). *)
val canonical_graph_digest : ?opts:Gmatch.Match_opts.t -> Pgraph.Graph.t -> string

(** {2 Artifact IO}

    [read]/[write] do not touch the hit/miss counters: the caller
    decides whether a read artifact was usable (it may fail to decode)
    and reports the verdict through {!record}.

    Both operations are fault-injection tap points (transient EIO,
    at-rest corruption, torn writes — see {!Faults.Plan.store_kind})
    and both degrade rather than raise: a failed or injected-away read
    is a miss, a failed or injected-away write leaves the entry cold
    and bumps the [errors] counter.  Caching is best-effort by
    contract, so the pipeline never dies because the store did.

    Entries are sealed on disk with a checksum of their payload,
    verified by [read]: flipped bytes or a truncated tail are a
    *detected* miss (counted under [errors]), never handed to the
    decoder — garbled JSON can parse to a different value, which would
    silently change a warm run's output.  The mismatching entry is
    healed by the recompute's rewrite. *)

val read : t -> stage:string -> key:string -> string option
val write : t -> stage:string -> key:string -> string -> unit

(** [record t ~stage ~key ~hit] counts one stage execution as replayed
    ([hit:true]) or computed ([hit:false]).  [key] selects the counter
    shard, so recording contends only with other executions in the
    same key range. *)
val record : t -> stage:string -> key:string -> hit:bool -> unit

(** {2 Statistics} *)

type stats = {
  hits : int;
  misses : int;
  stored : int;
  errors : int;  (** I/O failures (real or injected) degraded to uncached computes *)
}

(** Per-stage counters, sorted by stage name (merged across the key
    shards at read time). *)
val stats : t -> (string * stats) list

(** Counters summed across stages. *)
val totals : t -> stats

(** Replayed fraction of all recorded stage executions; [None] when
    nothing was recorded. *)
val hit_rate : stats -> float option

val reset_stats : t -> unit
