(** Automatic benchmark derivation — the paper's first future-work item
    (Section 6: "additional support for automating the process of
    creating new benchmarks").  Two generators:

    - {!failure_variants} derives an access-control failure benchmark
      from every success benchmark that names a path, by retargeting the
      call at a root-owned location (the transformation Alice performs
      by hand in Section 3.1);
    - {!sequence_benchmarks} composes registry benchmarks into multi-call
      target sequences (the scalability dimension of Section 5.2),
      merging their staging requirements. *)

(** [failure_variants ()] returns one failing variant per eligible
    registry benchmark, named [cmdFailed<Syscall>].  Benchmarks whose
    target takes no path (e.g. [fork]) have no failure variant. *)
val failure_variants : unit -> Oskernel.Program.t list

(** [sequence_benchmark names] builds one program whose target performs
    the targets of the named registry benchmarks in order.  Raises
    [Not_found] for unknown names; fd registers are renamed apart so
    composed benchmarks cannot interfere. *)
val sequence_benchmark : string list -> Oskernel.Program.t

(** All adjacent pairs of a syscall-name list, e.g. for smoke-testing
    composed coverage. *)
val pair_sequences : string list -> Oskernel.Program.t list

(** [match_pair ~nodes ~seed] generates a deterministic synthetic
    matching workload: a provenance-shaped random DAG with [nodes]
    nodes and an isomorphic copy of it under a random identifier
    permutation with a few transient property values perturbed.  The
    pair is similar by construction with a small nonzero optimal
    alignment cost — the worst case for the matching pipeline, used by
    the canonical-form and native-cascade differential tests. *)
val match_pair : nodes:int -> seed:int -> Pgraph.Graph.t * Pgraph.Graph.t

(** [rigid_trace ~nodes ~seed] generates a deterministic synthetic
    trace whose structure is {e rigid} (trivial automorphism group): a
    single lineage chain with occasional two-step shortcut edges, the
    shape of a real recorded syscall trace.  Combined with
    {!transient_variant} this is the steady-state workload of the delta
    re-solve fast path: consecutive trials of one benchmark differing
    only in transient values. *)
val rigid_trace : nodes:int -> seed:int -> Pgraph.Graph.t

(** [transient_variant ~seed g] rewrites only the transient property
    values of [g] ("token" on nodes, "op" on edges), re-randomized from
    [seed]; identifiers, labels, topology and structural properties are
    untouched, so the result shares [g]'s canonical structure digest.
    This is the consecutive-trial shape the delta re-solve fast path
    certifies, used by the native cascade's differential tests. *)
val transient_variant : seed:int -> Pgraph.Graph.t -> Pgraph.Graph.t
