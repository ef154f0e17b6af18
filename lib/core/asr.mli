(** Materialised access support relations.

    An [Asr.t] is the physical realisation of one extension of the
    access support relation over a path expression, under a chosen
    decomposition: every partition is stored in two redundant
    page-structured B+ trees, clustered on the partition's first and
    last column respectively (paper, section 5.2).

    The trees are the only copy of the relation: the undecomposed
    extension is stitched from the partitions when asked for
    ({!extension_relation}, Thm. 3.9).  Every B+ tree entry carries a
    reference count equal to the number of extension tuples projecting
    onto it, so writing the exact difference of the extension
    ({!apply_delta}) keeps every partition exact. *)

type t

type pool
(** A sharing pool (paper, section 5.4): access support relations over
    {e overlapping} path expressions can share partitions whose column
    spans are generated by identical step sequences — always for full
    extensions, for complete prefixes of left-complete ones and complete
    suffixes of right-complete ones.  Relations created against the same
    pool reuse each other's partition B+ trees, and their deferred
    write-behind buffer; reference counts keep concurrent maintenance of
    the sharers exact.  A shared tree's contents are therefore not one
    sharer's state, so maintenance of a relation with a shared partition
    walks the object graph instead of reading its trees
    ({!Maintenance}). *)

val make_pool :
  ?config:Storage.Config.t -> ?pager:Storage.Pager.t -> Gom.Store.t -> pool

val segment_key :
  Gom.Path.t -> Extension.kind -> lo:int -> hi:int -> string option
(** The sharing identity of a partition, or [None] when the extension
    rules out sharing for that span (exposed for tests and tooling). *)

val pool_segment_count : pool -> int
(** Distinct shared segments currently materialised. *)

val pool_total_pages : t list -> int
(** Pages of both clustering copies over all the given relations,
    counting each physically shared tree once. *)

val shared_partition_count : t -> int
(** How many of this relation's partitions live in a pool. *)

val create :
  ?config:Storage.Config.t ->
  ?pager:Storage.Pager.t ->
  ?pool:pool ->
  ?owner:(Relation.Tuple.t -> bool) ->
  Gom.Store.t ->
  Gom.Path.t ->
  Extension.kind ->
  Decomposition.t ->
  t
(** Materialise from the current object base.  With [?pool], shareable
    partitions are looked up in (and registered with) the pool.

    With [?owner], the relation is a {e horizontal fragment}: only the
    extension tuples the predicate accepts are materialised, and
    {!apply_delta} silently drops tuples outside the fragment.  The
    placement layer ([lib/shard]) gives each shard the predicate
    selecting its owned tuples; the fragments partition the full
    extension, so per-shard answers union to the unsharded answer
    (Thm. 3.9 applied horizontally).  Consumers comparing the relation
    against a from-scratch {!Extension.compute} must filter the ground
    truth through {!restrict}.
    @raise Invalid_argument if the decomposition does not match the
    path's arity, or the pool belongs to a different store. *)

val owner : t -> (Relation.Tuple.t -> bool) option
(** The placement predicate this relation was created with, if any. *)

val restrict : t -> Relation.t -> Relation.t
(** Filter a relation through this relation's placement predicate (the
    identity for unfragmented relations) — what ground-truth
    recomputations must apply before comparing. *)

val id : t -> int
(** Process-unique identity of this relation, assigned at creation —
    usable as a hash key where physical identity matters (e.g. a
    snapshot's tree-version pins). *)

val seg : t -> string
(** The {!Storage.Stats} segment name this relation tags its page
    traffic with (["asr<id>"], computed once at creation) — the key
    under which {!Storage.Stats.segment_hit_ratio} reports its buffer
    warmth. *)

val store : t -> Gom.Store.t
val path : t -> Gom.Path.t
val kind : t -> Extension.kind
val decomposition : t -> Decomposition.t
val config : t -> Storage.Config.t

val arity : t -> int
(** Number of columns [m + 1]. *)

val extension_relation : t -> Relation.t
(** The undecomposed extension, stitched from the partitions
    ({!Relation.reconstruct}, Thm. 3.9) as the trees hold it, pending
    deferred deltas included.  Keeps only tuples with an edge (what a
    pool's co-sharers leave in a shared partition is a lone boundary
    value) and, under a placement predicate, the owned ones. *)

val cardinal : t -> int
(** Cardinality of {!extension_relation}. *)

val partition_count : t -> int

val partition_bounds : t -> int -> int * int
(** Column range [(lo, hi)] of the given partition. *)

val partition_index_of_column : t -> int -> int
(** Index of the partition covering the column (preferring the
    partition that {e starts} there, matching forward-lookup use). *)

val partition_relation : t -> int -> Relation.t
(** Contents of a partition's trees, as a relation (without pending
    deferred deltas). *)

val lookup_fwd :
  ?stats:Storage.Stats.t -> t -> int -> Gom.Value.t -> Relation.Tuple.t list
(** Partition tuples whose first column equals the key, through the
    forward-clustered B+ tree. *)

val lookup_bwd :
  ?stats:Storage.Stats.t -> t -> int -> Gom.Value.t -> Relation.Tuple.t list

val lookup_fwd_many :
  ?stats:Storage.Stats.t ->
  t ->
  int ->
  Gom.Value.t list ->
  (Gom.Value.t * Relation.Tuple.t list) list
(** Batched {!lookup_fwd} over the partition's forward tree
    ({!Storage.Bptree.lookup_many}): sorted keys share descents and
    leaf pages — the engine's batched executor entry point. *)

val lookup_bwd_many :
  ?stats:Storage.Stats.t ->
  t ->
  int ->
  Gom.Value.t list ->
  (Gom.Value.t * Relation.Tuple.t list) list

val scan_partition : ?stats:Storage.Stats.t -> t -> int -> Relation.Tuple.t list
(** All tuples of a partition, reading every leaf page — the cost the
    paper charges when a query enters a partition away from its
    clustering boundary. *)

(** {2 The current relation}

    Reads for maintenance: {!lookup_fwd} ([~fwd:true]), {!lookup_bwd}
    and {!scan_partition}, charging the same pages, with the rows
    overlaid by the partition's pending deferred deltas.  The buffers
    are keyed by a projection's first and last column, so a probe finds
    its key's deltas without scanning them.  Not for snapshot readers:
    the buffers change without a tree version bump. *)

val probe :
  ?stats:Storage.Stats.t -> t -> int -> fwd:bool -> Gom.Value.t -> Relation.Tuple.t list

val probe_scan : ?stats:Storage.Stats.t -> t -> int -> Relation.Tuple.t list

val apply_delta :
  ?stats:Storage.Stats.t ->
  t ->
  remove:Relation.Tuple.t list ->
  add:Relation.Tuple.t list ->
  int
(** Write a difference of the extension (paper, section 6.1): retract
    the [remove] tuples, then add the [add] tuples, both restricted to
    the placement predicate.  It must be exact (every removed tuple
    held, every added one absent, no duplicates): nothing else records
    the relation.  Immediate mode nets each partition's projection
    deltas (a remove and an add with one projection never reach its
    trees) and writes them under one tree seal and segment tag; deferred
    mode buffers them.  Returns the number of tuples written.
    @raise Invalid_argument on a tuple of the wrong width. *)

val supports : t -> i:int -> j:int -> bool
(** Equation 35's applicability of this extension to queries over the
    object positions [i < j]. *)

(** {2 Deferred maintenance}

    In {e deferred} mode, {!apply_delta}'s tree writes are parked in
    write-behind buffers holding one {e net} signed reference-count
    delta per projected tuple, one buffer per pair of trees (so the
    relations sharing a pool segment share its buffer too); the relation
    is read through the trees overlaid with these buffers ({!probe},
    {!extension_relation}).
    Buffering merges deltas on the same projection and {e annihilates}
    pairs whose net reaches zero — an insert followed by a delete of the
    same projection never touches a page.  {!flush} drains the buffers through
    {!Storage.Bptree.apply_many}, one shared-descent pass per tree. *)

val deferred : t -> bool

val set_deferred : t -> bool -> unit
(** Toggle deferred mode.  Turning it off does {e not} flush — callers
    that need the trees caught up must {!flush} first (the maintenance
    manager's policy switch does). *)

val pending_deltas : t -> int
(** Net buffered deltas across all partitions' buffers, a pool's
    co-sharers' included (0 = trees are fresh). *)

val pending_bytes : t -> int
(** Buffered volume in stored-tuple bytes, for byte-threshold flush
    policies. *)

val flush : ?stats:Storage.Stats.t -> t -> int
(** Drain every partition's buffer (with any co-sharer's deltas in it)
    into both of its trees via
    {!Storage.Bptree.apply_many}; returns the number of net deltas
    applied (0 = nothing pending).  Page accounting charges each touched
    leaf once per operation — the batched write-locality win.

    A flush that applies work runs sealed (see {!acquire_trees}) and
    bumps {!tree_version}; a no-op flush leaves the version — and any
    snapshot pins on it — untouched. *)

(** {2 Tree epoch gate}

    The B+ trees are mutable and shared {e by reference} across epoch
    snapshots: publication never rebuilds an index.  What makes that
    safe is a seal/drain gate: every tree mutation (immediate-mode
    maintenance, {!flush}, {!damage_partition}, {!patch_partition}) runs with the gate sealed — it waits for
    in-flight tree readers to drain, mutates, bumps the version and
    reopens.  Snapshot readers pin {!tree_version} at publication and
    bracket every tree probe with {!acquire_trees} / {!release_trees};
    losing the race (gate sealed, or version moved past the pin) makes
    the engine fall back to navigation over the frozen view, which
    answers identically.  Writers are expected to be serialised among
    themselves (the parallel server's writer mutex). *)

val tree_version : t -> int
(** Monotone counter of sealed tree mutations.  A snapshot records it at
    publication; equality later means the trees still reflect exactly
    that epoch. *)

val acquire_trees : t -> version:int -> bool
(** Enter a tree-reading section pinned at [version].  [true] means the
    trees are open and still at that version, and the caller {e must}
    eventually call {!release_trees}; [false] means the caller must not
    touch the trees (and must not release). *)

val release_trees : t -> unit
(** Leave a tree-reading section entered via a successful
    {!acquire_trees}. *)

type part_geometry = {
  lo : int;
  hi : int;
  tuples : int;  (** Distinct tuples in the partition ([#E^(lo,hi)]). *)
  tuple_bytes : int;  (** The paper's [ats]. *)
  leaf_pages : int;  (** The paper's [ap] (one clustering copy). *)
  inner_pages : int;  (** The paper's [pg]. *)
  height : int;  (** The paper's [ht]. *)
  shared : bool;  (** Whether the partition lives in a sharing pool. *)
}

val geometry : t -> part_geometry list

val total_pages : t -> int
(** Leaf plus inner pages summed over partitions, for {e one} clustering
    copy (the paper's size comparisons count the non-redundant
    representation; the physical design stores two copies). *)

(** {2 Integrity hooks}

    Entry points for the integrity subsystem ([lib/integrity]): injecting
    physical divergence for corruption sweeps, and comparing a
    partition's trees with the ground truth — which a scrub reports and
    a repair writes back. *)

val partition_shared : t -> int -> bool
(** Whether the partition lives in a sharing pool (its trees then carry
    co-sharers' projections too). *)

val partition_refcount : t -> int -> Relation.Tuple.t -> int
(** Reference count the partition's forward tree carries for the given
    projection (0 when absent). *)

val check_partition : t -> int -> (unit, string) result
(** Structural check of a partition's two redundant trees: each passes
    {!Storage.Bptree.check_invariants}, and both hold the same tuples
    with the same reference counts. *)

type damage =
  | Drop of Relation.Tuple.t
      (** Retract one reference to the projection from both trees — the
          physical shape of a lost maintenance update. *)
  | Phantom of Relation.Tuple.t
      (** Add one spurious reference — the shape of a replayed or
          misdirected update.  A wrong-NULL-marker divergence is a
          [Drop] of the true projection plus a [Phantom] of the
          mismarked one. *)

val damage_partition : t -> int -> damage list -> unit
(** Corrupt one partition's trees behind maintenance's back, so the
    structure diverges from the object base — exactly what the scrubber
    must detect.  Test/fault harness use only.
    @raise Invalid_argument on projection width mismatch. *)

type target
(** The ground truth every partition's trees are measured against: a
    fresh {!Extension.compute} (restricted to the fragment) of each
    relation that may hold one of them — every member of the relation's
    pool, or the relation alone.  Each member's extension is computed at
    most once per target, when a partition first needs it, so one target
    serves a whole scrub or a whole repair. *)

val target : t -> target
(** A target over the object base as it stands; build a new one after
    the base changes. *)

val target_tuples : target -> Relation.Tuple.t list
(** The relation's own ground-truth extension. *)

val partition_diff :
  ?stats:Storage.Stats.t ->
  ?keep:(Relation.Tuple.t -> bool) ->
  target ->
  int ->
  (Relation.Tuple.t * int * int) list
(** Every projection whose reference count in the partition's trees
    differs from its expected multiplicity, as [(proj, want, have)] in
    tuple order.  The expected multiset sums the projections of every
    partition, of any member of the target, holding the same trees — so
    a shared partition is compared exactly too.  With [?keep], only the
    extension tuples it accepts are expected (a sampled audit: [want]
    then undercounts, and only [have = 0] is meaningful).  Reads the
    trees as they are (pending deferred deltas are not applied) and
    charges a scan of the partition. *)

val patch_partition : ?stats:Storage.Stats.t -> target -> int -> int
(** Reconcile the partition's two trees with the target: flush, then
    drive every projection {!partition_diff} reports to its expected
    count (missing references re-inserted, phantom ones retracted).  A
    shared partition comes out exact for every co-sharer too (and brings
    any of them that is not maintained up to the base).  Returns the
    number of distinct projections fixed (0 = partition was clean). *)
