(** A shard group: one object base served by [N] shards, with a
    scatter-gather router whose answers are byte-identical to the
    unsharded engine at every shard count and job count.

    {2 Architecture}

    Shard 0 wraps the caller's store — the single write endpoint.  Every
    other shard holds a full structural replica, kept converged by a
    fan-out subscription that replays each primary event (via its
    {!Durability.Wal.record_of_event} image) onto the replica stores, so
    each shard's maintenance manager and engine generation observe the
    same mutation stream.  Only shard 0 is ever logged ({!Durable}).

    What is {e not} replicated is the index work: each shard's access
    support relations are horizontal fragments ([Core.Asr.create
    ~owner]) holding only the tuples {!Placement} assigns to that shard,
    so tree sizes, maintenance traffic and lookup work split ~1/N per
    shard while navigation fallbacks (over the full replica) stay exact.

    {2 Routing}

    A forward batch anchored at the query path's origin ([i = 0]) is
    {e grouped}: probes are partitioned by owner shard and each shard
    answers its own probes exactly — sound because a tuple whose column
    0 equals the probe has the probe as its leftmost non-NULL column,
    hence lives on the probe's owner shard, and because grouping is only
    chosen when every registered index embeds the query path at offset 0
    ({!Engine.embedding_offset}).  Everything else — backward queries,
    deeper anchors, paths some index embeds at a positive offset — is
    {e scattered}: every shard evaluates every probe and the per-probe
    answers are unioned.

    {2 Determinism}

    Shard tasks run on a {!Parallel.Pool}, whose [run_all] returns
    results in input (shard) order regardless of scheduling; merges sort
    with the same comparators the engine's batch entry points use
    ([Gom.Oid.compare] / [Gom.Value.compare] under [List.sort_uniq]).
    Answers are therefore a function of the probe set alone — identical
    at 1, 2, 4 or 8 shards, and at any [jobs]. *)

type t

val create :
  ?jobs:int ->
  ?policy:Core.Maintenance.flush_policy ->
  ?size_of:(Gom.Schema.type_name -> int) ->
  placement:Placement.t ->
  Gom.Store.t ->
  t
(** An in-memory group over the given store (which becomes shard 0's
    store and stays the write endpoint).  [jobs] sizes the domain pool
    (default: the shard count); [policy] is applied to every shard's
    maintenance manager; [size_of] feeds the per-shard heap layouts
    (default 100 bytes per object, the test suite's convention). *)

val of_primary :
  ?jobs:int ->
  ?size_of:(Gom.Schema.type_name -> int) ->
  placement:Placement.t ->
  env:Core.Exec.env ->
  manager:Core.Maintenance.t ->
  unit ->
  t
(** A group whose shard 0 is pre-built plumbing over a live store — the
    durable layer passes its {!Durability.Db}'s environment and
    maintenance manager.  Replicas 1..N-1 are built exactly as {!create}
    builds them: a copy of the primary store with its own heap,
    environment and maintenance manager.  [manager] must be attached to
    [env]'s store. *)

val create_on :
  ?jobs:int ->
  placement:Placement.t ->
  stores:Gom.Store.t array ->
  managers:Core.Maintenance.t array ->
  envs:Core.Exec.env array ->
  unit ->
  t
(** Assemble a group over pre-built per-shard plumbing, for callers
    that build every shard's store, environment and maintenance manager
    themselves.  [stores.(0)]
    is the write endpoint; all three arrays must have the placement's
    length, and [managers.(k)]/[envs.(k)] must be attached to
    [stores.(k)].
    @raise Invalid_argument on length or store mismatches. *)

val shards : t -> int
val jobs : t -> int
val placement : t -> Placement.t

val primary : t -> Gom.Store.t
(** Shard 0's store — the write endpoint all mutations go through. *)

val store : t -> int -> Gom.Store.t
val env : t -> int -> Core.Exec.env
val engine : t -> int -> Engine.t
val manager : t -> int -> Core.Maintenance.t

val quarantine_registry : t -> int -> Integrity.Quarantine.t
(** Shard [k]'s quarantine registry, already attached as its engine's
    health oracle — quarantining a shard's partition degrades planning
    {e on that shard only}. *)

val asrs : t -> int -> Core.Asr.t list
(** Shard [k]'s fragment relations, in registration order. *)

val register :
  t -> path:Gom.Path.t -> kind:Core.Extension.kind -> dec:Core.Decomposition.t -> unit
(** Materialise one access support relation as [N] owner-filtered
    fragments — one per shard, each registered with its shard's
    maintenance manager and engine. *)

val specs : t -> (Gom.Path.t * Core.Extension.kind * Core.Decomposition.t) list

(** {2 Scatter-gather queries} *)

val forward :
  t -> Gom.Path.t -> i:int -> j:int -> Gom.Oid.t -> Gom.Value.t list
(** One probe: {!forward_batch} over a batch of one, routed (and
    counted grouped or scattered) like any batch. *)

val backward :
  t -> Gom.Path.t -> i:int -> j:int -> target:Gom.Value.t -> Gom.Oid.t list
(** One target: {!backward_batch} over a batch of one. *)

val forward_batch :
  t -> Gom.Path.t -> i:int -> j:int -> Gom.Oid.t list -> (Gom.Oid.t * Gom.Value.t list) list
(** Batched scatter-gather: probes are deduplicated and sorted, routed
    grouped or scattered, evaluated through each shard's
    {!Engine.forward_batch} (shared descents per shard), and merged
    deterministically.  Answers equal the unsharded engine's, byte for
    byte. *)

val backward_batch :
  t ->
  Gom.Path.t ->
  i:int ->
  j:int ->
  targets:Gom.Value.t list ->
  (Gom.Value.t * Gom.Oid.t list) list

(** {2 Maintenance and accounting} *)

val set_policy : t -> Core.Maintenance.flush_policy -> unit
(** Switch every shard's maintenance manager's flush policy. *)

val flush_all : t -> int
(** Drain every shard's deferred-maintenance buffers; returns the total
    net deltas applied. *)

val pending : t -> int
(** Buffered deltas summed over shards. *)

val shard_summaries : t -> Storage.Stats.summary array
(** Per-shard accounting sheaves (each shard's environment counts its
    own pages privately). *)

val stats_summary : t -> Storage.Stats.summary
(** The group accountant: every shard sheaf merged
    ({!Storage.Stats.merge}) with the router's own grouped/scatter
    counters. *)

val total_pages : t -> int array
(** Per-shard page counts over all fragment relations (one clustering
    copy each) — the bench's per-shard balance report. *)

val close : t -> unit
(** Detach the fan-out subscription, close every shard's engine and
    maintenance manager ({!Engine.close}, {!Core.Maintenance.close})
    and the heaps the group laid out ({!Storage.Heap.close}), and shut
    the domain pool down.  Idempotent; the stores and relations
    survive (shard 0's store is the caller's), but no longer follow
    mutations. *)
