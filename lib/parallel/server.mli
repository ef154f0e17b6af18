(** Parallel snapshot-isolated query serving.

    The server wraps one live object base behind epoch-based snapshot
    publication:

    - {e writers} go through {!update}, serialised by a single writer
      mutex; when a commit actually mutated the base, a fresh
      {!Snapshot.t} is published with one atomic store — advanced
      copy-on-write from the previous epoch's image (only touched
      instances are cloned, and the access support relations are shared
      by reference with their tree versions pinned), so publication
      costs what the writer touched, never a deep copy of the base;
    - {e readers} never block: {!pin} is an [Atomic.get], and every
      query entry point runs against a pinned immutable snapshot, so a
      reader races no one — not even a concurrent republication, which
      merely swaps the pointer for {e later} pins.

    Query batches fan out over a fixed {!Pool.t} of domains.  Probe
    batches are globally sorted, split into contiguous chunks, and the
    chunk answers concatenated in chunk order — because the engine's
    batch answers are sorted functions of the probe {e set}, the merged
    output is byte-identical for every job count (property-tested).
    Each task accounts pages into a private {!Storage.Stats.t} sheaf;
    sheaves are merged with {!Storage.Stats.merge} and folded into the
    server's cumulative accountant, so {!stats} equals what a
    sequential run would have counted. *)

type t

val create :
  ?jobs:int ->
  ?buffer_pages:int ->
  ?sizes:(Gom.Schema.type_name -> int) ->
  ?maintenance:Core.Maintenance.t ->
  specs:Snapshot.spec list ->
  Gom.Store.t ->
  t
(** Serve [base] with [max 1 jobs] executor domains (default 1) and the
    given access-support specs, opening a {!Snapshot.source} and
    publishing the initial snapshot immediately (the one O(n) image;
    every later publication is CoW).  The base must not be mutated
    behind the server's back afterwards — route every write through
    {!update}.  The spec'd relations are registered with [?maintenance]
    (the live base's manager — its flush policy then governs them) or
    with a private immediate-mode manager; either way every pending
    delta is flushed before a snapshot is published, so published
    epochs are always delta-free.

    [?buffer_pages:n] (default 0 = unbuffered) gives each worker task's
    private environment an [n]-page buffer pool; the merged accountant
    then reports cumulative hit/miss/eviction tallies across tasks. *)

val jobs : t -> int

val epoch : t -> int
(** Epoch of the currently published snapshot. *)

val pin : t -> Snapshot.t
(** The current snapshot; wait-free.  A pinned snapshot stays valid (and
    frozen) forever — republication never mutates it. *)

val update : ?publish:bool -> t -> (Gom.Store.t -> 'a) -> 'a
(** Run a writer against the live base under the writer lock; if the
    base's epoch moved (the writer emitted at least one event), capture
    and publish a fresh snapshot before returning.  Readers pinned to
    the old snapshot keep their consistent view.  With [~publish:false]
    the write commits but publication is deferred (readers keep the
    previous epoch) until a later publishing {!update} or {!refresh} —
    brownout mode uses this to shed the capture cost under overload,
    trading bounded staleness. *)

val refresh : t -> unit
(** Force republication even without intervening writes (e.g. after
    changing specs out of band, or to catch up after deferred
    [~publish:false] updates). *)

val lag : t -> int
(** How many epochs the published snapshot trails the live base
    (0 = fresh; positive only while publication is deferred). *)

type publish_info = {
  publishes : int;  (** Epochs published since creation (incl. the first). *)
  last_latency_s : float;  (** Wall-clock cost of the last publication. *)
  total_latency_s : float;
  last_copied : int;
      (** Instances deep-copied by the last publication (its dirty set). *)
  last_shared : int;
      (** Instances the last publication carried over by reference. *)
}

val publish_info : t -> publish_info
(** Publication telemetry; wait-free.  [last_copied] versus
    [last_shared] is the direct measure of the CoW win: a small write
    against a large base copies a handful of instances and shares the
    rest. *)

(** {2 Query entry points}

    All of them pin the current snapshot unless handed an explicit
    [?snapshot] (the way a reader spans several calls under one
    consistent view). *)

val forward_batch :
  ?snapshot:Snapshot.t ->
  t ->
  Gom.Path.t ->
  i:int ->
  j:int ->
  Gom.Oid.t list ->
  (Gom.Oid.t * Gom.Value.t list) list
(** Fan a probe set across the pool; answers sorted by probe,
    deduplicated, independent of the job count. *)

val backward_batch :
  ?snapshot:Snapshot.t ->
  t ->
  Gom.Path.t ->
  i:int ->
  j:int ->
  targets:Gom.Value.t list ->
  (Gom.Value.t * Gom.Oid.t list) list

type query =
  | Forward of { q_path : Gom.Path.t; q_i : int; q_j : int; q_sources : Gom.Oid.t list }
  | Backward of { q_path : Gom.Path.t; q_i : int; q_j : int; q_targets : Gom.Value.t list }

type answer =
  | Forward_answer of (Gom.Oid.t * Gom.Value.t list) list
  | Backward_answer of (Gom.Value.t * Gom.Oid.t list) list

val serve : ?snapshot:Snapshot.t -> t -> query list -> answer list
(** Route a mixed workload through the pool: queries are dealt to
    executors in contiguous chunks, each executed left-to-right under a
    private sheaf, and the answers returned {e in request order} —
    again independent of the job count. *)

type served = Answered of answer | Timed_out | Failed of string
    (** Typed per-query outcome of {!serve_deadlined}: a full answer, a
        cooperative cancellation (the query's deadline expired at a
        checkpoint — never a partial answer), or a query-local failure
        (the raising query fails alone; the batch, the pool and every
        other query survive). *)

val serve_deadlined :
  ?snapshot:Snapshot.t -> t -> (query * Core.Deadline.t) list -> served list
(** Like {!serve}, but each query carries its own cancellation budget
    and returns a typed outcome instead of raising.  An [Answered]
    outcome is byte-identical to what {!serve} would have produced for
    the same query on the same snapshot (property-tested); [Timed_out]
    is counted in the merged accounting as [timed_out]. *)

val stats : t -> Storage.Stats.summary
(** Cumulative merged accounting over everything the server executed. *)

val shutdown : t -> unit
(** Join the worker domains and close the server's snapshot source
    ({!Snapshot.close_source}): the server stops following the base,
    and the last published epoch stays readable.  Later {!update} and
    {!refresh} calls raise [Invalid_argument] instead of publishing a
    stale image. *)
