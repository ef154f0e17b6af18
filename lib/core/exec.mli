(** Executable query evaluation, with and without access support.

    The two abstract query forms of the paper (section 5.1) over a path
    [t0.A1.....An] and object positions [0 <= i < j <= n]:

    - {e forward} [Q^(i,j)(fw)]: from a given object [o] of type [ti],
      retrieve the objects/values reachable at position [j] via
      [o.A(i+1).....Aj];
    - {e backward} [Q^(i,j)(bw)]: retrieve the objects [o] of type [ti]
      whose path set at position [j] contains a given target.

    Without access support, evaluation navigates the object graph
    (forward) or exhaustively scans the anchor extent (backward), since
    references are uni-directional.  With access support, evaluation
    walks the B+ trees of the partitions, key-looking-up at clustering
    boundaries and scanning partitions entered in the middle — exactly
    the access patterns the paper's cost formulas (33)-(34) charge.

    All page traffic is reported to the environment's {!Storage.Stats.t}
    — the environment {e is} the accounting context; callers that want a
    fresh measurement call {!Storage.Stats.begin_op} on [env.stats]
    before evaluating. *)

type env = {
  view : Gom.Store_view.t;
      (** The read-only view every evaluation consumes: the live store
          for ordinary environments, a frozen epoch snapshot in the
          parallel server's executors. *)
  heap : Storage.Heap.t;
  stats : Storage.Stats.t;  (** Every evaluation charges its pages here. *)
  deadline : Deadline.t;
      (** Cooperative budget; {!checkpoint} sites raise
          {!Deadline.Expired} once it is exhausted. *)
  marks : (int * int) list;
      (** Index pins of a frozen environment: ({!Asr.id}, tree version)
          pairs recorded at snapshot publication.  The engine only walks
          an ASR's B+ trees on behalf of this environment if the ASR's
          current {!Asr.tree_version} still equals the pinned one —
          otherwise it degrades to navigation (exact, just slower).
          Empty for live environments. *)
}

val make :
  ?stats:Storage.Stats.t ->
  ?buffer_pages:int ->
  ?deadline:Deadline.t ->
  Gom.Store.t ->
  Storage.Heap.t ->
  env
(** [make store heap] builds an environment over the live store (a
    [Live] view, no marks) with a fresh cold {!Storage.Stats.t}; pass
    [?stats] to share or buffer one, or [?buffer_pages:n] (with [n > 0])
    to create the fresh stats with an [n]-page buffer pool attached
    (ignored when [?stats] is given).  [?deadline] defaults to
    {!Deadline.none} — no budget, zero-cost checkpoints. *)

val make_view :
  ?stats:Storage.Stats.t ->
  ?buffer_pages:int ->
  ?deadline:Deadline.t ->
  ?marks:(int * int) list ->
  Gom.Store_view.t ->
  Storage.Heap.t ->
  env
(** Generalisation of {!make} to any view; snapshot environments pass
    the frozen view plus the index marks pinned at publication. *)

val live_store_exn : env -> Gom.Store.t
(** The mutable store behind a [Live] environment — write paths
    (maintenance, transactions) recover mutation rights through this.
    @raise Invalid_argument on frozen environments. *)

val mark_for : env -> int -> int option
(** [mark_for env id] is the tree version pinned for ASR [id] at
    publication, if this is a snapshot environment that pinned it. *)

val checkpoint : env -> unit
(** Record one cancellation checkpoint against [env.deadline] (raising
    {!Deadline.Expired} when exhausted).  Called on every object read
    and every partition round; evaluators that add new bulk loops
    should call it once per round. *)

val forward_scan :
  env -> Gom.Path.t -> i:int -> j:int -> Gom.Oid.t -> Gom.Value.t list
(** Navigational evaluation of [Q^(i,j)(fw)] from one source object.
    Results are distinct, sorted; pages of objects at positions
    [i .. j-1] (and of traversed set instances) are read. *)

val backward_scan :
  env -> Gom.Path.t -> i:int -> j:int -> target:Gom.Value.t -> Gom.Oid.t list
(** Exhaustive evaluation of [Q^(i,j)(bw)]: scans the [ti] extent and
    tests reachability of [target] at position [j]. *)

(** {2 The stitch walk (section 5.6)}

    Defined once, here: the planner prices and health-checks the
    {!step}s of {!stitch_steps}, and every executor runs them through
    {!stitch}. *)

type dir = Fwd | Bwd

(** One partition visit.  [enter] and [leave] are the (relation)
    columns where the walk enters and leaves partition [part]. *)
type step =
  | Lookup of { part : int; enter : int; leave : int }
      (** Entered at the clustering column: key lookups. *)
  | Scan of { part : int; enter : int; leave : int }
      (** Entered at an interior column: every leaf page is read. *)

val stitch_steps : Asr.t -> dir -> i:int -> j:int -> step list
(** The partitions a [Q^(i,j)] walk over the index visits, in order:
    forward from object position [i] to [j], backward from [j] to [i].
    @raise Invalid_argument unless [0 <= i < j <= n]. *)

(** [lookup part keys] prepares the lookups of [keys] (every probe's)
    in partition [part]; the function it returns gives one key's rows. *)
type lookup = int -> Gom.Value.t list -> Gom.Value.t -> Relation.Tuple.t list

val stitch :
  env ->
  Asr.t ->
  lookup:lookup ->
  step list ->
  Gom.Value.t list array ->
  Gom.Value.t list array
(** [stitch env index ~lookup steps frontiers] runs the walk for one
    frontier per probe and returns each probe's final frontier
    (distinct, sorted, NULL-free).  A [Scan] reads its partition once
    and filters it for every probe; a [Lookup] prepares [lookup] once
    with the keys of all frontiers, then asks it for each probe's keys.
    Stops as soon as every frontier is empty; calls {!checkpoint} once
    per partition round. *)

val paths :
  env ->
  Asr.t ->
  lookup:lookup ->
  scan:(int -> Relation.Tuple.t list) ->
  dir ->
  i:int ->
  j:int ->
  Gom.Value.t ->
  Relation.Tuple.t list
(** The tuple-carrying sibling of {!stitch}: the same walk, carrying
    partial paths over columns [col i .. col j] from a probe at object
    position [i] ([Fwd]) or [j] ([Bwd]), NULL beyond a dead end; [[]]
    when the relation does not hold the probe.  [scan] reads a partition
    entered away from its clustering column.  Distinct, sorted.
    Maintenance reads the §6.1 sides [I_l] and [I_r] this way. *)

val lookup_each : env -> Asr.t -> dir -> lookup
(** One {!Asr.lookup_fwd} (or {!Asr.lookup_bwd}) each time a probe asks
    for a key: the paper's per-probe reference cost. *)

val lookup_many : env -> Asr.t -> dir -> lookup
(** One {!Asr.lookup_fwd_many} (or {!Asr.lookup_bwd_many}) over all the
    keys up front: sorted keys share descents and leaf pages, the
    batched executors' lookup. *)

val forward_supported :
  env -> Asr.t -> i:int -> j:int -> Gom.Oid.t -> Gom.Value.t list
(** Index evaluation of [Q^(i,j)(fw)]: {!stitch_steps} run through
    {!stitch} with {!lookup_each}.  The caller must ensure
    {!Asr.supports}; results on supported ranges agree with
    {!forward_scan} (property-tested). *)

val backward_supported :
  env -> Asr.t -> i:int -> j:int -> target:Gom.Value.t -> Gom.Oid.t list
(** Backward analogue of {!forward_supported}; distinct, sorted. *)

val backward :
  ?index:Asr.t ->
  env ->
  Gom.Path.t ->
  i:int ->
  j:int ->
  target:Gom.Value.t ->
  Gom.Oid.t list
(** Dispatch per equation 35: use the index when it applies to [(i,j)],
    fall back to the exhaustive scan otherwise. *)
