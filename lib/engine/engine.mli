(** Cost-based query engine over access support relations.

    The engine is the unified entry point for [Q^(i,j)] queries: it owns
    the registered access support relations of one object base, measures
    (or accepts) statistical {!Costmodel.Profile}s, enumerates every
    legal physical strategy for a query (Definitions 3.4-3.8 decide
    which extensions apply via {!Core.Asr.supports}), prices the
    strategies with the analytical cost model (equations 31-35) fed by
    live profiles, caches the winning plan per query shape, and executes
    plans either probe-at-a-time or batched.

    {2 Plan cache}

    Chosen plans are cached under [(path, i, j, direction)] and stamped
    with the engine's {e generation} — a counter bumped on every store
    mutation, on {!register} and on {!set_profile}.  A cached plan from
    an older generation is re-planned (and counted as an invalidation),
    so maintenance traffic transparently invalidates affected plans.
    Re-planning walks no extent: the live base's profiles are kept exact
    from store events; snapshots measure their epoch.

    {2 Batched execution}

    {!forward_batch} / {!backward_batch} evaluate many probes as one
    accounting operation: a stitch plan runs its own steps through
    {!Core.Exec.stitch} with one frontier per probe, scanning each
    partition once per batch and reading each lookup step's keys in one
    {!Core.Asr.lookup}, so sorted keys share B+ tree descents and leaf
    pages.  There is one keyed read path: {!forward} / {!backward} are a
    batch of one, and {!run_forward} / {!run_backward} run a plan's
    steps for one frontier, charging exactly what
    {!Core.Exec.forward_supported} / {!Core.Exec.backward_supported}
    charge.  Either way the partitions read are the ones planned.

    {2 Domain safety}

    All mutable engine state — plan cache, profile counters, health
    oracle, registration list, generation — sits behind one internal
    mutex, so many OCaml 5 domains may plan and execute queries against
    the {e same frozen store} concurrently.  A plan computed outside the
    lock is published into the cache only if the generation is unchanged
    (the re-check makes concurrent registration/unregistration safe,
    never just slower).  Execution guards re-validate stitches and
    degrade to always-live navigation / extent-scan plans when a
    concurrent [unregister] or health change raced the lookup.

    Page accounting is the one piece of shared state the lock does not
    cover: concurrent callers must pass their own [?env] (same store,
    private {!Storage.Stats.t} sheaf) and merge summaries afterwards
    with {!Storage.Stats.merge}. *)

(** Physical plan IR. *)
module Plan : sig
  type dir = Core.Exec.dir = Fwd | Bwd

  val dir_to_string : dir -> string

  (** One partition visit of the section 5.6 walk, as listed by
      {!Core.Exec.stitch_steps}. *)
  type step = Core.Exec.step =
    | Lookup of { part : int; enter : int; leave : int }
    | Scan of { part : int; enter : int; leave : int }

  type t =
    | Nav of { path : Gom.Path.t; i : int; j : int }
        (** Forward pointer-chasing through the object graph. *)
    | Extent_scan of { path : Gom.Path.t; i : int; j : int }
        (** Backward by exhaustive search over the extent of [t_i]. *)
    | Stitch of {
        index : Core.Asr.t;
        dir : dir;
        i : int;
        j : int;  (** Object positions within the {e index's} path. *)
        steps : step list;
            (** The walk, priced and health-checked at planning time;
                execution runs exactly these steps. *)
      }  (** Prefix/suffix stitch across the index's decomposition. *)

  val step_to_string : step -> string
  val to_string : t -> string
end

type t

type candidate = { plan : Plan.t; est_cost : float }

type choice = {
  chosen : Plan.t;
  est_cost : float;
  candidates : candidate list;  (** All priced strategies, cheapest first. *)
}

type cache_info = {
  hits : int;
  misses : int;
  invalidations : int;
  entries : int;
  profile_walks : int;
      (** Full extent walks taken to build a profile: one per path on
          the live base (another after a removal from a list on the
          path), one per path and epoch for snapshot readers. *)
}

val create : ?sizes:(Gom.Schema.type_name -> int) -> Core.Exec.env -> t
(** An engine over the environment's store; [sizes] (default [100]
    bytes per object) feeds its profiles.  Subscribes to the store:
    every mutation bumps the generation and advances the profile
    counters of every path the live environment has asked about, so
    profiles are kept exact from store events; snapshots measure their
    epoch. *)

val close : t -> unit
(** Unsubscribe from the store: later mutations no longer bump the
    generation or advance the profile counters, so a closed engine must
    not plan again.  Idempotent. *)

val env : t -> Core.Exec.env
val indexes : t -> Core.Asr.t list

val register : t -> Core.Asr.t -> unit
(** Make an access support relation available to the planner
    (idempotent).  Bumps the generation: cached plans are re-planned.
    @raise Invalid_argument if the index was built over another store. *)

val unregister : t -> Core.Asr.t -> unit
(** Drop an index from the planner (idempotent).  Bumps the generation
    {e and} eagerly evicts every cached plan stitching through the index
    (counted as invalidations), so no execution path — not even an
    explicit {!run_forward} of a previously returned plan — can reach
    it. *)

val generation : t -> int

val cache_info : t -> cache_info

(* {2 Health} *)

val set_health : t -> (Core.Asr.t -> part:int -> bool) -> unit
(** Install a health oracle, typically the integrity subsystem's
    quarantine registry: the planner only prices a stitch whose every
    visited partition the oracle calls healthy, cached plans through
    now-unhealthy indexes are re-planned, and the execution guards
    refuse stale stitches.  When a usable index is priced out this way
    the degradation is counted as {!Storage.Stats.Fallbacks} in the
    environment's stats.  Bumps the generation. *)

(* {2 Freshness watermark}

   An index whose deferred-maintenance buffers hold pending deltas
   ({!Core.Asr.pending_deltas} > 0) has them drained on first use by a
   live environment — by the planner or an execution guard
   ({!Core.Asr.flush}, charged to the querying operation's stats and
   counted as {!Storage.Stats.Catchup_flushes}) — so answers stay
   exactly equal to immediate maintenance. *)

val invalidate_plans : t -> unit
(** Force re-planning of every cached plan (a generation bump) without
    touching registrations — called by the quarantine registry whenever
    an index's health changes. *)

(* {2 Profiles} *)

val measure_profile :
  ?sizes:(Gom.Schema.type_name -> int) -> Gom.Store.t -> Gom.Path.t -> Costmodel.Profile.t
(** Measure a path's exact statistics ([c_i], [d_i], [fan_i], [shar_i])
    from the object base — the live feed of the planner's cost model. *)

val measure_profile_view :
  ?sizes:(Gom.Schema.type_name -> int) ->
  Gom.Store_view.t ->
  Gom.Path.t ->
  Costmodel.Profile.t
(** {!measure_profile} over any read-only view.  Planning on behalf of a
    frozen environment measures the {e snapshot}, never racing the
    writer, once per path and epoch; the live base is kept exact from
    store events instead. *)

val set_profile : t -> Gom.Path.t -> Costmodel.Profile.t -> unit
(** Pin a profile for a path, overriding measurement (e.g. an assumed
    future workload, or a deterministic profile for tests).  Bumps the
    generation. *)

val profile : t -> Gom.Path.t -> Costmodel.Profile.t
(** The profile the planner uses for a path on the live base: pinned if
    set, else kept exact from store events — walked once, on the path's
    first request, then advanced by every mutation, so it always equals
    {!measure_profile} of the current store. *)

(* {2 Planning} *)

val analytic_decomposition : Gom.Path.t -> Core.Decomposition.t -> Core.Decomposition.t
(** Map a physical decomposition's column boundaries to the analytical
    model's object positions (its [m = n] simplification drops set-OID
    columns). *)

val embedding_offset : index_path:Gom.Path.t -> query_path:Gom.Path.t -> int option
(** First object-position offset at which the query path embeds in the
    index path ([None] when it does not): positions [off..off+n] of the
    index spell exactly the query's anchor type and attribute chain —
    the same first-fit the planner uses when pricing a stitch.  Exposed
    for the shard router, whose grouped-routing decision must know
    whether {e every} index usable for a query anchors it at offset 0
    (only then does a probe's answer live wholly on its owner shard). *)

val candidates :
  ?env:Core.Exec.env -> t -> Gom.Path.t -> i:int -> j:int -> dir:Plan.dir -> candidate list
(** Every legal strategy for [Q^(i,j)] over the path, priced, cheapest
    first: graph navigation (equations 31-32) plus one stitch per
    registered index that embeds the path and supports the range
    (equations 33-34).  On a cost tie a supported plan beats navigation.

    [?env] (here and on every planning/execution entry below) overrides
    the engine's own environment for accounting: it must wrap the {e
    same store} ([Invalid_argument] otherwise) and is how concurrent
    domains keep private {!Storage.Stats.t} sheaves.  Default: the
    environment the engine was created over.
    @raise Invalid_argument unless [0 <= i < j <= n]. *)

val choose :
  ?env:Core.Exec.env -> t -> Gom.Path.t -> i:int -> j:int -> dir:Plan.dir -> choice
(** Cheapest strategy, through the plan cache. *)

(* {2 Execution} *)

val run_forward : ?env:Core.Exec.env -> t -> Plan.t -> Gom.Oid.t -> Gom.Value.t list
(** Execute a forward plan for one source object {e within the current
    accounting operation} (no [begin_op]) — for callers composing a
    larger operation.  @raise Invalid_argument on a backward plan, or on
    a stitch through an index that is no longer registered/healthy. *)

val run_backward : ?env:Core.Exec.env -> t -> Plan.t -> target:Gom.Value.t -> Gom.Oid.t list

val forward :
  ?env:Core.Exec.env -> t -> Gom.Path.t -> i:int -> j:int -> Gom.Oid.t -> Gom.Value.t list
(** Plan (cached) and execute as one accounting operation: a
    {!forward_batch} of one probe.  If a
    concurrent [unregister] or health change invalidates the chosen
    stitch mid-flight, execution degrades to graph navigation (counted
    as {!Storage.Stats.Fallbacks}) instead of failing. *)

val backward :
  ?env:Core.Exec.env ->
  t ->
  Gom.Path.t ->
  i:int ->
  j:int ->
  target:Gom.Value.t ->
  Gom.Oid.t list
(** Backward analogue of {!forward} (a {!backward_batch} of one target);
    degrades to an extent scan. *)

val forward_batch :
  ?env:Core.Exec.env ->
  t ->
  Gom.Path.t ->
  i:int ->
  j:int ->
  Gom.Oid.t list ->
  (Gom.Oid.t * Gom.Value.t list) list
(** Evaluate many probes as {e one} accounting operation, sharing
    partition scans, B+ tree descents and page locality across the
    batch.  Probes are deduplicated and returned in sorted order — a
    deterministic function of the probe {e set}, which is what lets the
    parallel server split a batch across domains and merge chunk
    results back into the jobs-independent answer. *)

val backward_batch :
  ?env:Core.Exec.env ->
  t ->
  Gom.Path.t ->
  i:int ->
  j:int ->
  targets:Gom.Value.t list ->
  (Gom.Value.t * Gom.Oid.t list) list

(* {2 Explain} *)

type explanation = {
  x_path : Gom.Path.t;
  x_i : int;
  x_j : int;
  x_dir : Plan.dir;
  x_choice : choice;
  x_cached : bool;  (** Served from the plan cache. *)
  x_generation : int;
}

val explain : t -> Gom.Path.t -> i:int -> j:int -> dir:Plan.dir -> explanation

val explanation_to_string : explanation -> string
