(** Durable shard groups: one {!Durability.Db} holds the group's only
    durable state, and every other shard is rebuilt from it.

    {2 Directory layout}

    {v
    <dir>/SHARDS              shard count, placement, registered ASRs
    <dir>/MANIFEST            shard 0's Db: generation
    <dir>/snapshot-<g>.base   shard 0's Db: atomic base image
    <dir>/wal-<g>.log         shard 0's Db: the group's one log
    v}

    Shard 0's store is the write endpoint and the only one logged, so
    every write reaches the disk once.  Because the Db lives in [<dir>]
    itself, every tool that opens a plain Db directory also opens a
    sharded one (its log replays the whole base).

    Everything else is derived data, rebuilt at {!create} and {!open_}:
    shards 1..N-1 are in-memory replicas seeded from shard 0's
    (recovered) store exactly as {!Group.create} seeds them — a copy of
    the store with its own heap, environment and maintenance manager —
    and the group's fan-out keeps them converged from then on.  The
    fragment relations are {e not} registered in the Db's manifest (its
    recovery would rebuild them unfiltered); [SHARDS] holds their specs
    and {!open_} re-creates the owner-filtered fragments over every
    shard.  A replica therefore equals shard 0 at open by construction;
    what recovery can still detect — torn or corrupt log frames,
    uncommitted tails, ASR mismatches — is the Db's to report. *)

exception Shard_error of string
(** A missing or malformed [SHARDS] manifest, an unsupported manifest
    version, or a bad registration. *)

val shards_file : string -> string
(** [dir]'s cross-shard manifest path. *)

type t

val create :
  ?policy:Durability.Wal.sync_policy ->
  ?fault:Durability.Fault.t ->
  ?jobs:int ->
  ?placement:Placement.t ->
  dir:string ->
  Gom.Store.t ->
  t
(** Initialise a durable shard group at [dir] (created if missing) from
    an in-memory store: one {!Durability.Db} over the store as shard 0,
    replicas seeded from it.  [placement] defaults to hash placement
    over 1 shard; [fault] is the Db's fault environment.
    @raise Shard_error if [dir] already holds a cross-shard manifest.
    @raise Durability.Db.Db_error if it already holds a Db. *)

val open_ :
  ?policy:Durability.Wal.sync_policy ->
  ?fault:Durability.Fault.t ->
  ?jobs:int ->
  dir:string ->
  unit ->
  t
(** Recover the Db, seed the replicas from its recovered store, and
    re-create the registered fragment relations from the cross-shard
    manifest.
    @raise Shard_error on a malformed or old-version cross-shard
    manifest; the Db's own recovery errors propagate. *)

val group : t -> Group.t
(** The assembled group — routing, quarantine, stats and flush control
    all go through it. *)

val register :
  t -> path:string -> kind:Core.Extension.kind -> ?dec:string -> unit -> unit
(** Register an access support relation over a path expression (parsed
    against the schema, like {!Durability.Db.register_asr}), fragment
    it across the shards, and persist the registration in the
    cross-shard manifest so {!open_} re-creates it.
    @raise Shard_error on a malformed path/decomposition or duplicate
    registration. *)

val specs : t -> Durability.Db.spec list

val db : t -> Durability.Db.t
(** Shard 0's Db — the group's only durable state. *)

val report : t -> Durability.Db.report option
(** The Db's recovery report ([None] for a freshly created group). *)

val flush_maintenance : t -> int
(** Drain every shard's deferred buffers — shard 0 through
    {!Durability.Db.flush_maintenance}, framed in the log as one flush
    group; the replicas through their managers.  Returns total net
    deltas. *)

val checkpoint : t -> unit
(** Checkpoint the Db (new snapshot generation, fresh log). *)

val close : t -> unit
(** Close the group (fan-out, pool) and the Db.  Idempotent. *)
