(** A durable object base: an in-memory {!Gom.Store.t} whose every
    mutation is written ahead to a log, snapshotted periodically, and
    recoverable after a crash to a prefix-consistent state — with all
    registered access support relations rebuilt and verified.

    {2 Directory layout}

    {v
    <dir>/MANIFEST            current generation + registered ASRs
    <dir>/snapshot-<g>.base   atomic Serial.save of generation g
    <dir>/wal-<g>.log         CRC-framed log of events since snapshot g
    v}

    The manifest is replaced atomically (temp file + fsync + rename), so
    a checkpoint either completes — the manifest names the new
    generation — or leaves the previous generation fully intact; a
    half-written new snapshot is simply orphaned.

    {2 Recovery invariant}

    [open_] loads the manifest's snapshot, replays the write-ahead log's
    {e committed} prefix (see {!Wal.scan}), physically truncates the log
    back to that prefix (dropping both torn trailing bytes and intact
    records of unfinished transactions), rebuilds every registered ASR
    from the recovered base, and verifies each against a from-scratch
    {!Core.Extension.compute}.  The result equals the state at some
    transaction-consistent point of the pre-crash history. *)

exception Db_error of string
(** Misuse (double initialisation, closed handle, bad registration). *)

exception Recovery_error of string
(** Damage recovery cannot interpret: unreadable manifest or snapshot,
    or a log record that does not apply to the snapshot. *)

(** {2 Layout and registrations}

    The on-disk vocabulary is exposed so other subsystems speaking the
    same format — a replica materialising shipped segments into a
    directory this module can later recover, failover verification
    reading a dead primary's files — need not reinvent it. *)

val manifest_file : string -> string
(** [manifest_file dir] — the control file naming the live generation. *)

val snapshot_file : string -> int -> string
(** [snapshot_file dir gen] — generation [gen]'s atomic base image. *)

val wal_file : string -> int -> string
(** [wal_file dir gen] — generation [gen]'s write-ahead log. *)

type spec = {
  s_kind : Core.Extension.kind;
  s_dec : string option;  (** decomposition boundary list; [None] = binary *)
  s_path : string;  (** path expression, parsed against the schema *)
}
(** A persisted ASR registration, exactly one manifest line. *)

val spec_to_string : spec -> string
(** The manifest/wire form: [<kind> <dec|-> <path>]. *)

val spec_of_string : string -> spec option
(** Parse the wire form back; [None] on malformed input. *)

val spec_components :
  Gom.Store.t -> spec -> Gom.Path.t * Core.Extension.kind * Core.Decomposition.t
(** Resolve a spec against a store's schema into the pieces
    {!Core.Asr.create} (or [Parallel.Snapshot.source]'s spec list)
    wants.  @raise Recovery_error on a malformed path/decomposition. *)

val read_manifest : string -> int * spec list
(** Read [dir]'s manifest: live generation and registered ASR specs.
    @raise Recovery_error on a missing or malformed manifest. *)

val write_manifest : string -> int -> spec list -> unit
(** Atomically replace [dir]'s manifest (see {!atomic_write}). *)

val atomic_write : string -> string -> unit
(** [atomic_write path contents] replaces a small control file
    atomically: write a temp file beside it, fsync, rename over
    [path].  A crash leaves either the old or the new contents. *)

type t

val create :
  ?fault:Fault.t -> ?policy:Wal.sync_policy -> dir:string -> Gom.Store.t -> t
(** Initialise a durable base at [dir] (created if missing) from an
    in-memory store, as generation 1, and attach: from here on every
    store event is logged, and transactions on the store emit
    begin/commit/abort markers with commit as the flush barrier.
    Default policy is {!Wal.Sync_on_commit}.
    @raise Db_error if [dir] already holds a manifest. *)

val open_ :
  ?fault:Fault.t -> ?policy:Wal.sync_policy -> dir:string -> unit -> t
(** Recover an existing durable base (see the recovery invariant above)
    and attach to the recovered store. *)

type report = {
  generation : int;
  records_scanned : int;  (** intact records found in the log *)
  records_replayed : int;  (** of which committed and applied *)
  records_dropped : int;  (** intact but uncommitted, truncated away *)
  bytes_truncated : int;  (** physical bytes chopped off the log *)
  commits_replayed : int;  (** commit markers in the replayed prefix *)
  flushes_replayed : int;
      (** maintenance flush barriers ({!Wal.record.Flush}) in the
          replayed prefix — each one a flush group that survived whole;
          a mid-flush crash truncates its open group instead *)
  asr_checks : (string * bool) list;
      (** registered ASR spec, and whether the rebuilt relation equals a
          from-scratch computation over the recovered base *)
}

val last_recovery : t -> report option
(** The report of the {!open_} that produced this handle ([None] for a
    freshly {!create}d base). *)

val verified : report -> bool
(** All {!report.asr_checks} passed. *)

val store : t -> Gom.Store.t
val env : t -> Core.Exec.env
(** The handle's one execution environment — the one its maintenance
    manager charges, so its stats sheaf sees maintenance page traffic
    as well as the caller's queries. *)

val generation : t -> int
val dir : t -> string

val asrs : t -> Core.Asr.t list
(** The registered, maintained access support relations. *)

val asr_specs : t -> spec list
(** Their persisted registrations, in registration order (parallel to
    {!asrs}). *)

val maintenance : t -> Core.Maintenance.t
(** The handle's maintenance manager: its {!Core.Maintenance.stats}
    accumulates page traffic and the scrub/fallback/retry counters. *)

val register_asr :
  t ->
  path:string ->
  kind:Core.Extension.kind ->
  ?dec:string ->
  unit ->
  Core.Asr.t
(** Materialise an ASR over a path expression (parsed against the
    store's schema), register it for incremental maintenance, and
    persist the registration in the manifest so recovery rebuilds it.
    [?dec] is a decomposition boundary list à la
    {!Core.Decomposition.of_string} (default: binary).
    @raise Db_error on a malformed path/decomposition or duplicate
    registration. *)

val bind_name : t -> string -> Gom.Oid.t -> unit
(** {!Gom.Store.bind_name}, write-ahead logged (name binding is not a
    store event, so going through the store directly would not
    survive recovery). *)

val flush : t -> unit
(** Explicit log barrier. *)

val flush_policy : t -> Core.Maintenance.flush_policy

val set_flush_policy : t -> Core.Maintenance.flush_policy -> unit
(** Switch the maintenance manager's flush policy
    ({!Core.Maintenance.set_policy}).  Switching to [Immediate] drains
    every pending delta first; that drain is framed in the log as one
    flush group, like {!flush_maintenance}. *)

val flush_maintenance : t -> int
(** Drain every registered ASR's deferred-maintenance buffers into
    their partition trees, framed in the write-ahead log as one
    [begin] / [flush n] / [commit] group so crash recovery replays or
    drops the flush atomically (replay is a store-level no-op — the
    trees are rebuilt from the manifest).  Returns the number of net
    deltas applied; 0 pending appends nothing.  Must not be called
    inside an open store transaction (the group framing would nest). *)

val checkpoint : t -> unit
(** Write a new atomic snapshot as generation [g+1], rotate to a fresh
    log, switch the manifest, and delete the old generation's files.
    Bounds recovery time by the work since the last checkpoint. *)

val wal_appended : t -> int
(** Records appended through this handle (for status display). *)

val close : t -> unit
(** Flush, close the log, detach listeners and hooks (the log's, the
    maintenance manager's and the heap's).  Idempotent. *)
