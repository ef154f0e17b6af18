(** The hot standby: tails shipped WAL slices into its own on-disk copy
    of the primary's layout, replays committed groups into a live
    store, maintains the registered ASRs through the deferred-delta
    machinery, and publishes copy-on-write epochs for snapshot-isolated
    reads — all while staying promotable at any byte.

    {2 Apply invariant}

    A slice's bytes are (1) CRC-verified at the frame level, (2)
    appended and synced to the replica's own [wal-<gen>.log] — so a
    replica killed mid-apply recovers from its files exactly like a
    crashed durable base — and only then (3) fed to an incremental
    {!Durability.Wal.Scanner} whose {e committed groups} replay into
    the store.  The store therefore always equals the replay of a
    committed prefix of the primary's history: the same invariant
    crash recovery guarantees, maintained continuously.

    The replica's directory is the durable base layout plus a [REPLICA]
    marker file; promotion (see {!Failover}) removes the marker, after
    which the directory is an ordinary primary. *)

exception Replica_error of string
(** Misuse or unrecoverable local damage (distinct from a {!reject},
    which the protocol reports to the primary and survives). *)

type t

val marker_file : string -> string
(** [marker_file dir] — the [REPLICA] file whose presence tags [dir]
    as a replica; promotion removes it. *)

val create :
  ?fault:Durability.Fault.t ->
  ?stats:Storage.Stats.t ->
  ?policy:Core.Maintenance.flush_policy ->
  ?publish_every:int ->
  dir:string ->
  unit ->
  t
(** Open (or resume) a replica rooted at [dir].  A fresh directory
    waits for a [Reset] frame; a directory holding a manifest and the
    [REPLICA] marker resumes: torn log tail chopped to the last intact
    record, committed prefix replayed, ASRs rebuilt from the manifest.
    [?policy] is the maintenance flush policy (default
    [Every_k_events 32]); [?publish_every] (default 1) is the epoch
    publication cadence in applied frames; [?fault] injects faults
    into the replica's own log writes (crash sweeps); [?stats]
    receives [frames_applied]/[frames_retried].
    @raise Replica_error if [dir] holds a durable base that is not a
    replica, or resume finds unrecoverable damage. *)

(** Why a frame was refused.  Every constructor is byte- or
    sequence-located; {!reject_to_string} renders the message the CLI
    prints. *)
type reject =
  | Bad_frame of { at : int; reason : string }
      (** frame decode/CRC failure (transport damage) *)
  | Stale of { expected : int; got : int }
      (** duplicate of an already-applied frame *)
  | Gap of { expected : int; got : int }
      (** a frame went missing; primary must rewind to [expected] *)
  | Wrong_gen of { expected : int; got : int }
      (** slice for a generation we do not hold (missed checkpoint) *)
  | Misaligned of { expected : int; got : int }
      (** slice offset does not continue our log *)
  | Diverged of { off : int; what : string }
      (** digest mismatch or unreplayable committed group: the replica
          refuses all further frames until re-seeded *)

type outcome =
  | Applied of { groups : int; records : int }
      (** accepted; [groups] committed groups ([records] mutations)
          entered the store *)
  | Rejected of reject

val reject_to_string : reject -> string

val offer : t -> string -> outcome
(** Feed one encoded frame off the channel.  [Applied] advances the
    expected sequence; [Rejected] does not (counted [frames_retried]).
    @raise Durability.Fault.Crash per the replica-side fault plan
    (crash sweeps): the in-memory replica is then dead, and a new
    {!create} over the same directory resumes from its files. *)

val env :
  ?deadline:Core.Deadline.t ->
  ?max_lag_bytes:int ->
  t ->
  (Core.Exec.env, [ `Unseeded | `Lagging of int ]) result
(** A query environment over the latest published epoch — the
    bounded-staleness read path.  [Error (`Lagging n)] when the known
    replication lag exceeds [max_lag_bytes]; [?deadline] arms the
    environment's cooperative cancellation like any serving env. *)

val lag_bytes : t -> int
(** Primary committed bytes known of (high-water mark from digests and
    {!note_watermark}) minus bytes applied here. *)

val note_watermark : t -> int -> unit
(** Teach the replica the primary's committed size (the session relays
    it each round; digest frames carry it too). *)

val seeded : t -> bool
val dir : t -> string
val generation : t -> int
val expected_seq : t -> int

val expect : t -> seq:int -> unit
(** [expect t ~seq] adopts the primary's sequence counter (the session
    calls this once at attach): sequence numbers are per-connection,
    while byte offsets — which are durable — keep guarding slice
    placement. *)

val wal_bytes : t -> int
val applied_bytes : t -> int
val applied_records : t -> int

val epochs : t -> int
(** Copy-on-write epochs published so far. *)

val diverged : t -> string option
(** Set once a digest check or replay fails; sticky until re-seeded. *)

val store : t -> Gom.Store.t
(** The live replayed store (tests compare it to the primary's).
    @raise Replica_error before the first [Reset]. *)

val asrs : t -> Core.Asr.t list
(** The maintained ASRs, in manifest order ([[]] before seeding). *)

val snapshot : t -> Parallel.Snapshot.t option
(** The latest published epoch. *)

val flush_maintenance : t -> int
(** Drain the deferred-delta buffers now (tests; publication and
    mirrored primary flush barriers do it organically). *)

val close : t -> unit
(** Close the log file handle and detach the replica's maintenance,
    heap and snapshot source from its store (what it holds stays
    readable).  Idempotent. *)
