(** The write-ahead log: every {!Gom.Store.event} of a durable object
    base is serialised as one CRC-framed record, appended through the
    fault-injectable file layer ({!Fault}).

    {2 Format}

    One record per line:
    {v <crc32-hex> <payload-length> <payload>\n v}

    where the CRC covers the payload.  Payloads reuse {!Gom.Serial}'s
    value syntax and are newline-free:
    {v
    begin                      transaction started
    commit                     transaction committed (flush barrier)
    abort                      transaction rolled back (after its
                               compensation records)
    new 7 ROBOT                object i7 of type ROBOT created
    set 7 Name str:"Z3"        attribute assigned
    ins 5 ref:3                element inserted into set/list i5
    rem 5 ref:3                element removed
    del 7 ROBOT                object deleted (its reference
                               nullifications precede it as [set]/[rem]
                               records)
    name "OurRobots" 5         persistent root bound
    flush 12                   deferred-maintenance flush barrier
                               (12 net deltas applied)
    v}

    A record is {e committed} when it lies outside any
    [begin]..[commit]/[abort] span, or inside a closed one.  Recovery
    replays exactly the committed prefix: a transaction whose [commit]
    never reached the disk is dropped wholesale, and a rolled-back
    transaction nets out because its compensation records and [abort]
    marker replay too. *)

type sync_policy =
  | Sync_always  (** fsync after every record — maximum durability *)
  | Sync_on_commit
      (** fsync at [commit]/[abort] markers and explicit barriers; an
          autocommit mutation outside any transaction may be lost in a
          crash, but never partially applied *)
  | Sync_never  (** leave it to the OS (checkpoints still sync) *)

type record =
  | Begin
  | Commit
  | Abort
  | Create of Gom.Oid.t * Gom.Schema.type_name
  | Set of Gom.Oid.t * Gom.Schema.attr_name * Gom.Value.t
  | Insert of Gom.Oid.t * Gom.Value.t
  | Remove of Gom.Oid.t * Gom.Value.t
  | Delete of Gom.Oid.t * Gom.Schema.type_name
  | Bind of string * Gom.Oid.t
  | Flush of int
      (** Deferred-maintenance flush barrier carrying the number of net
          deltas applied; written inside its own [begin]..[commit] group
          ({v flush <n> v}) so crash recovery replays or drops the whole
          flush atomically.  Replay is a store-level no-op: access
          support relations are rebuilt from the manifest on open, so
          the barrier only marks (and counts) where batched tree catch-up
          happened in the event stream. *)

val record_of_event : Gom.Store.t -> Gom.Store.event -> record
(** The loggable image of a store event ([Created] looks the object's
    type up, so it must run while the object is live — i.e. from a
    subscribed listener). *)

type t

val open_append : ?fault:Fault.t -> policy:sync_policy -> string -> t
(** Open (creating if missing) for appending. *)

val frame : record -> string
(** The bytes {!append} writes for one record: the whole
    [<crc32-hex> <payload-length> <payload>\n] line. *)

val append : t -> record -> unit
(** Frame and append one record, honouring the sync policy.  The bytes
    are handed to the OS ({!Fault.flush}) where {!scan} closes a commit
    group: after a [commit]/[abort] marker, or after a record outside
    any open [begin] span.  The records of an open transaction stay in
    the process until its closing marker, so one transaction reaches
    the OS in one write.  [Sync_always] syncs every record and
    [Sync_on_commit] every closing marker, as before.
    @raise Fault.Crash under an armed fault plan. *)

val sync : t -> unit
(** Explicit flush barrier. *)

val close : t -> unit
val appended : t -> int

(** {2 Recovery-side reading} *)

type scanned = {
  records : record list;  (** every intact record, in order *)
  committed : int;  (** length (in records) of the committed prefix *)
  committed_bytes : int;  (** file offset just past that prefix *)
  valid_bytes : int;  (** offset past the last intact record *)
  total_bytes : int;  (** physical size, [> valid_bytes] iff torn *)
}

val scan : string -> scanned
(** Read and validate a log: {!Scanner.of_log} over the whole file.
    Scanning stops at the first torn or corrupt record — everything
    after it is untrusted tail.  A missing file reads as empty. *)

(** {2 Incremental scanning}

    [scan] wants the whole file; a replica tailing a shipped log gets
    bytes piecemeal and must not re-read history on every frame.  A
    {!Scanner.t} is the streaming form of the same committed-prefix
    rule: feed it arbitrary byte slices in order and it emits whole
    committed groups — each an autocommitted record or a closed
    [begin]..[commit]/[abort] span — tagged with the absolute file
    offset just past the group, so apply progress is expressible in
    the primary's own byte coordinates. *)
module Scanner : sig
  exception Bad_record of { recno : int; off : int }
  (** An intact-looking line failed its frame check.  Unlike [scan],
      which tolerantly truncates (a torn {e tail} is expected after a
      crash), a scanner consumes verified frames from a transport: mid
      -stream damage means the feed itself is corrupt, and [off] — the
      absolute offset of the bad line — locates it for the error
      message.  Bytes after the last newline are simply buffered until
      the rest arrives, so a partial final record never raises. *)

  type group = {
    g_records : record list;  (** the group, markers included *)
    g_end : int;  (** absolute offset just past the group *)
  }

  type t

  val create : unit -> t

  val feed : t -> string -> unit
  (** Append the next byte slice and parse as far as possible.
      @raise Bad_record on mid-stream frame damage. *)

  val take_groups : t -> group list
  (** Committed groups completed since the last call, in log order. *)

  val committed_bytes : t -> int
  (** Absolute offset just past the last committed group. *)

  val committed_records : t -> int
  (** Records (markers included) in the committed prefix. *)

  val valid_bytes : t -> int
  (** Absolute offset just past the last intact record. *)

  val fed_bytes : t -> int
  (** Total bytes fed so far. *)

  val pending_records : t -> int
  (** Intact records past the committed point (an open span). *)

  val of_log : string -> t
  (** A scanner fed a whole log and stopped, like {!scan}, by its first
      torn or corrupt record, which it drops with every byte after it:
      [fed_bytes] is [valid_bytes], so the next {!feed} continues at
      that offset.  The intact records of a trailing open span stay
      pending, for a later feed to complete. *)
end

exception Replay_error of string

val replay : Gom.Store.t -> record list -> int
(** Apply records (markers are no-ops) to a store with {e no listeners
    attached}; returns the number of mutations applied.  The caller
    passes the committed prefix, i.e.
    [List.filteri (fun i _ -> i < s.committed) s.records].
    @raise Replay_error if a record does not apply (log/snapshot
    mismatch). *)
