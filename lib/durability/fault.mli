(** Deterministic fault injection for the durability layer.

    All write-ahead-log file traffic goes through an injectable
    file-operations environment.  The {!real} environment performs
    ordinary buffered writes ([sync] = fsync).  A {!faulty} environment
    simulates a kill-at-a-chosen-instant instead: it tracks which bytes
    an fsynced disk would hold ({e durable}) separately from bytes
    merely handed to the OS ({e pending}), and on the [crash_at_write]'th
    append it materialises a post-crash file image — the durable prefix
    plus a configurable amount of the pending tail, optionally with
    trailing bytes corrupted — and raises {!Crash}.

    Because the crash point is a deterministic function of the plan,
    tests can prove a property {e at every crash point} by sweeping
    [crash_at_write] over the whole workload. *)

exception Crash
(** The simulated power failure.  After it is raised the in-memory
    store must be considered gone; recovery starts from the files. *)

exception Retryable of string
(** A transient read failure (the storage analogue of a checksum
    mismatch that succeeds on re-read).  Raised by the read path when a
    {!read_fault.Transient} plan fires; {!with_retry} absorbs it with
    bounded retries and deterministic backoff. *)

type plan = {
  crash_at_write : int;
      (** 1-based index of the append (counted across the environment's
          whole lifetime, spanning log rotations) that never returns. *)
  survive_bytes : int;
      (** How many bytes of the unsynced tail — everything appended
          since the last [sync], including the fatal append itself —
          still reach the disk.  [0] models a strict write-back cache;
          [max_int] models a crash just after the write completed. *)
  corrupt_bytes : int;
      (** Flip (bitwise-not) this many trailing bytes of the surviving
          data, modelling a torn sector. *)
}

type read_fault =
  | Flip_tail of int
      (** Bitwise-not the last [k] bytes of the data returned by the
          fault-point read — a torn or bit-rotted sector. *)
  | Drop_tail of int
      (** Truncate the last [k] bytes — a short read / truncated file. *)
  | Transient of int
      (** Fail this read and the next [k - 1] with {!Retryable}; a
          bounded-retry loop of at least [k + 1] attempts succeeds. *)
  | Crash_read
      (** Raise {!Crash} at the fault point, for sweeping crash points
          across read-heavy cycles (scrub, repair verification). *)

type read_plan = {
  fail_at_read : int;
      (** 1-based index of the read (counted across the environment's
          whole lifetime) at which the fault fires. *)
  fault : read_fault;
}

(** Frame-level faults for a replication channel.  A channel is a third
    traffic class next to writes and reads: each send of an encoded
    frame counts one unit against [channel_plans], and the transport
    acts on the returned {!channel_action}. *)
type channel_fault =
  | Drop_frame  (** The frame vanishes in flight; the sender must resend. *)
  | Dup_frame  (** The frame is delivered twice; the receiver must dedup. *)
  | Reorder_frames
      (** The frame is held back and delivered after its successor. *)
  | Corrupt_frame of int
      (** Bitwise-not the last [k] bytes of the encoded frame; the
          receiver's CRC check must reject it. *)
  | Partition of int
      (** Fail this send and the next [k - 1] with {!Retryable} — the
          same class {!with_retry} and [Resilience.Breaker] absorb —
          then the link heals. *)

type channel_plan = {
  fail_at_frame : int;
      (** 1-based index of the frame send (counted across the
          environment's whole lifetime) at which the fault fires. *)
  channel_fault : channel_fault;
}

type t
(** A file-operations environment. *)

val real : unit -> t
(** Passthrough: ordinary file I/O, no faults. *)

val faulty : plan -> t

val faulty_reads : ?writes:plan -> read_plan -> t
(** An environment injecting the given read-side fault, optionally with
    a write-side crash plan as well. *)

val faulty_channel : ?writes:plan -> channel_plan list -> t
(** An environment injecting the given frame-level channel faults,
    optionally with a write-side crash plan as well (for killing a
    replica mid-apply while its feed is also misbehaving). *)

val writes : t -> int
(** Appends performed through this environment so far (both modes);
    used to size crash-point sweeps. *)

val reads : t -> int
(** Logical reads observed through this environment so far; used to
    size read-side fault sweeps (count a crash-free reference run,
    then sweep [fail_at_read] over [1 .. reads]). *)

val retries : t -> int
(** Retries absorbed by {!with_retry} so far. *)

val backoff_ticks : t -> int
(** Total deterministic backoff accumulated by {!with_retry}: the
    [k]'th retry adds [2^(k-1)] ticks.  Recorded, never slept, so
    sweeps stay instant and reproducible. *)

val frames : t -> int
(** Frame sends observed through this environment so far; used to size
    channel fault sweeps the same way {!writes} sizes crash sweeps. *)

(** {2 Channel injection} *)

(** What the transport should do with one sent frame. *)
type channel_action =
  | Deliver
  | Drop
  | Duplicate
  | Reorder
  | Corrupt of int

val channel_action : t -> channel_action
(** Count one frame send against the environment's channel plans.
    @raise Retryable while a {!channel_fault.Partition} budget is
    unspent, so bounded-retry loops and circuit breakers classify link
    outages exactly like transient storage faults. *)

val corrupt_tail : string -> int -> string
(** Bitwise-not the last [k] bytes — the torn-sector transformation all
    the corruption faults apply, exposed for transports that damage
    in-flight bytes the same way. *)

type file

val open_append : t -> string -> file
(** Open for appending, creating the file if missing.  Existing
    contents count as durable. *)

val write : file -> string -> unit
(** Append bytes to the file's buffer; they reach the OS at the next
    {!flush}, {!sync} or {!close}.  Each call counts as one write in
    {!writes}.  The simulated file of a {!faulty} environment treats
    every write as already handed to the OS, so a crash can keep any
    prefix of the unsynced tail, a superset of the outcomes a real
    buffered file has.
    @raise Crash at the planned instant. *)

val flush : file -> unit
(** Hand every buffered byte to the OS (one [write(2)] on a real file),
    without waiting for the disk.  A no-op on the simulated file. *)

val sync : file -> unit
(** Barrier: {!flush}, then everything written so far is durable. *)

val close : file -> unit
(** Flush and close (an orderly shutdown, not a crash). *)

(** {2 Read-side injection}

    Snapshot loads and integrity-scrub passes are read paths: the
    hazards are corrupted or truncated data coming {e back}, and
    transient failures that succeed on retry.  Each call below counts
    one logical read against the environment's [read_plan]. *)

val observe_read : t -> unit
(** Count one logical read that does not materialise bytes through this
    module (e.g. a scrub batch served from the page layer).  Raises
    {!Retryable} or {!Crash} when the plan says so; [Flip_tail] /
    [Drop_tail] plans are inert here (there is no data to damage). *)

val read_all : string -> string
(** A whole file, read directly (no fault plan); a missing file reads
    as [""].  The one whole-file reader of logs and snapshots that
    recovery, replication and failover share. *)

val read_through : t -> string -> string
(** Read a whole file, damaged per the plan: the fault-point read
    returns flipped or truncated bytes, raises {!Retryable}, or raises
    {!Crash}.  A missing file reads as [""], as with recovery's own
    reader. *)

val with_retry :
  ?attempts:int -> ?stats:Storage.Stats.t -> t -> (unit -> 'a) -> 'a
(** [with_retry t f] runs [f], absorbing up to [attempts - 1]
    {!Retryable} failures (default 3 attempts total).  Each retry is
    counted on [t] (and on [stats] when given) and adds exponential
    deterministic backoff to {!backoff_ticks}.  The final attempt's
    {!Retryable} propagates. *)
