(** Pinned-page buffer pool.

    A bounded cache of page frames sitting between the access layers
    ({!Heap}, {!Bptree}) and the simulated pager, giving the accounting
    in {!Stats} a logical/physical split: every page request is a
    logical access, but only the ones the pool cannot serve become
    physical accesses.  Pages carry no bytes in this simulator, so a
    frame is pure bookkeeping — identity, recency and pin state are all
    the cost model needs.

    Frames are keyed by page identifier alone: a {!Pager} puts its
    segment number in every identifier it allocates, so a heap page and
    a tree page never share a frame, and every relation reading one
    shared pool page finds the one frame that holds it.

    The pool is a mechanism only — it keeps no hit/miss counters.
    {!Stats} owns the accounting and interprets the outcomes. *)

type key = int
(** A page identifier (see {!Pager.alloc}). *)

type t

val create : capacity:int -> t
(** A pool of at most [capacity] frames (plus transient overflow when
    every frame is pinned), evicting the least recently used unpinned
    frame (a scan for the minimum stamp; capacities are small).
    @raise Invalid_argument when [capacity <= 0]. *)

val capacity : t -> int

val resident : t -> int
(** Number of frames currently cached. *)

val pinned : t -> int
(** Number of frames holding at least one pin. *)

val mem : t -> key -> bool

type outcome =
  | Hit  (** Resident and previously referenced: no I/O. *)
  | Prefetch_hit
      (** Resident, but only because a prefetch staged it and no demand
          reference has touched it yet: the I/O was paid by the
          prefetch.  Subsequent references are plain [Hit]s. *)
  | Miss of { evicted : bool }
      (** Not resident: the page is fetched (one physical access) and
          admitted, evicting a victim frame when the pool was full. *)

val reference : t -> key -> outcome
(** A demand reference (read or write-through): classifies the access,
    refreshes recency, admits on miss. *)

val prefetch : t -> key -> [ `Resident | `Admitted of bool ]
(** Stage a page without a demand reference: [`Resident] when already
    cached (no-op), [`Admitted evicted] when fetched speculatively —
    one physical access now, so the next demand reference is a
    {!Prefetch_hit}. *)

val pin : t -> key -> unit
(** Pin the frame (admitting it first if absent, without eviction
    accounting): pinned frames are never chosen as eviction victims.
    Pins nest; when every frame is pinned, admissions transiently
    overflow [capacity] rather than fail. *)

val unpin : t -> key -> unit
(** Drop one pin.  Unpinning a frame that is not resident or not pinned
    is a no-op. *)

val reset : t -> unit
(** Drop every frame and pin. *)
