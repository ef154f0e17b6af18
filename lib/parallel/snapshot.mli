(** Copy-on-write epoch snapshots of an object base, ready to serve
    queries from many domains at once.

    A {!t} is a frozen {!Gom.Store_view.t} — a persistent image built on
    immutable maps with structural sharing ({!Gom.Frozen}) — plus a
    frozen heap layout and the {e shared} engine and access support
    relations of its {!source}.  Publishing an epoch costs
    O(events since the previous epoch): only instances the writer
    touched are cloned, everything else is carried over by reference,
    and no ASR is ever rebuilt — the snapshot pins each ASR's tree
    version instead, and the engine refuses trees whose version has
    moved past the pin (degrading that probe to navigation over the
    frozen view, which answers identically).

    Nothing ever mutates a published snapshot, which is the entire
    concurrency argument.  The one per-domain ingredient is the
    accounting environment — call {!env} once per domain (or per task)
    and merge the {!Storage.Stats} sheaves afterwards. *)

type spec = {
  sp_path : Gom.Path.t;
  sp_kind : Core.Extension.kind;
  sp_decomposition : Core.Decomposition.t;
}
(** What it takes to materialise one access support relation over the
    live base: the path expression, the extension and the decomposition
    (paper, sections 3-4). *)

type t

type source
(** The publication side of one live base: the shared engine, the
    spec-built ASRs (registered for maintenance), the event tap, and the
    previous epoch's frozen image that the next {!advance} extends. *)

val source :
  ?sizes:(Gom.Schema.type_name -> int) ->
  ?maintenance:Core.Maintenance.t ->
  specs:spec list ->
  Gom.Store.t ->
  source
(** Open a snapshot source over the base: lay out a heap ([sizes]
    defaulting to 100 bytes per object, matching {!Engine.create}),
    materialise every spec'd index once, register it with a fresh shared
    engine and with the maintenance manager ([?maintenance], or a
    private [Immediate]-policy one), take the initial O(n) image, and
    start buffering store events.  All later writes to the base must be
    serialised against {!advance} by the caller (the server's writer
    mutex). *)

val advance : source -> t
(** Publish the base as it stands: drain the ASRs' deferred buffers so
    the shared trees reflect exactly this epoch, apply the buffered
    event suffix to the previous frozen image (cloning only touched
    instances), freeze the heap layout, and pin each ASR's tree version.
    O(events since the previous publication).
    @raise Invalid_argument once the source is closed. *)

val close_source : source -> unit
(** Detach the source from the base: its event tap, engine, heap and
    the maintenance manager it created (not one passed in) stop
    listening, and buffered events are dropped.  Snapshots already
    published stay readable; {!advance} raises from then on.
    Idempotent. *)

val source_closed : source -> bool

val source_engine : source -> Engine.t
val source_indexes : source -> Core.Asr.t list
val source_maintenance : source -> Core.Maintenance.t

val epoch : t -> int
(** The base's {!Gom.Store.epoch} at publication time. *)

val store : t -> Gom.Store_view.t
(** The frozen read-only view of the epoch. *)

val engine : t -> Engine.t
(** The shared, lock-guarded engine (one per {!source}, not per
    epoch — plans are cached across the whole lineage). *)

val indexes : t -> Core.Asr.t list
(** The shared access support relations (by reference — never copies). *)

val copied : t -> int
(** Instances deep-copied to publish this epoch (the dirty set). *)

val shared : t -> int
(** Instances carried over from the previous epoch by reference. *)

val env : ?buffer_pages:int -> ?deadline:Core.Deadline.t -> t -> Core.Exec.env
(** A fresh accounting environment over the snapshot (frozen view and
    heap, pinned index marks, private cold {!Storage.Stats.t}) — one per
    domain, so page counting never races.  [?buffer_pages:n] attaches a
    private [n]-page buffer pool to the environment's stats (each domain
    warms its own pool — pools are not shared across domains).
    [?deadline] arms the environment's cooperative cancellation budget
    (defaults to none). *)
