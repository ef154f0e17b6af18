(** Type-clustered object pages with traversal-aware reclustering.

    "We generally assume that objects are clustered dependent on their
    type" (paper, section 5.5): objects of type [ti] are packed
    [opp_i = PageSize / size_i] to a page.  This module assigns a page to
    every object of a {!Gom.Store.t} as it is created and charges page
    reads/writes to a {!Stats.t} when objects are accessed, giving the
    executable counterpart of the model's [op_i] and Yao-style scan
    costs.

    Creation-order type clustering is only the {e initial} layout: the
    heap can also carry an {!Affinity.t} tracer that mines executed
    traversals into a co-access graph, and {!recluster} repacks hot
    traversal neighbourhoods onto shared pages — after which a page may
    hold objects of several types.  Page occupancy (not the original
    bump-allocator areas) is therefore the ground truth for extent
    membership. *)

type t

type placement = { first : int; span : int; ty : Gom.Schema.type_name }
(** Where an object lives: pages [first .. first+span-1]. *)

val create :
  ?config:Config.t ->
  ?pager:Pager.t ->
  size_of:(Gom.Schema.type_name -> int) ->
  Gom.Store.t ->
  t
(** [create ~size_of store] lays out all existing objects and subscribes
    to the store so future objects get pages too.  [size_of] gives the
    average object size per type (the paper's [size_i]); objects larger
    than a page span several consecutive pages. *)

val close : t -> unit
(** Unsubscribe from the store: objects created later get no pages.
    Idempotent; a no-op on snapshots. *)

val snapshot : t -> t
(** O(1) frozen fork: shares the persistent placement/occupancy maps of
    the live heap at this instant and is not subscribed to any store, so
    later mutations of the live heap never reach it.  The fork never
    carries the affinity tracer — worker domains must not race on its
    tables.  Published epoch snapshots pair a {!Gom.Frozen} store image
    with a heap snapshot. *)

val config : t -> Config.t

val set_tracer : t -> Affinity.t option -> unit
(** Attach (or detach) an affinity tracer: while attached, every
    {!read_object} records the access so traversal neighbourhoods can be
    mined with {!Affinity.clusters}. *)

val tracer : t -> Affinity.t option

val placement : t -> Gom.Oid.t -> placement
(** @raise Not_found for unknown objects. *)

val page_of : t -> Gom.Oid.t -> int
(** First page of the object.  @raise Not_found for unknown objects. *)

val span_of : t -> Gom.Oid.t -> int
(** Consecutive pages the object occupies (1 unless larger than a
    page).  @raise Not_found for unknown objects. *)

val read_object : t -> Stats.t -> Gom.Oid.t -> unit
(** Charge the page reads needed to fetch the object (all [span] pages),
    tagged to the ["heap"] segment, and inform the tracer if any. *)

val write_object : t -> Stats.t -> Gom.Oid.t -> unit
(** Charge the page writes for storing the object back. *)

val pages_of_type : ?deep:bool -> t -> Gom.Schema.type_name -> int
(** Number of distinct pages the extent occupies (the paper's [op_i]).
    With [~deep:true] the union over the subtype closure — distinct:
    a shared post-recluster page counts once.  At least 1 when asking
    about a defined type, mirroring ceil semantics. *)

val objects_per_page : t -> Gom.Schema.type_name -> int
(** The paper's [opp_i]. *)

val type_pages : t -> Gom.Schema.type_name -> int list
(** The distinct pages currently holding live objects of exactly this
    type, ascending. *)

val scan_extent : ?deep:bool -> t -> Stats.t -> Gom.Schema.type_name -> unit
(** Charge reads for every page of the extent (exhaustive search).  The
    extent's pages are staged via {!Stats.prefetch} first, so with a
    buffer pool attached a scan both pays its own physical I/O exactly
    once and leaves the extent resident. *)

(** {1 Traversal-aware reclustering}

    [recluster] takes a plan — a list of object clusters, hottest first,
    as produced by {!Affinity.clusters} — and repacks each cluster onto
    freshly allocated pages (first-fit: consecutive clusters share a
    page when they fit).  Only placements move; object identity, values
    and ASRs are untouched, so every query answer is preserved by
    construction.  Multi-page (large) objects are never moved.

    The work can run in bounded slices from the background-maintenance
    loop: [recluster_start] precomputes the move list, and each
    [recluster_step] applies at most [slice] moves. *)

type recluster_outcome = {
  rc_considered : int;  (** objects named by the plan *)
  rc_moved : int;  (** placements actually rewritten *)
  rc_target_pages : int;  (** fresh pages the moved objects now share *)
}

type recluster_job

val recluster_start :
  ?slice:int -> t -> plan:Gom.Oid.t list list -> recluster_job
(** Plan the moves and mark the heap as reclustering.  [slice] (default
    64) is the per-step move budget.  @raise Invalid_argument if a job
    is already active on this heap. *)

val recluster_step : recluster_job -> [ `More | `Done of recluster_outcome ]
(** Apply one slice.  Objects deleted since planning are skipped. *)

val recluster_abort : recluster_job -> unit
(** Drop the remaining moves.  Already-applied moves stay (they are
    answer-preserving). *)

val recluster :
  ?slice:int -> t -> plan:Gom.Oid.t list list -> recluster_outcome
(** [recluster_start] driven to completion. *)

val recluster_progress : t -> (int * int) option
(** [Some (moved, planned)] once a recluster has started (running or
    finished); [None] if none ever ran. *)

val recluster_active : t -> bool
