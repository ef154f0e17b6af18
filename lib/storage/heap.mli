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
  ?config:Config.t -> size_of:(Gom.Schema.type_name -> int) -> Gom.Store.t -> t
(** [create ~size_of store] lays out all existing objects and subscribes
    to the store so future objects get pages too.  [size_of] gives the
    average object size per type (the paper's [size_i]); objects larger
    than a page span several consecutive pages.  The heap's pages come
    from its own {!Pager}, registered as ["heap"], so they are distinct
    from every tree page and from every other heap's pages. *)

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
(** Charge the page reads needed to fetch the object (all [span] pages)
    and inform the tracer if any.  Mutations charge no heap page: the
    ledger measures index maintenance, and the cost model prices the
    object write separately
    ([Costmodel.Update_cost.object_update_cost]). *)

val pages_of_type : ?deep:bool -> t -> Gom.Schema.type_name -> int
(** Number of distinct pages the extent occupies (the paper's [op_i]).
    With [~deep:true] the union over the subtype closure — distinct:
    a shared post-recluster page counts once.  At least 1 when asking
    about a defined type, mirroring ceil semantics. *)

val objects_per_page : t -> Gom.Schema.type_name -> int
(** The paper's [opp_i]. *)

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
    construction.  Multi-page (large) objects and objects no longer in
    the heap are never moved. *)

type recluster_outcome = {
  rc_considered : int;  (** objects named by the plan *)
  rc_moved : int;  (** placements actually rewritten *)
  rc_target_pages : int;  (** fresh pages the moved objects now share *)
}

val recluster : t -> plan:Gom.Oid.t list list -> recluster_outcome
(** Pack the plan's clusters onto fresh pages and move their objects
    there, in one pass. *)
