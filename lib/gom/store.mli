(** The object base: a strongly typed, mutable store of GOM instances.

    The store owns object creation (fresh identifiers), attribute
    mutation and collection mutation, and enforces GOM's typing rules
    (paper, section 2): an attribute constrained to type [t] may hold
    [Null] or a value conforming to [t], where conformance of an object
    reference means the referenced instance's type is a subtype of [t].

    Every successful mutation is broadcast to subscribed listeners;
    access support relation maintenance (module [Asr.Maintenance]) is
    driven by these events. *)

type t

type event =
  | Created of Oid.t
  | Attr_set of {
      obj : Oid.t;
      attr : Schema.attr_name;
      old_value : Value.t;
      new_value : Value.t;
    }
  | Set_inserted of { set : Oid.t; elem : Value.t }
  | Set_removed of { set : Oid.t; elem : Value.t }
  | Deleted of { obj : Oid.t; ty : Schema.type_name }
      (** Emitted after all inbound references were nullified (each
          nullification having produced its own event); carries the
          late object's type so listeners (e.g. transaction undo logs)
          can act on it. *)

exception Type_error of string
(** Raised on any violation of strong typing or on operations against
    unknown objects/attributes. *)

val create : Schema.t -> t
(** @raise Type_error if the schema is not {!Schema.well_formed}. *)

val schema : t -> Schema.t

val epoch : t -> int
(** Mutation counter: bumped once per emitted event, starting at 0 for
    a fresh store.  A {!copy} carries its source's epoch, so snapshot
    publication can label frozen copies with the store state they
    reflect. *)

val copy : t -> t
  [@@alert
    legacy
      "Store.copy deep-clones the whole base; read paths should consume \
       Store_view (Frozen snapshots share untouched objects across epochs). \
       Kept for writer-side cloning (tests, tools)."]
(** Deep structural clone sharing the (immutable) schema: objects keep
    their identifiers, extents, persistent names and the {!epoch} are
    preserved, and no listeners are carried over.  The clone is an
    independent store — mutating either side never affects the other.

    Deprecated as a snapshot mechanism: the parallel serving layer now
    publishes {!Frozen} copy-on-write snapshots behind {!Store_view}
    instead of deep copies.  [copy] remains for whole-base duplication
    (durability snapshot writing, tests). *)

val new_object : t -> Schema.type_name -> Oid.t
(** Instantiate a type: tuple instances get all attributes set to
    [Null], set and list instances start empty (paper: "instantiation").
    @raise Type_error for atomic or unknown types. *)

val get : t -> Oid.t -> Instance.t option
val get_exn : t -> Oid.t -> Instance.t
val type_of : t -> Oid.t -> Schema.type_name
val mem : t -> Oid.t -> bool

val get_attr : t -> Oid.t -> Schema.attr_name -> Value.t
(** @raise Type_error if the object or attribute does not exist. *)

val set_attr : t -> Oid.t -> Schema.attr_name -> Value.t -> unit
(** Type-checked assignment; a no-op (no event) if the new value equals
    the old one. *)

val insert_elem : t -> Oid.t -> Value.t -> unit
(** Insert into a set instance ([insert o into s] in the paper's
    pseudo-SQL); a no-op if already present. *)

val remove_elem : t -> Oid.t -> Value.t -> unit
(** Remove from a set instance; a no-op if absent. *)

val elements : t -> Oid.t -> Value.t list
(** Elements of a set/list instance, deterministic order. *)

val delete : t -> Oid.t -> unit
(** Delete an object: all references to it anywhere in the base are
    first nullified/removed (emitting the corresponding events, holder
    by holder in descending identifier order), then the object's own
    attributes and elements are cleared, then it disappears and
    [Deleted] is emitted.  The inbound holders come from the reverse
    reference index (see {!referencers}). *)

val extent : ?deep:bool -> t -> Schema.type_name -> Oid.t list
(** Objects of exactly this type in creation order; with [~deep:true]
    (default [false]) instances of subtypes are included. *)

val count : ?deep:bool -> t -> Schema.type_name -> int

val extent_rev : t -> Schema.type_name -> Oid.t list
(** Raw extent in {e reverse} creation order, exactly as stored.  The
    returned list is immutable and structurally shared with the store's
    own extent (mutation replaces the spine rather than updating cells
    in place), so it stays a consistent point-in-time extent even as the
    store continues to mutate.  {!Frozen} snapshots capture extents this
    way. *)

val extent_types : t -> Schema.type_name list
(** Type names with a non-empty extent, sorted. *)

val fold_objects : t -> init:'a -> f:('a -> Instance.t -> 'a) -> 'a
(** Folds over every instance in the base in creation order. *)

val bind_name : t -> string -> Oid.t -> unit
(** Bind a persistent root name (the paper's [var OurRobots: ...]). *)

val find_name : t -> string -> Oid.t option

val names : t -> (string * Oid.t) list

type subscription
(** Handle on a registered listener, for {!unsubscribe}. *)

val subscribe : t -> (event -> unit) -> subscription
(** Register a mutation listener and return its handle.  Listeners run
    synchronously, after the store state has changed, in subscription
    order.  Callers that never detach discard the handle:
    [let (_ : subscription) = subscribe t f in ...]. *)

val unsubscribe : t -> subscription -> unit
(** Detach; idempotent. *)

val restore_object : t -> Oid.t -> Schema.type_name -> unit
(** Re-create a previously deleted object under its {e original}
    identifier, with all attributes NULL / collections empty (the
    inverse of the bare deletion step; transaction rollback restores
    attribute values through the regular mutators afterwards).  Emits
    [Created].
    @raise Type_error if the identifier is live or the type cannot be
    instantiated. *)

val referencers :
  t -> Schema.type_name -> Schema.attr_name -> Oid.t -> (Oid.t * Oid.t option) list
(** [referencers t ty attr target] finds the objects of type [ty] (deep
    extent) whose attribute [attr] leads to [target]: directly
    ([(o, None)]) for single-valued attributes, or through a set or
    list ([(o, Some coll)]) for collection-valued ones; sorted by
    holder.  References are uni-directional in GOM, so the paper prices
    this backward traversal as an extent scan (section 6.2), and callers
    that account pages still charge that scan.  The answer itself comes
    from a reverse reference index the store builds with one walk on
    the first inbound query ({!referencers}, {!holders} or {!delete})
    and keeps current on every mutation; a {!copy} starts without it. *)

val holders : t -> Schema.type_name -> Schema.attr_name -> Oid.t -> Oid.t list
(** [holders t ty attr target]: the objects of type [ty] (deep extent)
    whose attribute [attr] holds [Ref target] itself, in ascending
    identifier order — for a set-valued attribute, the owners of the
    set instance [target].  Answered from the same index as
    {!referencers}. *)
