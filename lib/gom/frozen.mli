(** Persistent (immutable) epoch snapshots of a {!Store}.

    A frozen snapshot is a point-in-time image of an object base built
    on balanced immutable maps with structural sharing: publishing a new
    epoch from the previous one costs O(dirty set), not O(store).  The
    instances the epoch did not touch are {e physically} the same OCaml
    values as in the previous epoch (shared by reference); only objects
    named by the event suffix get their mutable bodies cloned.  Extents
    are captured as immutable lists that share their spine with the live
    store, and name bindings are rebuilt (they are few).

    Snapshots are immutable after construction: many domains may read
    one concurrently with no synchronisation, which is what the parallel
    serving layer relies on.  Readers normally consume snapshots through
    {!Store_view} rather than this module directly. *)

type t

val of_store : Store.t -> t
(** Initial capture: O(n) — clones every instance body once.  Later
    epochs of the same lineage should be built with {!advance}. *)

val advance : t -> Store.event list -> t
(** [advance prev events] is the snapshot of [prev]'s base store {e as
    it stands now}, given that [events] is exactly the suffix of events
    the base emitted since [prev] was built.  The caller must exclude
    concurrent writers for the duration of the call (the parallel
    server's writer mutex does).  Cost: O(|events| log n).

    @raise Store.Type_error if [prev] does not descend from the base. *)

val schema : t -> Schema.t

val epoch : t -> int
(** The base store's {!Store.epoch} at capture time. *)

val base : t -> Store.t
(** The live store this snapshot descends from.  A lineage witness for
    identity checks — reading it would defeat isolation. *)

val copied : t -> int
(** Instances deep-copied when this epoch was built (the dirty set). *)

val shared : t -> int
(** Instances carried over from the previous epoch by reference. *)

(** {1 Read surface}

    Same contracts as the like-named {!Store} operations, including
    raising {!Store.Type_error} on unknown objects/attributes. *)

val get : t -> Oid.t -> Instance.t option
val get_exn : t -> Oid.t -> Instance.t
val mem : t -> Oid.t -> bool
val type_of : t -> Oid.t -> Schema.type_name
val get_attr : t -> Oid.t -> Schema.attr_name -> Value.t
val elements : t -> Oid.t -> Value.t list
val extent : ?deep:bool -> t -> Schema.type_name -> Oid.t list
val count : ?deep:bool -> t -> Schema.type_name -> int
val fold_objects : t -> init:'a -> f:('a -> Instance.t -> 'a) -> 'a
val find_name : t -> string -> Oid.t option
val names : t -> (string * Oid.t) list
