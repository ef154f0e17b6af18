(** The unified read-only view of an object base.

    Everything that {e reads} the base — executor environments, engine
    planning and execution, the query language evaluator, the scrubber —
    programs against this interface, so the same code serves both the
    live mutable {!Store} and immutable {!Frozen} epoch snapshots.
    Separating the logical access surface from the physical
    representation is what lets snapshot publication be O(dirty set)
    structural sharing instead of a deep copy.

    A view never exposes mutation: holders of a [Store_view.t] cannot
    change the base through it. *)

type t =
  | Live of Store.t  (** reads see the base as it mutates *)
  | Frozen of Frozen.t  (** immutable epoch snapshot; domain-safe *)

val live : Store.t -> t
val frozen : Frozen.t -> t
val is_frozen : t -> bool

val live_store : t -> Store.t option
(** The underlying mutable store, only for [Live] views.  Write paths
    (maintenance, transactions) use this to recover mutation rights;
    frozen views deliberately return [None]. *)

val base : t -> Store.t
(** The live store this view descends from: the store itself for [Live],
    {!Frozen.base} for snapshots.  Identity on [base] defines lineage —
    a snapshot and its source compare equal. *)

val same_base : t -> t -> bool
(** Physical equality of {!base}: both views belong to one lineage. *)

(** {1 Read surface}

    Same contracts as the like-named {!Store} operations, including
    raising {!Store.Type_error} on unknown objects/attributes. *)

val schema : t -> Schema.t
val epoch : t -> int
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
