(** Auxiliary relations [E_0 ... E_{n-1}] (paper, Definition 3.3).

    For each attribute [Aj] of a path expression the auxiliary relation
    [E_{j-1}] records the instantiated references: binary
    [(id(o_{j-1}), id(o_j))] tuples for single-valued attributes,
    ternary [(id(o_{j-1}), id(o'_j), id(o_j))] tuples for set-valued
    ones — one tuple per set element, or a single
    [(id(o_{j-1}), id(o'_j), NULL)] marker for an empty set.  Objects
    whose [Aj] is NULL contribute nothing. *)

val count : Gom.Path.t -> int
(** The number [n] of auxiliary relations. *)

val width : Gom.Path.t -> int -> int
(** [width p j] is 2 or 3 — the arity of [E_j] ([0 <= j < n]). *)

val column_span : Gom.Path.t -> int -> int * int
(** [column_span p j] are the first and last column indices of [E_j]
    inside the access support relation [E] (consecutive auxiliary
    relations share one column). *)

val build_one : Gom.Store.t -> Gom.Path.t -> int -> Relation.t
(** [build_one store p j] materialises [E_j] from the object base (deep
    extents: subtype instances participate). *)

val build : Gom.Store.t -> Gom.Path.t -> Relation.t list
(** All of [E_0; ...; E_{n-1}]. *)
