(** Path expressions [t0.A1.....An] (paper, Definition 3.1).

    A path expression over a schema is a chain of attributes
    [A1 ... An] anchored at a type [t0]: each [Ai] is an attribute of
    [t(i-1)] whose range is either the next type [ti] directly
    (single-valued) or a set type [{ti}] (a {e set occurrence} at
    position [i]).  Paths through sets are what distinguishes access
    support relations from earlier OODB index proposals.

    The access support relation for a path of length [n] with [k] set
    occurrences has arity [m + 1] where [m = n + k] (Definition 3.2):
    each set occurrence contributes an extra column holding the OID of
    the set instance between the referencing object and the element. *)

type step = {
  attr : Schema.attr_name;  (** The attribute [Ai]. *)
  domain : Schema.type_name;  (** [t(i-1)], the domain type of [Ai]. *)
  range : Schema.type_name;  (** [ti], the range type of [Ai]. *)
  set_type : Schema.type_name option;
      (** [Some s] iff there is a collection occurrence at [Ai], where
          [s] is the intermediate set (or list — treated analogously,
          section 2.1) type [t'i] with [t'i = {ti}]. *)
  range_atomic : Schema.atomic option;
      (** [Some a] iff [ti] is the elementary type [a]; only possible at
          the last step. *)
}

type t = private {
  t0 : Schema.type_name;
  steps : step list;  (** [A1; ...; An] in order. *)
}

(** Kind of a column of the access support relation. *)
type column =
  | Obj of Schema.type_name  (** OIDs of objects of this type. *)
  | Set_of of Schema.type_name  (** OIDs of set instances of this set type. *)
  | Atom of Schema.atomic  (** Elementary values (only possible last). *)

exception Path_error of string

val make : Schema.t -> Schema.type_name -> Schema.attr_name list -> t
(** [make schema t0 [A1; ...; An]] validates the chain against the
    schema per Definition 3.1.  @raise Path_error if any step is not an
    attribute of the current type, if an attribute other than the last
    has an elementary range, or if [n = 0]. *)

val parse : Schema.t -> string -> t
(** [parse schema "t0.A1.A2"] — convenience around {!make}. *)

val length : t -> int
(** [n], the number of attributes. *)

val set_occurrences : t -> int
(** [k], the number of set occurrences. *)

val arity : t -> int
(** [m + 1 = n + k + 1], the number of columns of the access support
    relation (Definition 3.2). *)

val columns : t -> column list
(** The [arity] column descriptors [S0 ... Sm]. *)

val column_of_object_position : t -> int -> int
(** [column_of_object_position p i] is the index of the column holding
    OIDs of [ti] objects (for [i = n] possibly atomic values), i.e. the
    paper's [i + k(i)] where [k(i)] counts set occurrences before [Ai]. *)

val object_position_of_column : t -> int -> int option
(** Inverse of {!column_of_object_position}: [Some i] if the column
    holds [ti] objects/values, [None] for set-OID columns. *)

val step : t -> int -> step
(** [step p i] is [Ai] for [1 <= i <= n]. *)

val type_at : t -> int -> Schema.type_name
(** [type_at p i] is [ti] for [0 <= i <= n]. *)

val positions_matching :
  Schema.t -> t -> ty:Schema.type_name -> attr:Schema.attr_name -> int list
(** The 0-based positions [i] whose attribute [A(i+1)] is mutated by a
    write of [attr] on an object of type [ty] — the step's domain or a
    subtype of it — in path order. *)

val set_positions_matching : Schema.t -> t -> set_ty:Schema.type_name -> int list
(** The positions [i] at which an instance of [set_ty] can be the
    intermediate set [t'(i+1)], in path order. *)

val linear : t -> bool
(** True iff the path contains no set occurrence. *)

val is_prefix : affix:t -> t -> bool
(** [is_prefix ~affix p] — [affix] is a prefix chain of [p] (same
    anchor, same leading steps). *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Prints as [t0.A1.....An]. *)

val to_string : t -> string
