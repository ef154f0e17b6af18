(** GOM schemas: type definitions with subtyping.

    A schema maps type names to definitions.  Following the paper
    (section 2.1), a type is either one of the built-in elementary types,
    a tuple-structured type [\[a1:t1; ...; an:tn\]] possibly declared
    with supertypes, a set type [{s}], or a list type [<s>].

    Subtyping is based on inheritance: a tuple type inherits all
    attributes of all its supertypes (multiple inheritance).  Schemas are
    immutable; definition functions return extended schemas. *)

type type_name = string
type attr_name = string

type atomic = A_string | A_int | A_dec | A_bool | A_char

type definition =
  | Atomic of atomic
  | Tuple of {
      supertypes : type_name list;
      own_attrs : (attr_name * type_name) list;
          (** Attributes declared by this type, excluding inherited ones. *)
    }
  | Set of type_name  (** [Set s] is the type [{s}] of sets of [s]. *)
  | List of type_name  (** [List s] is the type [<s>] of lists of [s]. *)

exception Schema_error of string
(** Raised by definition functions on ill-formed declarations (unknown
    referenced type, duplicate attribute, non-tuple supertype, ...). *)

type t

val empty : t
(** A schema containing only the built-in elementary types [STRING],
    [INT], [DECIMAL], [BOOL] and [CHAR]. *)

val define_tuple :
  t -> type_name -> ?supertypes:type_name list -> (attr_name * type_name) list -> t
(** [define_tuple s name attrs] adds the tuple-structured type [name].
    Attribute range types may reference [name] itself or types defined
    later only if added through {!define_forward}; otherwise they must
    already exist.  @raise Schema_error on ill-formed definitions. *)

val define_set : t -> type_name -> type_name -> t
(** [define_set s name elem] adds [type name is {elem}]. *)

val define_list : t -> type_name -> type_name -> t

val define_forward : t -> type_name -> t
(** Declare that [name] will be defined; lets mutually recursive tuple
    types reference each other.  The schema is not {!well_formed} until
    the real definition arrives. *)

val find : t -> type_name -> definition option

val find_exn : t -> type_name -> definition
(** @raise Schema_error if the type is unknown or only forward-declared. *)

val mem : t -> type_name -> bool

val type_names : t -> type_name list
(** All fully defined type names, in definition order (built-ins first). *)

val is_atomic : t -> type_name -> bool

val atomic_of : t -> type_name -> atomic option

val is_tuple : t -> type_name -> bool

val is_set : t -> type_name -> bool

val element_type : t -> type_name -> type_name option
(** Element type of a set or list type. *)

val attrs : t -> type_name -> (attr_name * type_name) list
(** All attributes of a tuple type, inherited ones first (in supertype
    declaration order), then own attributes.  @raise Schema_error if the
    type is not tuple-structured or inheritance is ill-formed. *)

val attr_type : t -> type_name -> attr_name -> type_name option
(** Range type of an attribute, searching inherited attributes too:
    the type's own attributes, then its supertypes depth-first, without
    building {!attrs}.  On a well-formed schema the answer is
    [List.assoc_opt a (attrs s ty)]; [None] for a type that is not
    tuple-structured.  @raise Schema_error if the walk meets an
    inheritance cycle or a supertype that is unknown or not
    tuple-structured. *)

val is_subtype : t -> sub:type_name -> sup:type_name -> bool
(** Reflexive-transitive closure of the declared supertype relation.
    Elementary, set and list types are only subtypes of themselves. *)

val supertypes : t -> type_name -> type_name list
(** Direct supertypes of a tuple type (empty for other types). *)

val subtypes_closure : t -> type_name -> type_name list
(** [name] itself plus every type having [name] in its supertype
    closure; used to enumerate deep extents. *)

val well_formed : t -> (unit, string) result
(** Checks that no forward declarations remain unresolved, every
    referenced type exists, and the supertype graph is acyclic. *)

val pp : Format.formatter -> t -> unit
(** Prints the schema in the paper's [type t is ...] syntax. *)
