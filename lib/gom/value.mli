(** Values stored in object attributes and in access-support-relation
    tuples.

    A value is either [Null] (the undefined value every freshly
    instantiated attribute holds), an object reference, or an instance of
    one of GOM's built-in elementary types (paper, section 2: "values").
    Elementary values have no identity of their own: the value serves as
    the identity. *)

type t =
  | Null  (** The undefined value. *)
  | Ref of Oid.t  (** Reference to an object instance. *)
  | Int of int
  | Str of string
  | Dec of float  (** The paper's [DECIMAL]. *)
  | Bool of bool
  | Char of char

val null : t

val is_null : t -> bool

val compare : t -> t -> int
(** Total order used for B+ tree keys.  [Null] sorts first; values of
    different constructors are ordered by constructor. *)

val equal : t -> t -> bool

val hash : t -> int
(** Agrees with {!equal}.  Computed by constructor: a reference hashes
    to its object id. *)

val oid : t -> Oid.t option
(** [oid v] is [Some o] iff [v = Ref o]. *)

val oid_exn : t -> Oid.t
(** @raise Invalid_argument if the value is not a reference. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
