(** Tuples of access support relations: fixed-width arrays of values
    (OIDs, atomic values, or NULL). *)

type t = Gom.Value.t array

val compare : t -> t -> int
(** Lexicographic by {!Gom.Value.compare}; shorter tuples sort first
    among unequal widths. *)

val equal : t -> t -> bool

val width : t -> int

val get : t -> int -> Gom.Value.t

val concat_shared : t -> t -> t
(** [concat_shared a b] glues two tuples that share a boundary column:
    the result is [a] followed by [b] without [b]'s first column.  When
    [a]'s last column is NULL the boundary takes [b]'s first value (used
    by outer joins where the present side supplies the shared column). *)

val project : t -> int list -> t
(** Select the given column indices, in order. *)

val defined_span : t -> (int * int) option
(** [Some (first, last)] column indices of the non-NULL segment, or
    [None] for an all-NULL tuple.  Extension tuples always have
    contiguous defined segments; {!contiguous} checks it. *)

val has_edge : t -> bool
(** True iff the defined span covers two columns or more: the tuple
    records at least one reference of its path.  Every extension tuple
    has one. *)

val contiguous : t -> bool
(** True iff all non-NULL columns form one contiguous block. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
