(** Allocator of simulated page identifiers.  Pages carry no bytes in
    this simulator; identity is all the cost model needs.

    A pager {e is} a segment: the heap, each access support relation
    and each sharing pool own one.  Creating a pager draws a segment
    number from a process-wide counter (domain-safe, starting at 1) and
    records the pager's name under it, and every page it allocates
    carries that number in its high bits.  A page identifier is
    therefore unique in the process: {!Stats} counts it once per
    operation and {!Buffer} gives it one frame, whichever relation
    reads it.  Segment 0 belongs to no pager; raw identifiers below
    [2{^32}] (as tests use) fall in it, under the name [""]. *)

type t

val create : string -> t
(** [create name] is an empty pager with a fresh segment number,
    registered under [name] (["heap"], ["asr<id>"], a pool's name).  The
    registry grows by one entry per pager created, never per page. *)

val alloc : t -> int
(** A fresh page identifier, [segment lsl 32 lor k] for the pager's
    [k]-th page (from 0). *)

val allocated : t -> int
(** Number of pages allocated so far. *)

val name : t -> string

val segment : int -> int
(** The segment number a page identifier carries. *)

val segment_name : int -> string
(** The name a segment number was registered under; [""] for segment 0
    or a number no pager drew. *)

module Tbl : Hashtbl.S with type key = int
(** Hash tables keyed by page identifier. *)
