(** Page-structured B+ trees over access-support-relation tuples.

    Following Valduriez's join-index storage (paper, section 5.2), each
    access support relation partition is kept in two redundant B+ trees,
    one clustered on the first attribute and one on the last.  This
    module implements one such tree: keys are {!Gom.Value.t} (an OID or,
    for the final column of a path ending in an elementary type, an
    atomic value); payloads are whole partition tuples.

    The tree is genuinely page-structured: inner nodes hold up to
    {!Config.bplus_fan} children (each child reference costs a page
    pointer plus a separator), leaves hold as many tuples as fit in a
    page given the tuple width.  All traversals report the pages they
    touch to a {!Stats.t}, which is how query and update costs are
    measured.

    A leaf's entries are an array sorted by (key, tuple), replaced by a
    fresh array on every change and never written in place.  Searches
    inside a leaf are binary.  That is CPU work only: the pages charged,
    their order and the pages allocated do not depend on it.

    Duplicate tuples are reference-counted: a decomposition partition is
    the {e projection} of the extension, so the same projected tuple can
    be contributed by several extension tuples (Definition 3.8).  One
    write primitive, {!adjust}, moves a count by any signed amount in a
    single descent; {!insert} and {!remove} are its [±1] cases, and a
    batch of deltas is a sequence of [adjust]s under one {!Stats}
    operation, which charges each touched page once. *)

type t

type tuple = Gom.Value.t array

val create :
  config:Config.t ->
  pager:Pager.t ->
  tuple_bytes:int ->
  key_of:(tuple -> Gom.Value.t) ->
  t
(** [create ~config ~pager ~tuple_bytes ~key_of] builds an empty tree.
    [tuple_bytes] is the stored size of one tuple (the paper's
    [ats = OIDsize * width]); [key_of] extracts the clustering key
    (first or last column). *)

val bulk_load : t -> tuple list -> unit
(** Replace the contents with the given tuples (each with reference
    count 1 per occurrence in the list; duplicates accumulate counts).
    Leaves are packed full, as after an index build. *)

val adjust : ?stats:Stats.t -> t -> tuple -> int -> unit
(** [adjust t tuple d] moves [tuple]'s reference count by the signed
    [d] in one root-to-leaf descent.  A positive [d] on an absent tuple
    creates the entry with count [d]; an entry whose count reaches zero
    or below disappears; a negative [d] on an absent tuple changes
    nothing; [d = 0] touches no page.  Page accounting: inner pages on
    the descent are read; the leaf is read, and written when its entry
    changed.  A new entry that over-fills its leaf splits it at
    [k = (n+1)/2], writing the new page and the affected parents (and a
    new root when the root splits).  Leaves may become under-full (lazy
    deletion); an emptied leaf is unlinked and its parent written, and
    a root left with a single child collapses.  So [adjust] charges no
    page that [|d|] unit calls would not. *)

val insert : ?stats:Stats.t -> t -> tuple -> unit
(** [adjust t tuple 1]: add one reference to [tuple]. *)

val remove : ?stats:Stats.t -> t -> tuple -> unit
(** [adjust t tuple (-1)]: drop one reference to [tuple]; unknown tuples
    are ignored. *)

val lookup_many :
  ?stats:Stats.t -> t -> Gom.Value.t list -> (Gom.Value.t * tuple list) list
(** The tree's one keyed read.  For each distinct key, every tuple
    whose key equals it (each listed once, whatever its reference
    count), in tuple order; one [(key, tuples)] pair per distinct key,
    in key order ([tuples] may be empty).  A single probe is a batch of
    one.  Keys are served in ascending order, re-using the leaf the
    previous key's run ended on whenever the next key falls inside its
    key range, so adjacent keys share descents and leaf pages.
    Accounting: a descent reads the inner pages, then every leaf page
    holding a matching entry; with a buffer pool, the leaves a run
    provably continues into are prefetched ({!Stats.prefetch}). *)

val mem : t -> tuple -> bool

val refcount : t -> tuple -> int

val scan : ?stats:Stats.t -> t -> tuple list
(** All tuples in key order, reading every leaf page (the "inspect all
    pages of the partition" case of the paper's cost formulas — inner
    pages are not needed for a full scan). *)

val iter : ?stats:Stats.t -> t -> (tuple -> unit) -> unit

val cardinal : t -> int
(** Number of distinct tuples (the paper's [#E]). *)

val height : t -> int
(** Levels above the leaves, at least 1 (a root-only tree has height 1);
    the paper's [ht]. *)

val leaf_pages : t -> int
(** Number of leaf pages; the paper's [ap]. *)

val inner_pages : t -> int
(** Number of non-leaf pages; the paper's [pg]. *)

val tuple_bytes : t -> int

val check_invariants : t -> (unit, string) result
(** Structural check used by the test suite: ordering within and across
    leaves, capacity bounds, separator consistency, leaf chaining
    (forward and back links, with the first leaf at the head). *)
