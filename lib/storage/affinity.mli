(** Traversal-affinity mining for dynamic clustering.

    The executed-plan traces already pass through {!Heap.read_object};
    an [Affinity.t] attached as the heap's tracer turns that stream of
    object touches into a co-access graph: objects dereferenced close
    together (within a sliding window of the trace) accumulate edge
    weight.  {!clusters} then greedily condenses the hottest edges into
    page-sized neighbourhoods — the plan {!Heap.recluster} repacks —
    following the dynamic, workload-observed clustering strategies of
    the OODB clustering literature rather than static type order. *)

type t

val create : ?window:int -> ?max_edges:int -> unit -> t
(** A fresh empty graph.  [window] (default 2) is how many recent
    touches each new touch pairs with; [max_edges] (default 65536)
    bounds the edge table — on overflow the graph {!decay}s, aging cold
    edges out before they can crowd hot ones. *)

val touch : t -> Gom.Oid.t -> unit
(** Record one object access: bumps the edge weight between this object
    and each of the previous [window] distinct touches. *)

val break_run : t -> unit
(** Forget the recent-touch window (e.g. between unrelated workload
    phases) without discarding edge weights. *)

val touches : t -> int
(** Total accesses recorded. *)

val decay : t -> unit
(** Halve every edge weight, dropping edges that reach zero — the aging
    step that keeps the graph tracking the {e current} workload. *)

val clusters :
  t -> size_of:(Gom.Oid.t -> int) -> page_size:int -> Gom.Oid.t list list
(** Greedy affinity clustering: edges are taken hottest-first and their
    endpoint clusters merged whenever the combined object sizes still
    fit one page ([size_of] gives each object's bytes).  Returns the
    resulting multi-object clusters, hottest first — singletons are
    omitted (they have nothing to co-locate).  Deterministic for a
    given graph. *)
