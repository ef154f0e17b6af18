(** Secondary-storage page-access accounting.

    The paper's entire cost model is expressed in numbers of page
    accesses on secondary storage ("we will neglect the CPU cost and
    merely compare the number of page accesses", section 5.6).  A
    [Stats.t] counts, per operation, the number of {e distinct} pages
    read and written — the same accounting Yao's formula assumes (a page
    holding several needed objects is fetched once).

    Accounting is split into two ledgers:

    - {e logical} accesses ({!logical_reads} / {!logical_writes}): every
      distinct-per-operation page request, counted identically whether
      or not a buffer pool is attached.  Logical traffic is a pure
      function of the evaluation, so buffered and unbuffered runs of
      the same queries agree on it exactly (property-tested);
    - {e physical} accesses ({!op_reads} / {!total_reads} and the write
      twins): the requests the pool could not absorb — what actually
      hits secondary storage.  Without a pool, physical = logical (the
      paper's model: every operation starts cold).

    With [~buffer_capacity:n > 0] a {!Buffer.t} pool of [n] frames sits
    between the access layers and the pager: resident reads become
    {e hits} (no physical charge), absent ones {e misses} (one physical
    read, admission, possibly an eviction), and {!prefetch} stages pages
    speculatively.

    A page identifier names its segment ({!Pager}): the heap, each
    access support relation and each sharing pool allocate from their
    own segment, so a heap page and a tree page never count as one, and
    a pool page read by two relations is one page with one frame.  The
    segment also carries the per-segment hit ratios the planner's
    buffer-aware pricing consumes ({!segment_hit_ratio}). *)

type t

val create : ?buffer_capacity:int -> unit -> t
(** [create ()] counts cold, per-operation distinct accesses (physical =
    logical).  With [~buffer_capacity:n > 0], an LRU pool of [n] frames
    absorbs repeated reads across operations. *)

val begin_op : t -> unit
(** Start a new operation: resets the per-operation distinct-page sets
    and counters.  Cumulative totals, segment tallies and buffer
    contents are preserved. *)

val read : t -> int -> unit
(** Record a read of the given page: one logical read per operation per
    distinct page, and one physical read unless the pool holds the
    page.  Within-operation repeats are free (distinct-page
    accounting), and they do not reach the pool either: a page read
    twice in one operation is charged, and refreshes its LRU recency,
    once.  The buffered ledger thus makes exactly the pool references
    the unbuffered one counts. *)

val write : t -> int -> unit
(** Record a write of the given page; counted once per operation
    (independently of reads of the same page).  Writes are
    write-through — always physical — and the written page enters the
    pool so later reads of it hit. *)

val prefetch : t -> int list -> unit
(** Stage pages into the pool speculatively (B+-tree leaf chains ahead
    of a range scan, extent pages ahead of a scan).  Pages not already
    resident are charged as physical reads {e now} (and counted in
    {!prefetched}); the first later demand read of such a page is a
    {e prefetch hit} — free of further I/O, but counted as miss-like
    for warmth, so an operation prefetching its own scan does not
    inflate its hit ratio.  Pages this operation already read are
    skipped: no demand read of theirs can follow.  At most as many
    pages are staged as the pool has frames without a pin (beyond that,
    speculation would evict its own unread frames — pure wasted I/O).
    No-op without a pool. *)

val pin_page : t -> int -> unit
(** Pin a page frame in the pool (no-op without a pool): pinned frames
    are never eviction victims.  Chain walks pin the leaf under the
    cursor while prefetching ahead.  Pins nest; see {!Buffer.pin}. *)

val unpin_page : t -> int -> unit

val op_reads : t -> int
(** Distinct pages {e physically} read from storage since the last
    {!begin_op} (buffer hits excluded). *)

val op_writes : t -> int

val op_accesses : t -> int
(** [op_reads + op_writes]. *)

val total_reads : t -> int
(** Cumulative physical reads over all operations. *)

val total_writes : t -> int

val total_accesses : t -> int

val op_logical_reads : t -> int
(** Distinct pages requested since the last {!begin_op}, hits
    included. *)

val op_logical_writes : t -> int

val logical_reads : t -> int
(** Cumulative logical reads — identical across buffer capacities,
    including 0, for the same evaluation. *)

val logical_writes : t -> int

val buffer_hits : t -> int
(** Reads served from the buffer pool (0 without a buffer). *)

val buffer_misses : t -> int
val buffer_evictions : t -> int

val prefetched : t -> int
(** Pages staged speculatively by {!prefetch} (each one physical). *)

val prefetch_hits : t -> int
(** Demand reads served by a previously prefetched frame. *)

val buffer_capacity : t -> int
val has_buffer : t -> bool

val hit_ratio : t -> float option
(** Overall [hits / (hits + misses + prefetch_hits)]; [None] without a
    pool or before any buffered access. *)

val segment_hit_ratio : t -> string -> float option
(** Measured hit ratio of the traffic to pages of the segments
    registered under the given name ({!Pager.create}; every heap is
    ["heap"], a relation is {!Core.Asr.seg}, raw identifiers outside any
    pager are [""]).  [None] without a pool or when those segments have
    no accesses yet.  This is the signal the planner's buffer-aware
    pricing scales page costs by. *)

val segment_accesses : t -> string -> int
(** Buffered accesses recorded for the named segments (hits + misses +
    prefetch hits) — the sample size behind {!segment_hit_ratio}. *)

(** {2 Event counters}

    Cumulative counters recorded alongside page traffic, so benchmark
    trajectories show how often the degraded, deferred, overload and
    replication paths fire.  Each counter is one constructor here and
    one JSON key in {!summary_to_json}; listing order is key order. *)

type counter =
  | Scrubs  (** One partition audit by the integrity scrubber. *)
  | Fallbacks
      (** One degraded planning decision: a quarantined index was
          excluded and the planner fell back to navigation, an extent
          scan or an alternate index. *)
  | Retries  (** One bounded retry of a transiently failing read. *)
  | Deltas_buffered
      (** One typed delta (+tuple/−tuple for one partition) entering a
          write-behind maintenance buffer.  Every flush policy buffers
          every delta, so the four [Deltas_*] counters count under
          [Immediate] too: its [Deltas_buffered] equals a deferred
          policy's over the same events, its merges and annihilations
          are those within one event, and it flushes every event's net
          deltas. *)
  | Deltas_merged
      (** One delta that coalesced with a pending delta on the same
          projected tuple (refcount deltas summed; net still non-zero). *)
  | Deltas_annihilated
      (** One annihilation: a pending delta's net refcount reached zero,
          so the pair vanished without touching a page. *)
  | Deltas_flushed  (** Net deltas applied to partition trees by a flush. *)
  | Catchup_flushes
      (** One catch-up flush forced by the planner's freshness watermark
          (or an integrity audit) before using a stale index. *)
  | Shed
      (** One query rejected by admission control (bounded-queue
          overflow under any shed policy, or a per-client rate limit).
          The serving benchmark gate checks {e offered = answered + shed
          + timed_out}. *)
  | Timed_out
      (** One query whose deadline expired — either while queued or at a
          cooperative cancellation checkpoint mid-evaluation. *)
  | Breaker_open  (** One call short-circuited by an open circuit breaker. *)
  | Stale_epoch_served
      (** One query answered from the previous published epoch while
          brownout mode defers snapshot publication (bounded staleness). *)
  | Frames_shipped
      (** One encoded frame handed to the WAL-shipping channel, per copy
          (a duplicated delivery counts twice).  At quiescence {e shipped
          = applied + dropped + retried} balances exactly; the CI
          failover gate checks it. *)
  | Frames_applied  (** One delivered frame the replica verified and applied. *)
  | Frames_dropped  (** One frame copy lost in flight or discarded at teardown. *)
  | Frames_retried
      (** One delivered frame the replica rejected, obliging the primary
          to rewind and resend. *)

val counters : counter list
(** Every counter, in JSON key order. *)

val counter_name : counter -> string
(** The counter's JSON key, e.g. ["frames_shipped"]. *)

val add : t -> counter -> int -> unit
(** [add t c n] adds [n] to counter [c]. *)

val incr : t -> counter -> unit
(** [incr t c] is [add t c 1]. *)

val count : t -> counter -> int
(** The counter's cumulative value. *)

(** {2 Shard-routing counters}

    One count per batch the scatter-gather router dispatches: {e
    grouped} batches partition their probes by owner shard (each probe
    answered exactly once), {e scattered} ones fan every probe to every
    shard and union the answers.  [grouped + scatter] equals the number
    of routed batches — the shard regression tests check the balance.
    Unlike the {!counter}s these are summary record fields
    ([s_shard_grouped], [s_shard_scatter]), read by name. *)

val note_shard_grouped : t -> unit
(** Record one batch routed with probes grouped by owner shard. *)

val note_shard_scatter : t -> unit
(** Record one batch scattered to every shard. *)

val reset : t -> unit
(** Clears everything, including totals, segment tallies and the buffer
    pool. *)

type counts
(** The event counters' values, one per {!counter}. *)

type summary = {
  s_op_reads : int;
  s_op_writes : int;
  s_total_reads : int;  (** Physical reads. *)
  s_total_writes : int;
  s_logical_reads : int;
  s_logical_writes : int;
  s_buffer_hits : int;
  s_buffer_misses : int;
  s_buffer_evictions : int;
  s_prefetched : int;
  s_prefetch_hits : int;
  s_buffer_capacity : int;
  s_counts : counts;  (** Read with {!summary_count}. *)
  s_shard_grouped : int;
  s_shard_scatter : int;
}
(** A point-in-time copy of every counter, decoupled from the live
    [t] (which keeps mutating). *)

val snapshot : t -> summary

val summary_count : summary -> counter -> int
(** The counter's value at {!snapshot} time. *)

val merge : summary -> summary -> summary
(** Field-wise sum of two summaries ([s_buffer_capacity] takes the
    maximum).  Associative and commutative with {!zero} as unit, so
    per-domain accounting sheaves merge into one snapshot in any order
    — the parallel server's workers each count pages privately and the
    merged summary equals what one sequential accountant would have
    counted.  Distinct-page suppression stays {e per sheaf}: two
    domains touching the same page within their own operations each
    count it once.  Likewise each sheaf's buffer pool is private, so
    hits/misses/evictions sum without double counting. *)

val zero : summary
(** The all-zero summary, {!merge}'s unit. *)

val absorb : t -> summary -> unit
(** Fold a (worker sheaf) summary into this accountant's {e cumulative}
    counters: totals (physical and logical), buffer hit/miss/eviction/
    prefetch tallies and event counters are added; the
    per-operation counters and the buffer pool are untouched. *)

val summary_hit_ratio : summary -> float
(** [hits / (hits + misses + prefetch_hits)], 0 when unbuffered. *)

val summary_to_json : ?extra:(string * string) list -> summary -> string
(** One-line JSON object over the summary's counters.  [extra] fields
    are appended verbatim — each value must already be a JSON fragment
    (e.g. [("mode", {|"batched"|})]).  Used by the benchmark harness
    and the CLI so every [BENCH_*.json] has the same shape. *)
