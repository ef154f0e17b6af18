(* Page-access accounting with an optional buffer pool.

   Accounting is split in two ledgers:

   - {e logical} reads/writes: every distinct-per-operation page request,
     counted identically whether or not a pool is attached (capacity 0
     and capacity N agree by construction — the buffered/unbuffered
     oracle in the test suite leans on this);
   - {e physical} reads/writes ([op_reads] / [total_reads] and the write
     twins): the requests the pool could not absorb — what actually hits
     secondary storage.  Without a pool, physical = logical (the paper's
     cold model).

   Frames are keyed by (segment, page): heap pages and every ASR's tree
   pages come from independent pagers whose identifiers collide, so the
   active segment (dynamically scoped via [in_segment]) namespaces the
   pool and carries per-segment hit/miss tallies for buffer-aware plan
   pricing.

   Beside the page ledger sit the event counters (integrity audits,
   deferred-maintenance deltas, overload and replication-frame events).
   Each is one [counter] constructor plus one JSON name in [table]; the
   counts live in one array indexed by table position, so snapshot,
   merge, absorb, reset and JSON output handle all of them in one loop. *)

type counter =
  | Scrubs
  | Fallbacks
  | Retries
  | Deltas_buffered
  | Deltas_merged
  | Deltas_annihilated
  | Deltas_flushed
  | Catchup_flushes
  | Shed
  | Timed_out
  | Breaker_open
  | Stale_epoch_served
  | Frames_shipped
  | Frames_applied
  | Frames_dropped
  | Frames_retried

(* JSON key order = array slot order. *)
let table =
  [|
    (Scrubs, "scrubs");
    (Fallbacks, "fallbacks");
    (Retries, "retries");
    (Deltas_buffered, "deltas_buffered");
    (Deltas_merged, "deltas_merged");
    (Deltas_annihilated, "deltas_annihilated");
    (Deltas_flushed, "deltas_flushed");
    (Catchup_flushes, "catchup_flushes");
    (Shed, "shed");
    (Timed_out, "timed_out");
    (Breaker_open, "breaker_open");
    (Stale_epoch_served, "stale_epoch_served");
    (Frames_shipped, "frames_shipped");
    (Frames_applied, "frames_applied");
    (Frames_dropped, "frames_dropped");
    (Frames_retried, "frames_retried");
  |]

let counters = Array.to_list (Array.map fst table)

(* Counters fire on cold paths (audits, degradations, frames), so a
   scan of the 16-entry table is cheap enough. *)
let slot c =
  let rec go i = if fst table.(i) = c then i else go (i + 1) in
  go 0

let counter_name c = snd table.(slot c)

type counts = int array

type seg_counts = { mutable sh : int; mutable sm : int }

(* The per-operation distinct-page sets, keyed by raw page id. *)
module Pages = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash p = p land max_int
end)

type t = {
  mutable op_reads : int;
  mutable op_writes : int;
  mutable total_reads : int;
  mutable total_writes : int;
  mutable op_logical_reads : int;
  mutable op_logical_writes : int;
  mutable logical_reads : int;
  mutable logical_writes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable prefetched : int;
  mutable prefetch_hits : int;
  counts : counts;
  mutable shard_grouped : int;
  mutable shard_scatter : int;
  touched_r : unit Pages.t;
  touched_w : unit Pages.t;
  pool : Buffer.t option;
  mutable seg : string;  (* active segment; "" outside any [in_segment] *)
  mutable cur : seg_counts;  (* [seg]'s tallies, resolved on entry *)
  segs : (string, seg_counts) Hashtbl.t;
      (* never shrinks: [reset] zeroes the tallies in place, so a [cur]
         resolved before it stays the live record *)
}

let create ?(buffer_capacity = 0) ?buffer_policy () =
  let outer = { sh = 0; sm = 0 } in
  let segs = Hashtbl.create 8 in
  Hashtbl.add segs "" outer;
  {
    op_reads = 0;
    op_writes = 0;
    total_reads = 0;
    total_writes = 0;
    op_logical_reads = 0;
    op_logical_writes = 0;
    logical_reads = 0;
    logical_writes = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    prefetched = 0;
    prefetch_hits = 0;
    counts = Array.make (Array.length table) 0;
    shard_grouped = 0;
    shard_scatter = 0;
    touched_r = Pages.create 256;
    touched_w = Pages.create 64;
    pool =
      (if buffer_capacity > 0 then
         Some (Buffer.create ?policy:buffer_policy ~capacity:buffer_capacity ())
       else None);
    seg = "";
    cur = outer;
    segs;
  }

let begin_op t =
  t.op_reads <- 0;
  t.op_writes <- 0;
  t.op_logical_reads <- 0;
  t.op_logical_writes <- 0;
  Pages.reset t.touched_r;
  Pages.reset t.touched_w

let seg_counts t seg =
  match Hashtbl.find_opt t.segs seg with
  | Some c -> c
  | None ->
    let c = { sh = 0; sm = 0 } in
    Hashtbl.add t.segs seg c;
    c

(* The tallies are resolved once here, not on every read; without a pool
   nothing reads them. *)
let in_segment t seg f =
  let prev = t.seg and prev_cur = t.cur in
  t.seg <- seg;
  (match t.pool with Some _ -> t.cur <- seg_counts t seg | None -> ());
  match f () with
  | r ->
    t.seg <- prev;
    t.cur <- prev_cur;
    r
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    t.seg <- prev;
    t.cur <- prev_cur;
    Printexc.raise_with_backtrace e bt

let read t page =
  if not (Pages.mem t.touched_r page) then begin
    Pages.add t.touched_r page ();
    t.op_logical_reads <- t.op_logical_reads + 1;
    t.logical_reads <- t.logical_reads + 1;
    match t.pool with
    | None ->
      t.op_reads <- t.op_reads + 1;
      t.total_reads <- t.total_reads + 1
    | Some b -> (
      let c = t.cur in
      match Buffer.reference b (t.seg, page) with
      | Buffer.Hit ->
        t.hits <- t.hits + 1;
        c.sh <- c.sh + 1
      | Buffer.Prefetch_hit ->
        (* The I/O was already paid by the prefetch; warmth-wise this is
           a miss the prefetcher hid, not evidence of a hot page. *)
        t.prefetch_hits <- t.prefetch_hits + 1;
        c.sm <- c.sm + 1
      | Buffer.Miss { evicted } ->
        t.misses <- t.misses + 1;
        t.op_reads <- t.op_reads + 1;
        t.total_reads <- t.total_reads + 1;
        if evicted then t.evictions <- t.evictions + 1;
        c.sm <- c.sm + 1)
  end

let write t page =
  if not (Pages.mem t.touched_w page) then begin
    Pages.add t.touched_w page ();
    t.op_logical_writes <- t.op_logical_writes + 1;
    t.logical_writes <- t.logical_writes + 1;
    (* Write-through: every distinct write reaches storage, pool or not;
       the written page enters the pool so later reads of it hit. *)
    t.op_writes <- t.op_writes + 1;
    t.total_writes <- t.total_writes + 1;
    match t.pool with
    | None -> ()
    | Some b -> (
      match Buffer.reference b (t.seg, page) with
      | Buffer.Miss { evicted = true } -> t.evictions <- t.evictions + 1
      | Buffer.Miss { evicted = false } | Buffer.Hit | Buffer.Prefetch_hit -> ())
  end

let prefetch t pages =
  match t.pool with
  | None -> () (* prefetching into no pool is meaningless *)
  | Some b ->
    (* Two guards keep buffered physical I/O <= the unbuffered run's on
       every workload (property-tested) — speculation must never cost
       more than it saves:
       - skip pages this operation already touched: their upcoming
         demand reads are suppressed by distinct-page accounting (the
         touched set is raw-id keyed, preserving unbuffered op counts),
         so a staged frame could never be referenced;
       - bound the staging by the pool size: more pages than frames
         exist would evict prefetched-but-unread frames (a 1-frame pool
         would thrash). *)
    let pages = List.filter (fun p -> not (Pages.mem t.touched_r p)) pages in
    let rec take n = function
      | p :: tl when n > 0 -> p :: take (n - 1) tl
      | _ -> []
    in
    let pages = take (Buffer.capacity b) pages in
    List.iter
      (fun page ->
        match Buffer.prefetch b (t.seg, page) with
        | `Resident -> ()
        | `Admitted evicted ->
          (* Speculative fetch: physical I/O paid now, charged to the
             operation that issued the prefetch. *)
          t.prefetched <- t.prefetched + 1;
          t.op_reads <- t.op_reads + 1;
          t.total_reads <- t.total_reads + 1;
          if evicted then t.evictions <- t.evictions + 1)
      pages

let pin_page t page =
  match t.pool with Some b -> Buffer.pin b (t.seg, page) | None -> ()

let unpin_page t page =
  match t.pool with Some b -> Buffer.unpin b (t.seg, page) | None -> ()

let op_reads t = t.op_reads
let op_writes t = t.op_writes
let op_accesses t = t.op_reads + t.op_writes
let total_reads t = t.total_reads
let total_writes t = t.total_writes
let total_accesses t = t.total_reads + t.total_writes
let op_logical_reads t = t.op_logical_reads
let op_logical_writes t = t.op_logical_writes
let logical_reads t = t.logical_reads
let logical_writes t = t.logical_writes
let buffer_hits t = t.hits
let buffer_misses t = t.misses
let buffer_evictions t = t.evictions
let prefetched t = t.prefetched
let prefetch_hits t = t.prefetch_hits
let buffer_capacity t = match t.pool with Some b -> Buffer.capacity b | None -> 0
let has_buffer t = t.pool <> None

let hit_ratio t =
  let denom = t.hits + t.misses + t.prefetch_hits in
  if t.pool = None || denom = 0 then None
  else Some (float_of_int t.hits /. float_of_int denom)

let segment_hit_ratio t seg =
  if t.pool = None then None
  else
    match Hashtbl.find_opt t.segs seg with
    | Some c when c.sh + c.sm > 0 ->
      Some (float_of_int c.sh /. float_of_int (c.sh + c.sm))
    | Some _ | None -> None

let segment_accesses t seg =
  match Hashtbl.find_opt t.segs seg with Some c -> c.sh + c.sm | None -> 0

let add t c n =
  let i = slot c in
  t.counts.(i) <- t.counts.(i) + n

let incr t c = add t c 1
let count t c = t.counts.(slot c)

let note_shard_grouped t = t.shard_grouped <- t.shard_grouped + 1
let note_shard_scatter t = t.shard_scatter <- t.shard_scatter + 1

type summary = {
  s_op_reads : int;
  s_op_writes : int;
  s_total_reads : int;
  s_total_writes : int;
  s_logical_reads : int;
  s_logical_writes : int;
  s_buffer_hits : int;
  s_buffer_misses : int;
  s_buffer_evictions : int;
  s_prefetched : int;
  s_prefetch_hits : int;
  s_buffer_capacity : int;
  s_counts : counts;
  s_shard_grouped : int;
  s_shard_scatter : int;
}

let snapshot t =
  {
    s_op_reads = t.op_reads;
    s_op_writes = t.op_writes;
    s_total_reads = t.total_reads;
    s_total_writes = t.total_writes;
    s_logical_reads = t.logical_reads;
    s_logical_writes = t.logical_writes;
    s_buffer_hits = t.hits;
    s_buffer_misses = t.misses;
    s_buffer_evictions = t.evictions;
    s_prefetched = t.prefetched;
    s_prefetch_hits = t.prefetch_hits;
    s_buffer_capacity = buffer_capacity t;
    s_counts = Array.copy t.counts;
    s_shard_grouped = t.shard_grouped;
    s_shard_scatter = t.shard_scatter;
  }

let zero =
  {
    s_op_reads = 0;
    s_op_writes = 0;
    s_total_reads = 0;
    s_total_writes = 0;
    s_logical_reads = 0;
    s_logical_writes = 0;
    s_buffer_hits = 0;
    s_buffer_misses = 0;
    s_buffer_evictions = 0;
    s_prefetched = 0;
    s_prefetch_hits = 0;
    s_buffer_capacity = 0;
    s_counts = Array.make (Array.length table) 0;
    s_shard_grouped = 0;
    s_shard_scatter = 0;
  }

let summary_count s c = s.s_counts.(slot c)

let merge a b =
  {
    s_op_reads = a.s_op_reads + b.s_op_reads;
    s_op_writes = a.s_op_writes + b.s_op_writes;
    s_total_reads = a.s_total_reads + b.s_total_reads;
    s_total_writes = a.s_total_writes + b.s_total_writes;
    s_logical_reads = a.s_logical_reads + b.s_logical_reads;
    s_logical_writes = a.s_logical_writes + b.s_logical_writes;
    s_buffer_hits = a.s_buffer_hits + b.s_buffer_hits;
    s_buffer_misses = a.s_buffer_misses + b.s_buffer_misses;
    s_buffer_evictions = a.s_buffer_evictions + b.s_buffer_evictions;
    s_prefetched = a.s_prefetched + b.s_prefetched;
    s_prefetch_hits = a.s_prefetch_hits + b.s_prefetch_hits;
    s_buffer_capacity = max a.s_buffer_capacity b.s_buffer_capacity;
    s_counts = Array.map2 ( + ) a.s_counts b.s_counts;
    s_shard_grouped = a.s_shard_grouped + b.s_shard_grouped;
    s_shard_scatter = a.s_shard_scatter + b.s_shard_scatter;
  }

let absorb t s =
  t.total_reads <- t.total_reads + s.s_total_reads;
  t.total_writes <- t.total_writes + s.s_total_writes;
  t.logical_reads <- t.logical_reads + s.s_logical_reads;
  t.logical_writes <- t.logical_writes + s.s_logical_writes;
  t.hits <- t.hits + s.s_buffer_hits;
  t.misses <- t.misses + s.s_buffer_misses;
  t.evictions <- t.evictions + s.s_buffer_evictions;
  t.prefetched <- t.prefetched + s.s_prefetched;
  t.prefetch_hits <- t.prefetch_hits + s.s_prefetch_hits;
  Array.iteri (fun i n -> t.counts.(i) <- t.counts.(i) + n) s.s_counts;
  t.shard_grouped <- t.shard_grouped + s.s_shard_grouped;
  t.shard_scatter <- t.shard_scatter + s.s_shard_scatter

let summary_hit_ratio s =
  let denom = s.s_buffer_hits + s.s_buffer_misses + s.s_prefetch_hits in
  if denom = 0 then 0. else float_of_int s.s_buffer_hits /. float_of_int denom

let summary_to_json ?(extra = []) s =
  let fields =
    [
      ("op_reads", string_of_int s.s_op_reads);
      ("op_writes", string_of_int s.s_op_writes);
      ("total_reads", string_of_int s.s_total_reads);
      ("total_writes", string_of_int s.s_total_writes);
      ("total_accesses", string_of_int (s.s_total_reads + s.s_total_writes));
      ("logical_reads", string_of_int s.s_logical_reads);
      ("logical_writes", string_of_int s.s_logical_writes);
      ("buffer_hits", string_of_int s.s_buffer_hits);
      ("buffer_misses", string_of_int s.s_buffer_misses);
      ("buffer_evictions", string_of_int s.s_buffer_evictions);
      ("prefetched", string_of_int s.s_prefetched);
      ("prefetch_hits", string_of_int s.s_prefetch_hits);
      ("buffer_hit_ratio", Printf.sprintf "%.4f" (summary_hit_ratio s));
      ("buffer_capacity", string_of_int s.s_buffer_capacity);
    ]
    @ Array.to_list (Array.mapi (fun i (_, name) -> (name, string_of_int s.s_counts.(i))) table)
    @ [
        ("shard_grouped", string_of_int s.s_shard_grouped);
        ("shard_scatter", string_of_int s.s_shard_scatter);
      ]
    @ extra
  in
  let buf = Stdlib.Buffer.create 256 in
  Stdlib.Buffer.add_string buf "{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Stdlib.Buffer.add_string buf ", ";
      Stdlib.Buffer.add_string buf (Printf.sprintf "%S: %s" k v))
    fields;
  Stdlib.Buffer.add_string buf "}";
  Stdlib.Buffer.contents buf

let reset t =
  begin_op t;
  t.total_reads <- 0;
  t.total_writes <- 0;
  t.logical_reads <- 0;
  t.logical_writes <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0;
  t.prefetched <- 0;
  t.prefetch_hits <- 0;
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.shard_grouped <- 0;
  t.shard_scatter <- 0;
  Hashtbl.iter
    (fun _ c ->
      c.sh <- 0;
      c.sm <- 0)
    t.segs;
  match t.pool with Some b -> Buffer.reset b | None -> ()
