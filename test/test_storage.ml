(* Tests for Storage.Stats, Storage.Heap and Storage.Config. *)

module S = Storage.Stats
module H = Storage.Heap

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_config () =
  check_int "default page size" 4056 Storage.Config.default.Storage.Config.page_size;
  check_int "B+ fan-out" 338 (Storage.Config.bplus_fan Storage.Config.default);
  check "bad sizes rejected" true
    (try ignore (Storage.Config.make ~page_size:0 ()); false
     with Invalid_argument _ -> true)

let test_stats_distinct_counting () =
  let st = S.create () in
  S.begin_op st;
  S.read st 1;
  S.read st 1;
  S.read st 2;
  check_int "distinct reads" 2 (S.op_reads st);
  S.write st 1;
  S.write st 1;
  check_int "distinct writes" 1 (S.op_writes st);
  check_int "accesses" 3 (S.op_accesses st);
  S.begin_op st;
  check_int "op reset" 0 (S.op_reads st);
  S.read st 1;
  check_int "page countable again" 1 (S.op_reads st);
  check_int "totals accumulate" 3 (S.total_reads st);
  S.reset st;
  check_int "reset clears totals" 0 (S.total_reads st)

let test_buffer_pool_hits () =
  let st = S.create ~buffer_capacity:2 () in
  S.begin_op st;
  S.read st 1;
  S.read st 2;
  check_int "cold misses counted" 2 (S.op_reads st);
  S.begin_op st;
  S.read st 1;
  S.read st 2;
  check_int "warm reads free" 0 (S.op_reads st);
  check_int "hits recorded" 2 (S.buffer_hits st);
  (* Page 3 evicts the LRU page (1 was used before 2... both touched this
     op; 1 is older). *)
  S.read st 3;
  S.begin_op st;
  S.read st 1;
  check_int "evicted page is a miss again" 1 (S.op_reads st);
  check_int "capacity" 2 (S.buffer_capacity st)

let test_buffer_lru_order () =
  let st = S.create ~buffer_capacity:2 () in
  S.begin_op st;
  S.read st 1;
  S.read st 2;
  S.read st 1 (* touch 1: now 2 is the LRU *);
  S.begin_op st;
  S.read st 1 (* hit; refreshes 1 *);
  S.read st 3 (* evicts 2 *);
  S.begin_op st;
  S.read st 1;
  check_int "1 still resident" 0 (S.op_reads st);
  S.read st 2;
  check_int "2 was evicted" 1 (S.op_reads st)

let test_buffer_write_through () =
  let st = S.create ~buffer_capacity:4 () in
  S.begin_op st;
  S.write st 7;
  check_int "write counted" 1 (S.op_writes st);
  S.begin_op st;
  S.read st 7;
  check_int "written page resident" 0 (S.op_reads st)

let test_buffer_reset () =
  let st = S.create ~buffer_capacity:4 () in
  S.begin_op st;
  S.read st 1;
  S.reset st;
  S.begin_op st;
  S.read st 1;
  check_int "reset drops the pool" 1 (S.op_reads st)

let test_no_buffer_by_default () =
  let st = S.create () in
  S.begin_op st;
  S.read st 1;
  S.begin_op st;
  S.read st 1;
  check_int "cold across operations" 1 (S.op_reads st);
  check_int "no hits" 0 (S.buffer_hits st);
  check_int "capacity 0" 0 (S.buffer_capacity st)

let heap_setup ?(size = 500) () =
  let s = Gom.Schema.empty in
  let s = Gom.Schema.define_tuple s "Big" [ ("x", "INT") ] in
  let s = Gom.Schema.define_tuple s "Small" [ ("x", "INT") ] in
  let store = Gom.Store.create s in
  let heap =
    H.create ~size_of:(function "Big" -> size | _ -> 50) store
  in
  (store, heap)

let test_heap_packing () =
  let store, heap = heap_setup () in
  (* 4056 / 500 = 8 objects per page. *)
  let objs = List.init 20 (fun _ -> Gom.Store.new_object store "Big") in
  check_int "20 objects over 3 pages" 3 (H.pages_of_type heap "Big");
  check_int "opp" 8 (H.objects_per_page heap "Big");
  (* First 8 objects share the first page. *)
  let pages = List.map (H.page_of heap) objs in
  let first8 = List.filteri (fun i _ -> i < 8) pages in
  check "first 8 co-located" true
    (List.for_all (fun p -> p = List.hd first8) first8);
  check "9th elsewhere" true (List.nth pages 8 <> List.hd pages)

let test_heap_type_clustering () =
  let store, heap = heap_setup () in
  let big = Gom.Store.new_object store "Big" in
  let small = Gom.Store.new_object store "Small" in
  check "different type, different page" true
    (H.page_of heap big <> H.page_of heap small)

let test_heap_scan_and_read () =
  let store, heap = heap_setup () in
  let objs = List.init 20 (fun _ -> Gom.Store.new_object store "Big") in
  let st = S.create () in
  S.begin_op st;
  H.scan_extent heap st "Big";
  check_int "scan touches all pages" 3 (S.op_reads st);
  S.begin_op st;
  H.read_object heap st (List.hd objs);
  check_int "single object, one page" 1 (S.op_reads st)

let test_heap_large_objects () =
  let store, heap = heap_setup ~size:10000 () in
  let o = Gom.Store.new_object store "Big" in
  let st = S.create () in
  S.begin_op st;
  H.read_object heap st o;
  (* ceil(10000 / 4056) = 3 pages. *)
  check_int "spanning object" 3 (S.op_reads st)

let test_heap_deep_extent () =
  let s = Gom.Schema.empty in
  let s = Gom.Schema.define_tuple s "Base" [ ("x", "INT") ] in
  let s = Gom.Schema.define_tuple s "Derived" ~supertypes:[ "Base" ] [] in
  let store = Gom.Store.create s in
  let heap = H.create ~size_of:(fun _ -> 500) store in
  ignore (Gom.Store.new_object store "Base");
  ignore (Gom.Store.new_object store "Derived");
  check_int "shallow pages" 1 (H.pages_of_type heap "Base");
  check_int "deep pages include subtype extents" 2
    (H.pages_of_type ~deep:true heap "Base")

(* --- Buffer module mechanics (policy, pins, prefetch outcomes) --- *)

module B = Storage.Buffer

let test_buffer_clock_second_chance () =
  let b = B.create ~policy:B.Clock ~capacity:3 () in
  ignore (B.reference b ("s", 1));
  ignore (B.reference b ("s", 2));
  ignore (B.reference b ("s", 3));
  (* Admitting 4 sweeps the whole ring (clearing every ref bit) and
     evicts 1, the frame under the hand. *)
  (match B.reference b ("s", 4) with
  | B.Miss { evicted = true } -> ()
  | _ -> Alcotest.fail "expected an evicting miss");
  check "hand victim gone" false (B.mem b ("s", 1));
  (* Re-reference 2: its bit is set again, so the next eviction must
     give it a second chance and take 3 — even though 3 is behind 2 in
     hand order. *)
  ignore (B.reference b ("s", 2));
  ignore (B.reference b ("s", 5));
  check "second-chanced page survives" true (B.mem b ("s", 2));
  check "unreferenced page evicted" false (B.mem b ("s", 3));
  check "fresh admission resident" true (B.mem b ("s", 4))

let test_buffer_pin_nesting () =
  let b = B.create ~capacity:2 () in
  ignore (B.reference b ("s", 1));
  B.pin b ("s", 1);
  B.pin b ("s", 1) (* nested *);
  ignore (B.reference b ("s", 2));
  ignore (B.reference b ("s", 3)) (* must evict 2, never pinned 1 *);
  check "pinned frame survives eviction" true (B.mem b ("s", 1));
  B.unpin b ("s", 1) (* one pin remains *);
  ignore (B.reference b ("s", 4));
  check "still pinned after one unpin" true (B.mem b ("s", 1));
  B.unpin b ("s", 1);
  ignore (B.reference b ("s", 5));
  ignore (B.reference b ("s", 6));
  check "fully unpinned frame evictable" false (B.mem b ("s", 1));
  B.unpin b ("s", 99) (* unknown frame: no-op *)

let test_buffer_all_pinned_overflows () =
  let b = B.create ~capacity:1 () in
  ignore (B.reference b ("s", 1));
  B.pin b ("s", 1);
  (match B.reference b ("s", 2) with
  | B.Miss { evicted = false } -> ()
  | _ -> Alcotest.fail "expected a non-evicting overflow miss");
  check "overflow admitted" true (B.mem b ("s", 2));
  check_int "transient overflow" 2 (B.resident b)

let test_buffer_prefetch_outcomes () =
  let b = B.create ~capacity:4 () in
  (match B.prefetch b ("s", 1) with
  | `Admitted false -> ()
  | _ -> Alcotest.fail "expected speculative admission");
  (match B.reference b ("s", 1) with
  | B.Prefetch_hit -> ()
  | _ -> Alcotest.fail "first demand read should be a prefetch hit");
  (match B.reference b ("s", 1) with
  | B.Hit -> ()
  | _ -> Alcotest.fail "later reads are plain hits");
  (match B.prefetch b ("s", 1) with
  | `Resident -> ()
  | _ -> Alcotest.fail "prefetching a resident page is a no-op")

let test_buffer_segment_namespacing () =
  let b = B.create ~capacity:4 () in
  ignore (B.reference b ("heap", 1));
  (match B.reference b ("asr0", 1) with
  | B.Miss _ -> ()
  | _ -> Alcotest.fail "page 1 of another segment must be a distinct frame");
  check_int "two frames" 2 (B.resident b)

let test_stats_prefetch_accounting () =
  let st = S.create ~buffer_capacity:8 () in
  S.begin_op st;
  S.prefetch st [ 1; 2 ];
  check_int "prefetch pays physical I/O now" 2 (S.total_reads st);
  check_int "prefetched counted" 2 (S.prefetched st);
  S.read st 1;
  check_int "demand read after prefetch is free" 2 (S.total_reads st);
  check_int "prefetch hit recorded" 1 (S.prefetch_hits st);
  check_int "logical reads still counted" 1 (S.logical_reads st);
  (* Within-operation repeats never reach the pool (distinct-page
     accounting); a fresh operation's read is a plain hit. *)
  S.begin_op st;
  S.read st 1;
  check_int "later demand read is a plain hit" 1 (S.buffer_hits st)

let test_stats_segment_hit_ratio () =
  let st = S.create ~buffer_capacity:8 () in
  (* Page 1 of the heap and page 1 of a tree pager are different pages:
     the pool must key frames by (segment, page).  Separate operations,
     because within-op distinct-page suppression is by raw identifier
     (preserving the unbuffered op_reads semantics). *)
  S.begin_op st;
  S.in_segment st "heap" (fun () -> S.read st 1);
  S.begin_op st;
  S.in_segment st "asr0" (fun () -> S.read st 1);
  check_int "colliding ids in distinct segments both miss" 2 (S.buffer_misses st);
  S.begin_op st;
  S.in_segment st "heap" (fun () -> S.read st 1);
  (match S.segment_hit_ratio st "heap" with
  | Some r -> check "heap warmed to 1/2" true (abs_float (r -. 0.5) < 1e-9)
  | None -> Alcotest.fail "heap segment has traffic");
  (match S.segment_hit_ratio st "asr0" with
  | Some r -> check "asr0 still cold" true (r < 1e-9)
  | None -> Alcotest.fail "asr0 segment has traffic");
  check "untouched segment has no ratio" true
    (S.segment_hit_ratio st "asr99" = None)

let test_stats_in_segment_raise () =
  let st = S.create ~buffer_capacity:8 () in
  S.begin_op st;
  S.in_segment st "outer" (fun () ->
      (match S.in_segment st "inner" (fun () -> S.read st 1; raise Exit) with
      | () -> Alcotest.fail "the body's exception must propagate"
      | exception Exit -> ());
      S.read st 2);
  S.read st 3;
  check_int "the raising body's read" 1 (S.segment_accesses st "inner");
  check_int "outer segment restored after the raise" 1 (S.segment_accesses st "outer");
  check_int "top level restored" 1 (S.segment_accesses st "");
  (* A reset inside a segment keeps tallying into that segment. *)
  S.in_segment st "outer" (fun () ->
      S.reset st;
      S.read st 4);
  check_int "tallies cleared, then one read" 1 (S.segment_accesses st "outer");
  check_int "other segments cleared" 0 (S.segment_accesses st "inner")

(* --- Reclustering --- *)

let test_recluster_moves_and_occupancy () =
  let store, heap = heap_setup () in
  (* 8 Big objects (500B) per 4056B page: 20 objects over 3 pages. *)
  let objs = Array.of_list (List.init 20 (fun _ -> Gom.Store.new_object store "Big")) in
  let o_first = objs.(0) and o_last = objs.(19) in
  check "initially on different pages" true
    (H.page_of heap o_first <> H.page_of heap o_last);
  let outcome = H.recluster heap ~plan:[ [ o_first; o_last ] ] in
  check_int "considered" 2 outcome.H.rc_considered;
  check_int "moved" 2 outcome.H.rc_moved;
  check_int "one shared target page" 1 outcome.H.rc_target_pages;
  check "co-located after recluster" true
    (H.page_of heap o_first = H.page_of heap o_last);
  (* Occupancy, not bump areas, is the extent ground truth: the two
     source pages still hold survivors, plus the fresh target page. *)
  check_int "extent spans 4 pages now" 4 (H.pages_of_type heap "Big");
  let st = S.create () in
  S.begin_op st;
  H.scan_extent heap st "Big";
  check_int "scan touches occupancy pages" 4 (S.op_reads st);
  match H.recluster_progress heap with
  | Some (moved, planned) ->
    check_int "progress moved" 2 moved;
    check_int "progress planned" 2 planned
  | None -> Alcotest.fail "progress visible after a run"

let test_recluster_slices_and_abort () =
  let store, heap = heap_setup () in
  let objs = Array.of_list (List.init 20 (fun _ -> Gom.Store.new_object store "Big")) in
  let plan = [ [ objs.(0); objs.(10) ]; [ objs.(1); objs.(11) ] ] in
  let job = H.recluster_start ~slice:1 heap ~plan in
  check "job active" true (H.recluster_active heap);
  check "second start rejected" true
    (try ignore (H.recluster_start heap ~plan); false
     with Invalid_argument _ -> true);
  (match H.recluster_step job with
  | `More -> ()
  | `Done _ -> Alcotest.fail "4 moves at slice 1 need several steps");
  H.recluster_abort job;
  check "abort deactivates" false (H.recluster_active heap);
  (* The already-applied move stays; the rest of the plan was dropped. *)
  (match H.recluster_progress heap with
  | Some (moved, planned) ->
    check_int "one slice applied" 1 moved;
    check_int "planned recorded" 4 planned
  | None -> Alcotest.fail "progress visible after abort");
  (* A fresh job can start after the abort and runs to completion. *)
  let outcome = H.recluster heap ~plan:[ [ objs.(2); objs.(12) ] ] in
  check_int "post-abort job moves" 2 outcome.H.rc_moved

let test_recluster_skips_deleted_and_large () =
  let store, heap = heap_setup () in
  let small_a = Gom.Store.new_object store "Big" in
  let small_b = Gom.Store.new_object store "Big" in
  let doomed = Gom.Store.new_object store "Big" in
  (* A second type sized over a page: its objects span several pages and
     must never be moved. *)
  let s = Gom.Store.schema store in
  ignore s;
  let job = H.recluster_start ~slice:64 heap ~plan:[ [ small_a; small_b; doomed ] ] in
  Gom.Store.delete store doomed;
  (match H.recluster_step job with
  | `Done o ->
    check_int "deleted object skipped" 2 o.H.rc_moved;
    check_int "plan named three" 3 o.H.rc_considered
  | `More -> Alcotest.fail "single slice covers the plan");
  check "survivors co-located" true (H.page_of heap small_a = H.page_of heap small_b)

let test_recluster_large_objects_stay () =
  let store, heap = heap_setup ~size:10000 () in
  let a = Gom.Store.new_object store "Big" in
  let b = Gom.Store.new_object store "Big" in
  let p_a = H.page_of heap a in
  let outcome = H.recluster heap ~plan:[ [ a; b ] ] in
  check_int "multi-page objects never move" 0 outcome.H.rc_moved;
  check_int "placement untouched" p_a (H.page_of heap a);
  check_int "span untouched" 3 (H.span_of heap a)

let test_heap_delete_forgets () =
  let store, heap = heap_setup () in
  let o = Gom.Store.new_object store "Big" in
  Gom.Store.delete store o;
  check "placement dropped" true
    (try ignore (H.page_of heap o); false with Not_found -> true)

(* CI gates and [db status] read these keys by name: the list and its
   order are part of the interface. *)
let stats_json_keys =
  [
    "op_reads"; "op_writes"; "total_reads"; "total_writes"; "total_accesses";
    "logical_reads"; "logical_writes"; "buffer_hits"; "buffer_misses";
    "buffer_evictions"; "prefetched"; "prefetch_hits"; "buffer_hit_ratio";
    "buffer_capacity"; "scrubs"; "fallbacks"; "retries"; "deltas_buffered";
    "deltas_merged"; "deltas_annihilated"; "deltas_flushed"; "catchup_flushes";
    "shed"; "timed_out"; "breaker_open";
    "stale_epoch_served"; "frames_shipped"; "frames_applied"; "frames_dropped";
    "frames_retried"; "shard_grouped"; "shard_scatter";
  ]

let json_keys json =
  String.sub json 1 (String.length json - 2)
  |> String.split_on_char ','
  |> List.map (fun field -> List.nth (String.split_on_char '"' field) 1)

let test_stats_json_golden () =
  Alcotest.(check (list string))
    "zero summary keys" stats_json_keys
    (json_keys (S.summary_to_json S.zero));
  (* Counter [i] (in [S.counters] order) holds [i + 1]: pins which key
     each constructor prints under, byte for byte. *)
  let st = S.create ~buffer_capacity:4 () in
  S.begin_op st;
  S.read st 1;
  S.read st 2;
  S.write st 3;
  S.begin_op st;
  S.read st 1;
  List.iteri (fun i c -> S.add st c (i + 1)) S.counters;
  S.note_shard_grouped st;
  S.note_shard_scatter st;
  Alcotest.(check string)
    "counted summary"
    ({|{"op_reads": 0, "op_writes": 0, "total_reads": 2, "total_writes": 1, |}
   ^ {|"total_accesses": 3, "logical_reads": 3, "logical_writes": 1, |}
   ^ {|"buffer_hits": 1, "buffer_misses": 2, "buffer_evictions": 0, |}
   ^ {|"prefetched": 0, "prefetch_hits": 0, "buffer_hit_ratio": 0.3333, |}
   ^ {|"buffer_capacity": 4, "scrubs": 1, "fallbacks": 2, "retries": 3, |}
   ^ {|"deltas_buffered": 4, "deltas_merged": 5, "deltas_annihilated": 6, |}
   ^ {|"deltas_flushed": 7, "catchup_flushes": 8, |}
   ^ {|"shed": 9, "timed_out": 10, "breaker_open": 11, "stale_epoch_served": 12, |}
   ^ {|"frames_shipped": 13, "frames_applied": 14, "frames_dropped": 15, |}
   ^ {|"frames_retried": 16, "shard_grouped": 1, "shard_scatter": 1, "mode": "x"}|})
    (S.summary_to_json ~extra:[ ("mode", {|"x"|}) ] (S.snapshot st))

let suite =
  [
    Alcotest.test_case "config" `Quick test_config;
    Alcotest.test_case "stats distinct counting" `Quick test_stats_distinct_counting;
    Alcotest.test_case "buffer pool hits" `Quick test_buffer_pool_hits;
    Alcotest.test_case "buffer LRU order" `Quick test_buffer_lru_order;
    Alcotest.test_case "buffer write-through" `Quick test_buffer_write_through;
    Alcotest.test_case "buffer reset" `Quick test_buffer_reset;
    Alcotest.test_case "no buffer by default" `Quick test_no_buffer_by_default;
    Alcotest.test_case "heap packing" `Quick test_heap_packing;
    Alcotest.test_case "heap type clustering" `Quick test_heap_type_clustering;
    Alcotest.test_case "heap scans and reads" `Quick test_heap_scan_and_read;
    Alcotest.test_case "large objects span pages" `Quick test_heap_large_objects;
    Alcotest.test_case "deep extents" `Quick test_heap_deep_extent;
    Alcotest.test_case "deletion forgets placement" `Quick test_heap_delete_forgets;
    Alcotest.test_case "buffer clock second chance" `Quick test_buffer_clock_second_chance;
    Alcotest.test_case "buffer pin nesting" `Quick test_buffer_pin_nesting;
    Alcotest.test_case "buffer all-pinned overflow" `Quick test_buffer_all_pinned_overflows;
    Alcotest.test_case "buffer prefetch outcomes" `Quick test_buffer_prefetch_outcomes;
    Alcotest.test_case "buffer segment namespacing" `Quick test_buffer_segment_namespacing;
    Alcotest.test_case "stats prefetch accounting" `Quick test_stats_prefetch_accounting;
    Alcotest.test_case "stats segment hit ratio" `Quick test_stats_segment_hit_ratio;
    Alcotest.test_case "stats in_segment restores on raise" `Quick test_stats_in_segment_raise;
    Alcotest.test_case "stats JSON keys golden" `Quick test_stats_json_golden;
    Alcotest.test_case "recluster moves and occupancy" `Quick
      test_recluster_moves_and_occupancy;
    Alcotest.test_case "recluster slices and abort" `Quick test_recluster_slices_and_abort;
    Alcotest.test_case "recluster skips deleted" `Quick test_recluster_skips_deleted_and_large;
    Alcotest.test_case "recluster leaves large objects" `Quick
      test_recluster_large_objects_stay;
  ]
