(* Tests for Core.Asr: materialisation, partition trees, lookups,
   reference-counted projections, and tuple-level updates. *)

module A = Core.Asr
module D = Core.Decomposition
module V = Gom.Value
module C = Workload.Schemas.Company

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk ?(kind = Core.Extension.Full) ?dec () =
  let b = C.base () in
  let path = C.name_path b.C.store in
  let dec = match dec with Some d -> d | None -> D.binary ~m:5 in
  let a = A.create b.C.store path kind dec in
  (b, a)

let test_create_mismatched_dec () =
  let b = C.base () in
  let path = C.name_path b.C.store in
  check "wrong arity rejected" true
    (try
       ignore (A.create b.C.store path Core.Extension.Full (D.binary ~m:3));
       false
     with Invalid_argument _ -> true)

let test_partitions_are_projections () =
  List.iter
    (fun kind ->
      let _, a = mk ~kind () in
      let ext = A.extension_relation a in
      List.iteri
        (fun i (lo, hi) ->
          let expected = D.project ext (lo, hi) in
          check
            (Printf.sprintf "%s partition %d" (Core.Extension.name kind) i)
            true
            (Relation.equal expected (A.partition_relation a i)))
        (D.partitions (A.decomposition a)))
    Core.Extension.all

let test_lookup_both_trees () =
  let b, a = mk ~kind:Core.Extension.Canonical ~dec:(D.trivial ~m:5) () in
  let one ~fwd key = A.lookup a 0 ~fwd [ key ] key in
  let rows = one ~fwd:true (V.Ref b.C.truck) in
  check_int "truck leads to one complete tuple" 1 (List.length rows);
  let rows = one ~fwd:false (V.Str "Door") in
  check_int "Door reached by two divisions" 2 (List.length rows)

let test_supports_dispatch () =
  let _, a = mk ~kind:Core.Extension.Left_complete () in
  check "left supports (0,2)" true (A.supports a ~i:0 ~j:2);
  check "left rejects (1,3)" false (A.supports a ~i:1 ~j:3)

let test_insert_remove_refcounts () =
  let b, a = mk ~kind:Core.Extension.Canonical ~dec:(D.make ~m:5 [ 0; 2; 5 ]) () in
  let store = b.C.store in
  let truck_ps = V.oid_exn (Gom.Store.get_attr store b.C.truck "Manufactures") in
  let sec_parts = V.oid_exn (Gom.Store.get_attr store b.C.sec560 "Composition") in
  let auto_ps = V.oid_exn (Gom.Store.get_attr store b.C.auto "Manufactures") in
  let row_truck =
    [| V.Ref b.C.truck; V.Ref truck_ps; V.Ref b.C.sec560; V.Ref sec_parts;
       V.Ref b.C.door; V.Str "Door" |]
  in
  let row_auto =
    [| V.Ref b.C.auto; V.Ref auto_ps; V.Ref b.C.sec560; V.Ref sec_parts;
       V.Ref b.C.door; V.Str "Door" |]
  in
  check_int "two tuples initially" 2 (A.cardinal a);
  (* Both tuples share the (sec560, ..., "Door") projection in partition
     (2,5); removing one must keep the shared partition row. *)
  (* A difference is buffered; the flush writes it into the trees that
     [partition_relation] reads. *)
  let written n =
    ignore (A.flush a : int);
    n
  in
  let remove tup = written (A.apply_delta a ~remove:[ tup ] ~add:[]) in
  let insert tup = written (A.apply_delta a ~remove:[] ~add:[ tup ]) in
  check_int "remove truck tuple" 1 (remove row_truck);
  check "extension shrank" true (not (Relation.mem (A.extension_relation a) row_truck));
  let p25 = A.partition_relation a 1 in
  check "shared projection kept" true
    (Relation.mem p25 [| V.Ref b.C.sec560; V.Ref sec_parts; V.Ref b.C.door; V.Str "Door" |]);
  check_int "remove auto tuple" 1 (remove row_auto);
  let p25 = A.partition_relation a 1 in
  check_int "projection gone with last owner" 0 (Relation.cardinal p25);
  check_int "insert back" 1 (insert row_auto);
  check_int "cardinal" 1 (A.cardinal a);
  check "reinserted tuple stitched" true (Relation.mem (A.extension_relation a) row_auto);
  check "removed tuple absent" false (Relation.mem (A.extension_relation a) row_truck)

(* The tuple-carrying walk reads whole partial paths from the
   partitions: forward from sec560 its suffixes, backward its prefixes,
   each what the extension holds through it, at the page cost of the
   walk. *)
let test_paths () =
  let b, a = mk ~kind:Core.Extension.Full ~dec:(D.make ~m:5 [ 0; 3; 5 ]) () in
  let ext = Relation.to_list (A.extension_relation a) in
  let through = List.filter (fun (tup : Relation.Tuple.t) -> V.equal tup.(2) (V.Ref b.C.sec560)) ext in
  check_int "sec560 appears in two tuples" 2 (List.length through);
  let side lo hi =
    List.sort_uniq Relation.Tuple.compare
      (List.map (fun (tup : Relation.Tuple.t) -> Array.sub tup lo (hi - lo + 1)) through)
  in
  let env = Core.Exec.make b.C.store (Storage.Heap.create ~size_of:(fun _ -> 100) b.C.store) in
  let read dir ~i ~j =
    Core.Exec.paths env a
      ~lookup:(A.probe ~stats:env.Core.Exec.stats a ~fwd:(dir = Core.Exec.Fwd))
      ~scan:(A.probe_scan ~stats:env.Core.Exec.stats a)
      dir ~i ~j (V.Ref b.C.sec560)
  in
  Storage.Stats.begin_op env.Core.Exec.stats;
  check "suffixes" true (read Core.Exec.Fwd ~i:1 ~j:3 = side 2 5);
  (* Column 2 is interior to partition (0,3): a scan is charged. *)
  check "pages charged" true (Storage.Stats.op_reads env.Core.Exec.stats >= 1);
  check "prefixes" true (read Core.Exec.Bwd ~i:0 ~j:1 = side 0 2);
  check "absent probe" true
    (Core.Exec.paths env a ~lookup:(A.probe a ~fwd:true)
       ~scan:(A.probe_scan a) Core.Exec.Fwd ~i:1 ~j:3 (V.Ref (Gom.Oid.of_int 999999))
    = [])

let test_geometry () =
  let _, a = mk ~kind:Core.Extension.Full () in
  let gs = A.geometry a in
  check_int "five binary partitions" 5 (List.length gs);
  List.iter
    (fun (g : A.part_geometry) ->
      check "tuple bytes = 2 oids" true (g.A.tuple_bytes = 16);
      check "pages >= 1" true (g.A.leaf_pages >= 1 && g.A.height >= 1))
    gs;
  check "total pages sane" true (A.total_pages a >= 10)

let test_refresh () =
  let b, a = mk ~kind:Core.Extension.Canonical () in
  (* Mutate the base behind the ASR's back, then refresh by patching
     every partition to the base. *)
  Gom.Store.set_attr b.C.store b.C.mb_trak "Composition"
    (V.Ref (V.oid_exn (Gom.Store.get_attr b.C.store b.C.sec560 "Composition")));
  let target = A.target a in
  for i = 0 to A.partition_count a - 1 do
    ignore (A.patch_partition target i)
  done;
  check_int "new complete paths appear" 3 (A.cardinal a);
  let expected = Core.Extension.compute b.C.store (A.path a) Core.Extension.Canonical in
  check "matches scratch recompute" true (Relation.equal expected (A.extension_relation a))

(* A heap page and a tree page are different pages even when both are
   their pager's first: within one operation an extent scan and a
   partition scan are charged the sum of what each is charged alone. *)
let test_heap_and_tree_pages_distinct () =
  let b, a = mk () in
  (* One object a page, and every type's extent: the heap's pages from
     its first up, as the partition's come from its pager's first. *)
  let heap = Storage.Heap.create ~size_of:(fun _ -> 4056) b.C.store in
  let types =
    Gom.Store.fold_objects b.C.store ~init:[] ~f:(fun acc inst ->
        let ty = Gom.Instance.ty inst in
        if List.mem ty acc then acc else ty :: acc)
  in
  let st = Storage.Stats.create () in
  let charged f =
    Storage.Stats.begin_op st;
    f ();
    Storage.Stats.op_reads st
  in
  let extent () = List.iter (Storage.Heap.scan_extent heap st) types in
  let partition () = ignore (A.scan_partition ~stats:st a 0) in
  let e = charged extent and p = charged partition in
  check "the extents span pages" true (e >= 2);
  check "the partition has a page" true (p >= 1);
  check_int "both in one operation" (e + p)
    (charged (fun () ->
         extent ();
         partition ()))

let suite =
  [
    Alcotest.test_case "mismatched decomposition rejected" `Quick test_create_mismatched_dec;
    Alcotest.test_case "partitions are projections" `Quick test_partitions_are_projections;
    Alcotest.test_case "forward/backward lookups" `Quick test_lookup_both_trees;
    Alcotest.test_case "supports dispatch" `Quick test_supports_dispatch;
    Alcotest.test_case "insert/remove with refcounts" `Quick test_insert_remove_refcounts;
    Alcotest.test_case "paths through the partitions" `Quick test_paths;
    Alcotest.test_case "geometry" `Quick test_geometry;
    Alcotest.test_case "refresh" `Quick test_refresh;
    Alcotest.test_case "heap and tree pages count apart" `Quick
      test_heap_and_tree_pages_distinct;
  ]
