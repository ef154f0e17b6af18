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

let test_lookup_fwd_bwd () =
  let b, a = mk ~kind:Core.Extension.Canonical ~dec:(D.trivial ~m:5) () in
  let rows = A.lookup_fwd a 0 (V.Ref b.C.truck) in
  check_int "truck leads to one complete tuple" 1 (List.length rows);
  let rows = A.lookup_bwd a 0 (V.Str "Door") in
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
  check "remove truck tuple" true (A.remove_tuple a row_truck);
  check "extension shrank" true (not (Relation.mem (A.extension_relation a) row_truck));
  let p25 = A.partition_relation a 1 in
  check "shared projection kept" true
    (Relation.mem p25 [| V.Ref b.C.sec560; V.Ref sec_parts; V.Ref b.C.door; V.Str "Door" |]);
  check "remove auto tuple" true (A.remove_tuple a row_auto);
  let p25 = A.partition_relation a 1 in
  check_int "projection gone with last owner" 0 (Relation.cardinal p25);
  (* Reinsert and check idempotence. *)
  check "insert back" true (A.insert_tuple a row_auto);
  check "duplicate insert refused" false (A.insert_tuple a row_auto);
  check_int "cardinal" 1 (A.cardinal a);
  check "remove unknown refused" false (A.remove_tuple a row_truck)

let test_find_by_column () =
  let b, a = mk ~kind:Core.Extension.Full ~dec:(D.make ~m:5 [ 0; 3; 5 ]) () in
  let hits = A.find_by_column a ~col:2 (V.Ref b.C.sec560) in
  check_int "sec560 appears in two tuples" 2 (List.length hits);
  let stats = Storage.Stats.create () in
  Storage.Stats.begin_op stats;
  let hits2 = A.find_by_column ~stats a ~col:2 (V.Ref b.C.sec560) in
  check "same result with stats" true (hits = hits2);
  (* Column 2 is interior to partition (0,3): a scan is charged. *)
  check "pages charged" true (Storage.Stats.op_reads stats >= 1)

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
  (* Every column probed once, so each has its column index. *)
  let probe () =
    let ext = A.extension_relation a in
    List.for_all
      (fun col ->
        List.for_all
          (fun v ->
            A.find_by_column a ~col v
            = Relation.to_list (Relation.filter ext (fun tup -> V.equal tup.(col) v)))
          (V.Ref b.C.mb_trak :: List.map (fun tup -> tup.(col)) (Relation.to_list ext)))
      (List.init (A.arity a) Fun.id)
  in
  check "probes before" true (probe ());
  (* Mutate the base behind the ASR's back, then refresh. *)
  Gom.Store.set_attr b.C.store b.C.mb_trak "Composition"
    (V.Ref (V.oid_exn (Gom.Store.get_attr b.C.store b.C.sec560 "Composition")));
  A.refresh a;
  check_int "new complete paths appear" 3 (A.cardinal a);
  let expected = Core.Extension.compute b.C.store (A.path a) Core.Extension.Canonical in
  check "matches scratch recompute" true (Relation.equal expected (A.extension_relation a));
  check "probes see the refreshed extension" true (probe ())

let suite =
  [
    Alcotest.test_case "mismatched decomposition rejected" `Quick test_create_mismatched_dec;
    Alcotest.test_case "partitions are projections" `Quick test_partitions_are_projections;
    Alcotest.test_case "forward/backward lookups" `Quick test_lookup_fwd_bwd;
    Alcotest.test_case "supports dispatch" `Quick test_supports_dispatch;
    Alcotest.test_case "insert/remove with refcounts" `Quick test_insert_remove_refcounts;
    Alcotest.test_case "find_by_column" `Quick test_find_by_column;
    Alcotest.test_case "geometry" `Quick test_geometry;
    Alcotest.test_case "refresh" `Quick test_refresh;
  ]
