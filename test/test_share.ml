(* Tests for section 5.4: sharing access support relation partitions
   between overlapping path expressions. *)

module A = Core.Asr
module D = Core.Decomposition
module X = Core.Extension
module V = Gom.Value

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The company schema extended with a second anchor type: FACTORYs also
   make ProdSETs, so Division.Manufactures.Composition.Name and
   Factory.Makes.Composition.Name share their Product->BasePart->Name
   tail. *)
let extended_base () =
  let s = Workload.Schemas.Company.schema () in
  let s = Gom.Schema.define_tuple s "Factory" [ ("City", "STRING"); ("Makes", "ProdSET") ] in
  let store = Gom.Store.create s in
  let part name price =
    let b = Gom.Store.new_object store "BasePart" in
    Gom.Store.set_attr store b "Name" (V.Str name);
    Gom.Store.set_attr store b "Price" (V.Dec price);
    b
  in
  let pset parts =
    let s = Gom.Store.new_object store "BasePartSET" in
    List.iter (fun x -> Gom.Store.insert_elem store s (V.Ref x)) parts;
    s
  in
  let product name comp =
    let p = Gom.Store.new_object store "Product" in
    Gom.Store.set_attr store p "Name" (V.Str name);
    Gom.Store.set_attr store p "Composition" (V.Ref comp);
    p
  in
  let prodset ps =
    let s = Gom.Store.new_object store "ProdSET" in
    List.iter (fun x -> Gom.Store.insert_elem store s (V.Ref x)) ps;
    s
  in
  let door = part "Door" 1205.5 in
  let wheel = part "Wheel" 99.9 in
  let car = product "Car" (pset [ door; wheel ]) in
  let bike = product "Bike" (pset [ wheel ]) in
  let division =
    let d = Gom.Store.new_object store "Division" in
    Gom.Store.set_attr store d "Name" (V.Str "Auto");
    Gom.Store.set_attr store d "Manufactures" (V.Ref (prodset [ car ]));
    d
  in
  let factory =
    let f = Gom.Store.new_object store "Factory" in
    Gom.Store.set_attr store f "City" (V.Str "Ulm");
    Gom.Store.set_attr store f "Makes" (V.Ref (prodset [ car; bike ]));
    f
  in
  let div_path =
    Gom.Path.make s "Division" [ "Manufactures"; "Composition"; "Name" ]
  in
  let fac_path = Gom.Path.make s "Factory" [ "Makes"; "Composition"; "Name" ] in
  (store, div_path, fac_path, division, factory, door, wheel)

let test_segment_keys () =
  let store, div_path, fac_path, _, _, _, _ = extended_base () in
  ignore store;
  (* Canonical never shares. *)
  check "canonical ineligible" true
    (A.segment_key div_path X.Canonical ~lo:2 ~hi:5 = None);
  (* Left-complete only shares complete prefixes. *)
  check "left needs lo=0" true (A.segment_key div_path X.Left_complete ~lo:2 ~hi:5 = None);
  check "left prefix eligible" true
    (A.segment_key div_path X.Left_complete ~lo:0 ~hi:2 <> None);
  (* Right-complete only shares complete suffixes. *)
  check "right needs hi=m" true
    (A.segment_key div_path X.Right_complete ~lo:0 ~hi:2 = None);
  check "right suffix eligible" true
    (A.segment_key div_path X.Right_complete ~lo:2 ~hi:5 <> None);
  (* The shared tail has the same key for both paths... *)
  check "tails share a key" true
    (A.segment_key div_path X.Full ~lo:2 ~hi:5 = A.segment_key fac_path X.Full ~lo:2 ~hi:5);
  (* ... but the heads differ (different anchor attribute). *)
  check "heads differ" true
    (A.segment_key div_path X.Full ~lo:0 ~hi:2 <> A.segment_key fac_path X.Full ~lo:0 ~hi:2)

let test_pool_reuses_partition () =
  let store, div_path, fac_path, _, _, _, _ = extended_base () in
  let pool = A.make_pool store in
  let dec = D.make ~m:5 [ 0; 2; 5 ] in
  let a1 = A.create ~pool store div_path X.Full dec in
  check_int "first relation registers both segments" 2 (A.pool_segment_count pool);
  let a2 = A.create ~pool store fac_path X.Full dec in
  (* Only the head is new: the (2,5) tail was found in the pool. *)
  check_int "second adds only its head" 3 (A.pool_segment_count pool);
  check_int "a1 fully pooled" 2 (A.shared_partition_count a1);
  check_int "a2 fully pooled" 2 (A.shared_partition_count a2);
  (* The shared partition holds the union of both projections and
     serves both relations' lookups. *)
  let p1 = A.partition_relation a1 1 in
  let p2 = A.partition_relation a2 1 in
  check "physically the same relation" true (Relation.equal p1 p2)

let test_shared_lookup_correct () =
  let store, div_path, fac_path, division, factory, door, wheel = extended_base () in
  ignore door;
  let pool = A.make_pool store in
  let dec = D.make ~m:5 [ 0; 2; 5 ] in
  let a1 = A.create ~pool store div_path X.Full dec in
  let a2 = A.create ~pool store fac_path X.Full dec in
  let heap = Storage.Heap.create ~size_of:(fun _ -> 100) store in
  let env = (Core.Exec.make store heap) in
  (* Backward query through each relation agrees with navigation. *)
  List.iter
    (fun (a, path, expect) ->
      let nav = Core.Exec.backward_scan env path ~i:0 ~j:3 ~target:(V.Str "Wheel") in
      let sup = Core.Exec.backward_supported env a ~i:0 ~j:3 ~target:(V.Str "Wheel") in
      check "nav = sup over shared partition" true (nav = sup);
      check "expected anchor found" true (List.mem expect nav))
    [ (a1, div_path, division); (a2, fac_path, factory) ];
  ignore wheel

let test_pool_saves_pages () =
  let store, div_path, fac_path, _, _, _, _ = extended_base () in
  let dec = D.make ~m:5 [ 0; 2; 5 ] in
  (* Unshared baseline. *)
  let u1 = A.create store div_path X.Full dec in
  let u2 = A.create store fac_path X.Full dec in
  let unshared = A.pool_total_pages [ u1; u2 ] in
  let pool = A.make_pool store in
  let s1 = A.create ~pool store div_path X.Full dec in
  let s2 = A.create ~pool store fac_path X.Full dec in
  let shared = A.pool_total_pages [ s1; s2 ] in
  check "sharing saves pages" true (shared < unshared);
  check "geometry reports sharing" true
    (List.exists (fun g -> g.A.shared) (A.geometry s1))

let agree a =
  let scratch = Core.Extension.compute (A.store a) (A.path a) (A.kind a) in
  Relation.equal scratch (A.extension_relation a)

let test_shared_maintenance () =
  let store, div_path, fac_path, _, factory, door, _ = extended_base () in
  let pool = A.make_pool store in
  let dec = D.make ~m:5 [ 0; 2; 5 ] in
  let a1 = A.create ~pool store div_path X.Full dec in
  let a2 = A.create ~pool store fac_path X.Full dec in
  let heap = Storage.Heap.create ~size_of:(fun _ -> 100) store in
  let mgr = Core.Maintenance.create (Core.Exec.make store heap) in
  Core.Maintenance.register mgr a1;
  Core.Maintenance.register mgr a2;
  (* Mutations in the shared tail affect both relations. *)
  let bike_comp =
    let prods = Gom.Store.get_attr store factory "Makes" in
    let bike =
      Gom.Store.elements store (V.oid_exn prods)
      |> List.map V.oid_exn
      |> List.find (fun p -> Gom.Store.get_attr store p "Name" = V.Str "Bike")
    in
    V.oid_exn (Gom.Store.get_attr store bike "Composition")
  in
  Gom.Store.insert_elem store bike_comp (V.Ref door);
  check "a1 consistent after shared-tail update" true (agree a1);
  check "a2 consistent after shared-tail update" true (agree a2);
  (* And a mutation in one head leaves the other correct too. *)
  Gom.Store.set_attr store factory "Makes" V.Null;
  check "a1 unaffected by a2's head" true (agree a1);
  check "a2 consistent after losing its head" true (agree a2);
  (* The shared partition still carries a1's tuples. *)
  let nav =
    Core.Exec.backward_scan (Core.Exec.make store heap) div_path ~i:0 ~j:3
      ~target:(V.Str "Door")
  in
  let sup = Core.Exec.backward_supported (Core.Exec.make store heap) a1 ~i:0 ~j:3 ~target:(V.Str "Door") in
  check "a1 lookups survive" true (nav = sup)

(* A relation stitched from partitions it shares holds only its own
   tuples.  A product without composition, made by the division, leaves
   a lone product in the shared Product.Composition partition: the long
   path reaches it, the short one (which starts at products) does not
   store it, and NULL-equality stitching would glue it to the shared
   all-NULL tails. *)
let test_stitched_sharers () =
  let store, div_path, _, division, _, door, _ = extended_base () in
  let short = Gom.Path.make (Gom.Store.schema store) "Product" [ "Composition"; "Name" ] in
  let pool = A.make_pool store in
  let a_long = A.create ~pool store div_path X.Full (D.binary ~m:5) in
  let a_short = A.create ~pool store short X.Full (D.binary ~m:3) in
  check "the tail is shared" true (A.shared_partition_count a_short > 0);
  let mgr =
    Core.Maintenance.create
      (Core.Exec.make store (Storage.Heap.create ~size_of:(fun _ -> 100) store))
  in
  Core.Maintenance.register mgr a_long;
  Core.Maintenance.register mgr a_short;
  let trak = Gom.Store.new_object store "Product" in
  let prods = V.oid_exn (Gom.Store.get_attr store division "Manufactures") in
  Gom.Store.insert_elem store prods (V.Ref trak);
  check "long path holds the lone product" true (agree a_long);
  check "short path stitches only its own tuples" true (agree a_short);
  Gom.Store.set_attr store trak "Composition"
    (V.Ref (Gom.Store.new_object store "BasePartSET"));
  Gom.Store.insert_elem store
    (V.oid_exn (Gom.Store.get_attr store trak "Composition"))
    (V.Ref door);
  check "both follow the new composition" true (agree a_long && agree a_short)

let test_refresh_preserves_sharers () =
  let store, div_path, fac_path, _, _, _, _ = extended_base () in
  let pool = A.make_pool store in
  let dec = D.make ~m:5 [ 0; 2; 5 ] in
  let a1 = A.create ~pool store div_path X.Full dec in
  let a2 = A.create ~pool store fac_path X.Full dec in
  let target = A.target a1 in
  for i = 0 to A.partition_count a1 - 1 do
    ignore (A.patch_partition target i)
  done;
  check "a1 correct after refresh" true (agree a1);
  check "a2 untouched by a1 refresh" true (agree a2);
  check "a2's partitions still serve" true
    (Relation.cardinal (A.partition_relation a2 1) > 0)

let test_pool_rejects_foreign_store () =
  let store, div_path, _, _, _, _, _ = extended_base () in
  let other = Gom.Store.create (Workload.Schemas.Company.schema ()) in
  let pool = A.make_pool other in
  check "foreign store rejected" true
    (try
       ignore (A.create ~pool store div_path X.Full (D.trivial ~m:5));
       false
     with Invalid_argument _ -> true)

module M = Core.Maintenance

(* Randomised: two full-extension relations with different
   decompositions share segments from one pool; after arbitrary
   mutations both must still match their from-scratch recomputations. *)
let prop_pooled_maintenance =
  let spec_gen =
    QCheck.Gen.(
      let* nn = int_range 1 3 in
      let* counts = list_repeat (nn + 1) (int_range 1 5) in
      let* defined =
        flatten_l
          (List.map (fun c -> int_range 0 c) (List.filteri (fun i _ -> i < nn) counts))
      in
      let* fan = list_repeat nn (int_range 1 3) in
      let* sv = flatten_l (List.map (fun f -> if f > 1 then return true else bool) fan) in
      let* seed = int_range 0 100000 in
      return (Workload.Generator.spec ~seed ~set_valued:sv ~counts ~defined ~fan ()))
  in
  QCheck.Test.make ~name:"pooled relations stay consistent under mutations" ~count:40
    QCheck.(pair (make ~print:(fun _ -> "<spec>") spec_gen) (pair small_int (int_bound 1000)))
    (fun (spec, (pick, ops_seed)) ->
      let store, path = Workload.Generator.build spec in
      let heap = Storage.Heap.create ~size_of:(Workload.Generator.size_of spec) store in
      let env = (Core.Exec.make store heap) in
      let mgr = Core.Maintenance.create env in
      let m = Gom.Path.arity path - 1 in
      let decs = D.all ~m in
      let d1 = List.nth decs (pick mod List.length decs) in
      let d2 = List.nth decs ((pick + 1) mod List.length decs) in
      let pool = A.make_pool store in
      let a1 = A.create ~pool store path X.Full d1 in
      let a2 = A.create ~pool store path X.Full d2 in
      M.register mgr a1;
      M.register mgr a2;
      let rng = Random.State.make [| ops_seed |] in
      let nn = Gom.Path.length path in
      let ok = ref true in
      for _ = 1 to 8 do
        if !ok then begin
          (* A simple mutation battery: rewire a random source. *)
          let level = Random.State.int rng nn in
          let step = Gom.Path.step path (level + 1) in
          let sources = Gom.Store.extent ~deep:true store step.Gom.Path.domain in
          let targets = Gom.Store.extent ~deep:true store step.Gom.Path.range in
          (match sources with
          | [] -> ()
          | _ -> (
            let src = List.nth sources (Random.State.int rng (List.length sources)) in
            match (Gom.Store.get_attr store src step.Gom.Path.attr, step.Gom.Path.set_type) with
            | V.Null, Some set_ty ->
              let s = Gom.Store.new_object store set_ty in
              Gom.Store.set_attr store src step.Gom.Path.attr (V.Ref s)
            | V.Null, None ->
              if targets <> [] then
                Gom.Store.set_attr store src step.Gom.Path.attr
                  (V.Ref (List.nth targets (Random.State.int rng (List.length targets))))
            | V.Ref s, Some _ ->
              if targets <> [] && Random.State.bool rng then
                Gom.Store.insert_elem store s
                  (V.Ref (List.nth targets (Random.State.int rng (List.length targets))))
              else (
                match Gom.Store.elements store s with
                | [] -> Gom.Store.set_attr store src step.Gom.Path.attr V.Null
                | e :: _ -> Gom.Store.remove_elem store s e)
            | V.Ref _, None -> Gom.Store.set_attr store src step.Gom.Path.attr V.Null
            | _, _ -> ()));
          if not (agree a1 && agree a2) then ok := false
        end
      done;
      !ok)

(* Two members of a pool reading one shared leaf read one page: on a
   buffered accountant the second member's scan finds the first's
   frames resident. *)
let test_shared_frames () =
  let store, div_path, fac_path, _, _, _, _ = extended_base () in
  let pool = A.make_pool store in
  let dec = D.make ~m:5 [ 0; 2; 5 ] in
  let a1 = A.create ~pool store div_path X.Full dec in
  let a2 = A.create ~pool store fac_path X.Full dec in
  check "partition 1 is the shared tail" true (A.partition_shared a1 1);
  let st = Storage.Stats.create ~buffer_capacity:8 () in
  Storage.Stats.begin_op st;
  let rows1 = A.scan_partition ~stats:st a1 1 in
  let misses = Storage.Stats.buffer_misses st in
  check "the first scan misses" true (misses >= 1);
  Storage.Stats.begin_op st;
  let rows2 = A.scan_partition ~stats:st a2 1 in
  check "same rows" true (rows1 = rows2);
  check_int "the second scan misses nothing" misses (Storage.Stats.buffer_misses st);
  check_int "the second scan hits every page" misses (Storage.Stats.buffer_hits st);
  check_int "one segment for the pool's members" (2 * misses)
    (Storage.Stats.segment_accesses st (A.seg a2));
  check "members report the pool's segment" true (A.seg a1 = A.seg a2)

let suite =
  [
    Alcotest.test_case "segment keys" `Quick test_segment_keys;
    Qc.to_alcotest prop_pooled_maintenance;
    Alcotest.test_case "pool reuses partitions" `Quick test_pool_reuses_partition;
    Alcotest.test_case "shared lookups correct" `Quick test_shared_lookup_correct;
    Alcotest.test_case "sharing saves pages" `Quick test_pool_saves_pages;
    Alcotest.test_case "maintenance through shared partitions" `Quick test_shared_maintenance;
    Alcotest.test_case "refresh preserves sharers" `Quick test_refresh_preserves_sharers;
    Alcotest.test_case "stitched sharers keep their own tuples" `Quick test_stitched_sharers;
    Alcotest.test_case "pool bound to one store" `Quick test_pool_rejects_foreign_store;
    Alcotest.test_case "pool members share frames" `Quick test_shared_frames;
  ]
