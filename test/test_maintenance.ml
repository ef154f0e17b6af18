(* Tests for Core.Maintenance: incremental ASR updates must agree with
   from-scratch recomputation after arbitrary object-base mutations. *)

module M = Core.Maintenance
module D = Core.Decomposition
module E = Core.Exec
module V = Gom.Value
module C = Workload.Schemas.Company

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let env_of spec store =
  let heap = Storage.Heap.create ~size_of:(Workload.Generator.size_of spec) store in
  (E.make store heap)

let company_setup kind dec =
  let b = C.base () in
  let heap = Storage.Heap.create ~size_of:(fun _ -> 100) b.C.store in
  let env = (E.make b.C.store heap) in
  let mgr = M.create env in
  let a = Core.Asr.create b.C.store (C.name_path b.C.store) kind dec in
  M.register mgr a;
  (b, mgr, a)

let agree a =
  let scratch =
    Core.Extension.compute (Core.Asr.store a) (Core.Asr.path a) (Core.Asr.kind a)
  in
  Relation.equal scratch (Core.Asr.extension_relation a)
  && List.for_all2
       (fun (lo, hi) i ->
         Relation.equal
           (D.project (Core.Asr.extension_relation a) (lo, hi))
           (Core.Asr.partition_relation a i))
       (D.partitions (Core.Asr.decomposition a))
       (List.init (Core.Asr.partition_count a) Fun.id)

let check_agree label a = check label true (agree a)

(* The column index answers every probe as a filter of the logical
   extension would, in the same order: every column, every value seen
   anywhere in the extension (absent ones included), and NULL. *)
let columns_agree a =
  let ext = Core.Asr.extension_relation a in
  let values =
    V.Null
    :: List.concat_map Array.to_list (Relation.to_list ext)
    |> List.sort_uniq V.compare
  in
  List.for_all
    (fun col ->
      List.for_all
        (fun v ->
          Core.Asr.find_by_column a ~col v
          = Relation.to_list (Relation.filter ext (fun tup -> V.equal tup.(col) v)))
        values)
    (List.init (Core.Asr.arity a) Fun.id)

(* The trees, not only the logical extension: an exhaustive scrub finds
   no missing or phantom projection, every projection carries exactly
   its multiplicity in the extension, and both redundant trees of every
   partition are well-formed and hold the same reference counts. *)
let trees_exact a =
  Integrity.Scrub.clean (Integrity.Scrub.run a)
  && List.for_all
       (fun i ->
         let lo, hi = Core.Asr.partition_bounds a i in
         let want = Hashtbl.create 64 in
         List.iter
           (fun tup ->
             let proj = Relation.Tuple.project tup (List.init (hi - lo + 1) (( + ) lo)) in
             let k = Relation.Tuple.to_string proj in
             let n = match Hashtbl.find_opt want k with Some (n, _) -> n | None -> 0 in
             Hashtbl.replace want k (n + 1, proj))
           (Relation.to_list (Core.Asr.extension_relation a));
         Core.Asr.check_partition a i = Ok ()
         && Hashtbl.fold
              (fun _ (n, proj) ok -> ok && Core.Asr.partition_refcount a i proj = n)
              want true)
       (List.init (Core.Asr.partition_count a) Fun.id)

let test_set_insert () =
  List.iter
    (fun kind ->
      let b, _mgr, a = company_setup kind (D.binary ~m:5) in
      (* ins: put mb_trak's missing composition in place, then extend an
         existing set. *)
      let parts = Gom.Store.new_object b.C.store "BasePartSET" in
      Gom.Store.set_attr b.C.store b.C.mb_trak "Composition" (V.Ref parts);
      check_agree (Core.Extension.name kind ^ ": attach empty set") a;
      Gom.Store.insert_elem b.C.store parts (V.Ref b.C.pepper);
      check_agree (Core.Extension.name kind ^ ": first element") a;
      Gom.Store.insert_elem b.C.store parts (V.Ref b.C.door);
      check_agree (Core.Extension.name kind ^ ": second element") a)
    Core.Extension.all

let test_set_remove () =
  List.iter
    (fun kind ->
      let b, _mgr, a = company_setup kind (D.binary ~m:5) in
      let sec_parts = V.oid_exn (Gom.Store.get_attr b.C.store b.C.sec560 "Composition") in
      Gom.Store.remove_elem b.C.store sec_parts (V.Ref b.C.door);
      check_agree (Core.Extension.name kind ^ ": remove last element") a)
    Core.Extension.all

let test_attr_assign () =
  List.iter
    (fun kind ->
      let b, _mgr, a = company_setup kind (D.make ~m:5 [ 0; 3; 5 ]) in
      (* Repoint a division to a different product set, then to NULL. *)
      let truck_ps = V.oid_exn (Gom.Store.get_attr b.C.store b.C.truck "Manufactures") in
      Gom.Store.set_attr b.C.store b.C.auto "Manufactures" (V.Ref truck_ps);
      check_agree (Core.Extension.name kind ^ ": repoint set attr") a;
      Gom.Store.set_attr b.C.store b.C.truck "Manufactures" V.Null;
      check_agree (Core.Extension.name kind ^ ": null set attr") a;
      (* And an atomic attribute at the end of the path. *)
      Gom.Store.set_attr b.C.store b.C.door "Name" (V.Str "Hatch");
      check_agree (Core.Extension.name kind ^ ": rename base part") a)
    Core.Extension.all

let test_delete_object () =
  List.iter
    (fun kind ->
      let b, _mgr, a = company_setup kind (D.binary ~m:5) in
      Gom.Store.delete b.C.store b.C.sec560;
      check_agree (Core.Extension.name kind ^ ": delete shared product") a;
      Gom.Store.delete b.C.store b.C.door;
      check_agree (Core.Extension.name kind ^ ": delete base part") a)
    Core.Extension.all

let test_multiple_asrs_one_store () =
  let b = C.base () in
  let heap = Storage.Heap.create ~size_of:(fun _ -> 100) b.C.store in
  let env = (E.make b.C.store heap) in
  let mgr = M.create env in
  let path = C.name_path b.C.store in
  let asrs =
    List.map
      (fun kind ->
        let a = Core.Asr.create b.C.store path kind (D.binary ~m:5) in
        M.register mgr a;
        a)
      Core.Extension.all
  in
  check_int "registered" 4 (List.length (M.asrs mgr));
  let parts = Gom.Store.new_object b.C.store "BasePartSET" in
  Gom.Store.insert_elem b.C.store parts (V.Ref b.C.pepper);
  Gom.Store.set_attr b.C.store b.C.mb_trak "Composition" (V.Ref parts);
  List.iter (check_agree "all kinds stay in sync") asrs

let test_distinct_paths_one_store () =
  (* Two different path expressions over one base: an update on their
     shared middle segment must keep both consistent, and an update
     outside a path must leave that path's relation untouched. *)
  let b = C.base () in
  let store = b.C.store in
  let heap = Storage.Heap.create ~size_of:(fun _ -> 100) store in
  let mgr = M.create (E.make store heap) in
  let long = C.name_path store in
  let short = Gom.Path.make (Gom.Store.schema store) "Product" [ "Composition"; "Price" ] in
  let a_long = Core.Asr.create store long Core.Extension.Full (D.binary ~m:5) in
  let a_short = Core.Asr.create store short Core.Extension.Full (D.binary ~m:3) in
  M.register mgr a_long;
  M.register mgr a_short;
  let agree a path kind =
    Relation.equal (Core.Extension.compute store path kind) (Core.Asr.extension_relation a)
  in
  (* Shared segment: Composition membership. *)
  let sec_parts = V.oid_exn (Gom.Store.get_attr store b.C.sec560 "Composition") in
  Gom.Store.insert_elem store sec_parts (V.Ref b.C.pepper);
  check "long path consistent" true (agree a_long long Core.Extension.Full);
  check "short path consistent" true (agree a_short short Core.Extension.Full);
  (* Only on the long path: Division.Manufactures. *)
  Gom.Store.set_attr store b.C.truck "Manufactures" V.Null;
  check "long path follows" true (agree a_long long Core.Extension.Full);
  check "short path follows trivially" true (agree a_short short Core.Extension.Full);
  (* Only on the short path: Price. *)
  Gom.Store.set_attr store b.C.door "Price" (V.Dec 7.0);
  check "short path reflects price" true (agree a_short short Core.Extension.Full);
  check "long path unaffected by price" true (agree a_long long Core.Extension.Full)

let test_maintenance_charges_pages () =
  List.iter
    (fun (kind, expect_cheap) ->
      let b, mgr, _ = company_setup kind (D.binary ~m:5) in
      let sec_parts = V.oid_exn (Gom.Store.get_attr b.C.store b.C.sec560 "Composition") in
      Gom.Store.insert_elem b.C.store sec_parts (V.Ref b.C.pepper);
      let cost = M.last_event_cost mgr in
      check (Core.Extension.name kind ^ ": update touched pages") true (cost > 0);
      (* Canonical and right-complete need backward searches in the
         data; on this tiny base everything is a handful of pages, so we
         only check the qualitative ordering elsewhere. *)
      ignore expect_cheap)
    [ (Core.Extension.Full, true); (Core.Extension.Canonical, false) ]

(* Section 6.1: inserting an edge into a set adds only the paths through
   the new edge.  One event must write exactly the extension's symmetric
   difference — one buffered delta per changed tuple and partition, and
   nothing that a later delta of the same event cancels. *)
let test_event_writes_only_difference () =
  List.iter
    (fun kind ->
      let b, mgr, a = company_setup kind (D.binary ~m:5) in
      M.set_policy mgr M.On_query;
      let st = M.stats mgr in
      let count c = Storage.Stats.count st c in
      let buffered0 = count Storage.Stats.Deltas_buffered in
      let annihilated0 = count Storage.Stats.Deltas_annihilated in
      let before = Core.Asr.extension_relation a in
      let sec_parts = V.oid_exn (Gom.Store.get_attr b.C.store b.C.sec560 "Composition") in
      Gom.Store.insert_elem b.C.store sec_parts (V.Ref b.C.pepper);
      let after = Core.Asr.extension_relation a in
      let minus x y = Relation.cardinal (Relation.filter x (fun t -> not (Relation.mem y t))) in
      let changed = minus before after + minus after before in
      let name = Core.Extension.name kind in
      check (name ^ ": the event changes the extension") true (changed > 0);
      check_int (name ^ ": deltas buffered")
        (changed * Core.Asr.partition_count a)
        (count Storage.Stats.Deltas_buffered - buffered0);
      check_int (name ^ ": deltas annihilated") 0
        (count Storage.Stats.Deltas_annihilated - annihilated0);
      ignore (M.flush_all mgr);
      check_agree (name ^ ": flushed trees agree") a;
      check (name ^ ": flushed trees exact") true (trees_exact a))
    Core.Extension.all

(* --- randomised scenario: arbitrary mutation sequences ------------- *)

type op = Insert | Remove | Assign | AssignNull | Delete

let apply_random_op rng store path =
  let nn = Gom.Path.length path in
  let level = Random.State.int rng nn in
  let step = Gom.Path.step path (level + 1) in
  let sources = Gom.Store.extent ~deep:true store step.Gom.Path.domain in
  let targets = Gom.Store.extent ~deep:true store step.Gom.Path.range in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  if sources = [] then ()
  else
    let src = pick sources in
    let op =
      match Random.State.int rng 10 with
      | 0 | 1 | 2 -> Insert
      | 3 | 4 -> Remove
      | 5 | 6 -> Assign
      | 7 -> AssignNull
      | _ -> Delete
    in
    match (op, step.Gom.Path.set_type) with
    | Delete, _ ->
      (* Delete a random target-level object (keeps at least one). *)
      if List.length targets > 1 then Gom.Store.delete store (pick targets)
    | (Insert | Remove | Assign), Some set_ty -> (
      match Gom.Store.get_attr store src step.Gom.Path.attr with
      | V.Null ->
        let s = Gom.Store.new_object store set_ty in
        Gom.Store.set_attr store src step.Gom.Path.attr (V.Ref s);
        if targets <> [] && Random.State.bool rng then
          Gom.Store.insert_elem store s (V.Ref (pick targets))
      | v -> (
        let s = V.oid_exn v in
        match op with
        | Insert -> if targets <> [] then Gom.Store.insert_elem store s (V.Ref (pick targets))
        | Remove -> (
          match Gom.Store.elements store s with
          | [] -> ()
          | elems -> Gom.Store.remove_elem store s (pick elems))
        | Assign | AssignNull | Delete ->
          Gom.Store.set_attr store src step.Gom.Path.attr V.Null))
    | (Insert | Assign), None ->
      if targets <> [] then
        Gom.Store.set_attr store src step.Gom.Path.attr (V.Ref (pick targets))
    | (Remove | AssignNull), None | AssignNull, Some _ ->
      Gom.Store.set_attr store src step.Gom.Path.attr V.Null

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

let prop_incremental_equals_scratch =
  QCheck.Test.make
    ~name:"incremental maintenance = scratch recomputation (random mutations)"
    ~count:(Qc.iters_env "ASR_MAINT_COUNT" 80)
    QCheck.(
      pair
        (make ~print:(fun _ -> "<spec>") spec_gen)
        (pair (int_bound 3) (pair small_int (int_bound 1000))))
    (fun (spec, (kind_idx, (pick, ops_seed))) ->
      let store, path = Workload.Generator.build spec in
      let env = env_of spec store in
      let mgr = M.create env in
      let kind = List.nth Core.Extension.all kind_idx in
      let m = Gom.Path.arity path - 1 in
      let decs = D.all ~m in
      let dec = List.nth decs (pick mod List.length decs) in
      (* Small pages, so that partitions span several leaves. *)
      let config = Storage.Config.make ~page_size:256 () in
      let a = Core.Asr.create ~config store path kind dec in
      M.register mgr a;
      let rng = Random.State.make [| ops_seed |] in
      let ok = ref true in
      for _ = 1 to 12 do
        if !ok then begin
          apply_random_op rng store path;
          if not (agree a && trees_exact a && columns_agree a) then ok := false
        end
      done;
      !ok)

(* Soak: a mid-sized base, four pooled relations of all kinds plus a
   second path, 60 random mutations; everything must stay consistent. *)
let test_soak () =
  let spec =
    Workload.Generator.spec ~seed:99
      ~counts:[ 60; 120; 240; 480 ]
      ~defined:[ 55; 110; 220 ]
      ~fan:[ 2; 2; 2 ] ()
  in
  let store, path = Workload.Generator.build spec in
  let env = env_of spec store in
  let mgr = M.create env in
  let m = Gom.Path.arity path - 1 in
  let pool = Core.Asr.make_pool store in
  let asrs =
    List.map
      (fun kind ->
        let a = Core.Asr.create ~pool store path kind (D.binary ~m) in
        M.register mgr a;
        a)
      Core.Extension.all
  in
  let short = Gom.Path.make (Gom.Store.schema store) "T1" [ "A2" ] in
  let a_short =
    Core.Asr.create store short Core.Extension.Full
      (D.trivial ~m:(Gom.Path.arity short - 1))
  in
  M.register mgr a_short;
  let rng = Random.State.make [| 2026 |] in
  for step = 1 to 60 do
    apply_random_op rng store path;
    if step mod 15 = 0 then
      List.iter
        (fun a -> check (Printf.sprintf "soak step %d" step) true (agree a))
        (a_short :: asrs)
  done;
  List.iter (fun a -> check "soak final" true (agree a)) (a_short :: asrs)

let suite =
  [
    Alcotest.test_case "set insert" `Quick test_set_insert;
    Alcotest.test_case "soak: pooled kinds + second path" `Slow test_soak;
    Alcotest.test_case "set remove" `Quick test_set_remove;
    Alcotest.test_case "attribute assignment" `Quick test_attr_assign;
    Alcotest.test_case "object deletion" `Quick test_delete_object;
    Alcotest.test_case "several ASRs, one store" `Quick test_multiple_asrs_one_store;
    Alcotest.test_case "distinct paths, one store" `Quick test_distinct_paths_one_store;
    Alcotest.test_case "maintenance charges pages" `Quick test_maintenance_charges_pages;
    Alcotest.test_case "one event writes only its difference" `Quick
      test_event_writes_only_difference;
    Qc.to_alcotest prop_incremental_equals_scratch;
  ]
