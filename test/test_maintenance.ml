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

(* The trees hold exactly the extensions: an exhaustive scrub finds no
   missing or phantom projection, every projection carries exactly its
   multiplicity in a from-scratch recomputation, and both redundant
   trees of every partition are well-formed and hold the same reference
   counts.  A partition drawn from a sharing pool carries the summed
   multiplicities of every partition (of any of [asrs]) with its segment
   key, and no other projection. *)
let trees_exact_all asrs =
  let segments = Hashtbl.create 16 in
  List.iter
    (fun a ->
      let truth =
        Relation.to_list
          (Core.Asr.restrict a
             (Core.Extension.compute (Core.Asr.store a) (Core.Asr.path a) (Core.Asr.kind a)))
      in
      for i = 0 to Core.Asr.partition_count a - 1 do
        let lo, hi = Core.Asr.partition_bounds a i in
        let key =
          if Core.Asr.partition_shared a i then
            Option.get (Core.Asr.segment_key (Core.Asr.path a) (Core.Asr.kind a) ~lo ~hi)
          else Printf.sprintf "asr%d/%d" (Core.Asr.id a) i
        in
        let want =
          match Hashtbl.find_opt segments key with
          | Some (_, _, want) -> want
          | None ->
            let want = Hashtbl.create 64 in
            Hashtbl.replace segments key (a, i, want);
            want
        in
        List.iter
          (fun tup ->
            let proj = Relation.Tuple.project tup (List.init (hi - lo + 1) (( + ) lo)) in
            let k = Relation.Tuple.to_string proj in
            let n = match Hashtbl.find_opt want k with Some (n, _) -> n | None -> 0 in
            Hashtbl.replace want k (n + 1, proj))
          truth
      done)
    asrs;
  List.for_all (fun a -> Integrity.Scrub.clean (Integrity.Scrub.run a)) asrs
  && Hashtbl.fold
       (fun _ (a, i, want) ok ->
         ok
         && Core.Asr.check_partition a i = Ok ()
         && Hashtbl.fold
              (fun _ (n, proj) ok -> ok && Core.Asr.partition_refcount a i proj = n)
              want true
         && List.for_all
              (fun proj -> Hashtbl.mem want (Relation.Tuple.to_string proj))
              (Relation.to_list (Core.Asr.partition_relation a i)))
       segments true

let trees_exact a = trees_exact_all [ a ]

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
   nothing that a later delta of the same event cancels — under every
   policy, since all of them buffer the same difference.  Write-through
   flushes it before the event returns; on-query only when asked. *)
let test_event_writes_only_difference () =
  List.iter
    (fun policy ->
      List.iter
        (fun kind ->
          let b, mgr, a = company_setup kind (D.binary ~m:5) in
          M.set_policy mgr policy;
          let st = M.stats mgr in
          let count c = Storage.Stats.count st c in
          let buffered0 = count Storage.Stats.Deltas_buffered in
          let annihilated0 = count Storage.Stats.Deltas_annihilated in
          let merged0 = count Storage.Stats.Deltas_merged in
          let flushed0 = count Storage.Stats.Deltas_flushed in
          let before = Core.Asr.extension_relation a in
          let sec_parts = V.oid_exn (Gom.Store.get_attr b.C.store b.C.sec560 "Composition") in
          Gom.Store.insert_elem b.C.store sec_parts (V.Ref b.C.pepper);
          let after = Core.Asr.extension_relation a in
          let minus x y =
            Relation.cardinal (Relation.filter x (fun t -> not (Relation.mem y t)))
          in
          let changed = minus before after + minus after before in
          let name = M.policy_to_string policy ^ " " ^ Core.Extension.name kind in
          let buffered = count Storage.Stats.Deltas_buffered - buffered0 in
          check (name ^ ": the event changes the extension") true (changed > 0);
          check_int (name ^ ": deltas buffered") (changed * Core.Asr.partition_count a) buffered;
          check_int (name ^ ": deltas annihilated") 0
            (count Storage.Stats.Deltas_annihilated - annihilated0);
          if policy = M.Immediate then begin
            (* Changed tuples that agree on a partition's columns merge
               into one net delta there; each net is flushed once. *)
            check_int (name ^ ": nothing left pending") 0 (M.pending mgr);
            check_int (name ^ ": every net delta flushed")
              (buffered - (count Storage.Stats.Deltas_merged - merged0))
              (count Storage.Stats.Deltas_flushed - flushed0)
          end
          else ignore (M.flush_all mgr);
          check_agree (name ^ ": flushed trees agree") a;
          check (name ^ ": flushed trees exact") true (trees_exact a))
        Core.Extension.all)
    [ M.On_query; M.Immediate ]

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
          if not (agree a && trees_exact a) then ok := false
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

(* --- edge cases of edge-local deltas -------------------------------- *)

(* Nodes that hold sets and lists of nodes (possibly shared, possibly
   holding themselves, a list possibly holding one node twice), point to
   a next node and end in elementary values, so that one event can
   match two positions of a path, one set can have two holders, and a
   path can end in an atomic attribute or a set of atomic values. *)
let edge_schema () =
  let module S = Gom.Schema in
  let s = S.define_forward S.empty "Node" in
  let s = S.define_forward s "NodeSet" in
  let s = S.define_forward s "NodeList" in
  let s = S.define_set s "TagSet" "STRING" in
  let s =
    S.define_tuple s "Node"
      [
        ("kids", "NodeSet"); ("line", "NodeList"); ("next", "Node"); ("label", "STRING");
        ("tags", "TagSet");
      ]
  in
  let s = S.define_list s "NodeList" "Node" in
  S.define_set s "NodeSet" "Node"

let edge_paths schema =
  [
    Gom.Path.make schema "Node" [ "kids"; "kids"; "label" ];
    Gom.Path.make schema "Node" [ "next"; "kids"; "tags" ];
    Gom.Path.make schema "Node" [ "next"; "next"; "label" ];
    Gom.Path.make schema "Node" [ "line"; "line"; "label" ];
  ]

(* How the relations of a rig are laid out: each on its own trees, as
   the fragments of a 2-shard placement, or all drawing their partitions
   from one sharing pool (section 5.4), so that relations of one kind
   over one path share segments, and so do paths with common steps. *)
type layout =
  | Plain
  | Fragments
  | Pooled

(* Every kind over every path, binary and split once after column 2,
   maintained by one manager under [policy], laid out as [layout] over
   the one store. *)
let edge_rig ~policy ~layout store =
  let heap = Storage.Heap.create ~size_of:(fun _ -> 100) store in
  let mgr = M.create (E.make store heap) in
  let config = Storage.Config.make ~page_size:256 () in
  let owners =
    if layout = Fragments then
      let p = Shard.Placement.make 2 in
      [ Some (Shard.Placement.owner_pred p 0); Some (Shard.Placement.owner_pred p 1) ]
    else [ None ]
  in
  let pool =
    if layout = Pooled then Some (Core.Asr.make_pool ~config store) else None
  in
  let asrs =
    List.concat_map
      (fun path ->
        let m = Gom.Path.arity path - 1 in
        List.concat_map
          (fun dec ->
            List.concat_map
              (fun kind ->
                List.map
                  (fun owner ->
                    let a = Core.Asr.create ~config ?pool ?owner store path kind dec in
                    M.register mgr a;
                    a)
                  owners)
              Core.Extension.all)
          [ D.binary ~m; D.make ~m [ 0; 2; m ] ])
      (edge_paths (Gom.Store.schema store))
  in
  M.set_policy mgr policy;
  (mgr, asrs)

(* The stitched trees equal a from-scratch recomputation (restricted to
   the fragment) and, where [exact], every partition's reference counts
   equal the projection multiplicities (after a scrub, which flushes). *)
let edge_agree ~exact asrs =
  List.for_all
    (fun a ->
      let truth =
        Core.Asr.restrict a
          (Core.Extension.compute (Core.Asr.store a) (Core.Asr.path a) (Core.Asr.kind a))
      in
      Relation.equal truth (Core.Asr.extension_relation a))
    asrs
  && ((not exact) || trees_exact_all asrs)

let edge_configs =
  List.concat_map
    (fun policy -> [ (policy, Plain); (policy, Fragments); (policy, Pooled) ])
    [ M.Immediate; M.On_query ]

let config_name (policy, layout) =
  M.policy_to_string policy
  ^ match layout with Plain -> "" | Fragments -> ", 2 fragments" | Pooled -> ", pooled"

let test_edge_cases () =
  List.iter
    (fun ((policy, layout) as cfg) ->
      let store = Gom.Store.create (edge_schema ()) in
      let node label =
        let n = Gom.Store.new_object store "Node" in
        Gom.Store.set_attr store n "label" (V.Str label);
        n
      in
      let set elems =
        let s = Gom.Store.new_object store "NodeSet" in
        List.iter (fun e -> Gom.Store.insert_elem store s (V.Ref e)) elems;
        s
      in
      let a = node "a" and b = node "b" and c = node "c" and d = node "d" and e = node "e" in
      let s1 = set [ b; c ] and s2 = set [ d ] and s3 = set [] in
      let tags = Gom.Store.new_object store "TagSet" in
      Gom.Store.insert_elem store tags (V.Str "x");
      let attr o k v = Gom.Store.set_attr store o k v in
      let line = Gom.Store.new_object store "NodeList" in
      Gom.Store.insert_elem store line (V.Ref b);
      attr a "kids" (V.Ref s1);
      (* b and c hold one set. *)
      attr b "kids" (V.Ref s2);
      attr c "kids" (V.Ref s2);
      attr a "next" (V.Ref b);
      attr b "next" (V.Ref c);
      attr c "tags" (V.Ref tags);
      let mgr, asrs = edge_rig ~policy ~layout store in
      let steps =
        [
          ("insert into a set two holders share, at two positions", fun () ->
            Gom.Store.insert_elem store s2 (V.Ref e));
          ("insert closing a cycle", fun () -> Gom.Store.insert_elem store s2 (V.Ref a));
          ("insert a node already reached", fun () -> Gom.Store.insert_elem store s1 (V.Ref d));
          ("reassign a shared set to an empty one", fun () -> attr c "kids" (V.Ref s3));
          ("first element of the empty set", fun () -> Gom.Store.insert_elem store s3 (V.Ref e));
          ("set attribute to NULL", fun () -> attr c "kids" V.Null);
          ("set attribute from NULL", fun () -> attr c "kids" (V.Ref s2));
          ("rename an atomic end", fun () -> attr d "label" (V.Str "dd"));
          ("atomic end to NULL", fun () -> attr d "label" V.Null);
          ("atomic end from NULL", fun () -> attr d "label" (V.Str "d"));
          ("insert into a set of atomic values", fun () ->
            Gom.Store.insert_elem store tags (V.Str "y"));
          ("atomic set to NULL", fun () -> attr c "tags" V.Null);
          ("atomic set from NULL", fun () -> attr c "tags" (V.Ref tags));
          ("remove from a set of atomic values", fun () ->
            Gom.Store.remove_elem store tags (V.Str "x"));
          ("attach a list", fun () -> attr a "line" (V.Ref line));
          ("append to a list", fun () -> Gom.Store.insert_elem store line (V.Ref d));
          ("append an element a list holds", fun () -> Gom.Store.insert_elem store line (V.Ref d));
          ("list holding its holder", fun () ->
            attr b "line" (V.Ref line);
            Gom.Store.insert_elem store line (V.Ref a));
          ("remove an element a list holds twice", fun () ->
            Gom.Store.remove_elem store line (V.Ref d));
          ("repoint next into a cycle", fun () -> attr c "next" (V.Ref a));
          ("single-valued self-loop", fun () -> attr e "next" (V.Ref e));
          ("next to NULL", fun () -> attr b "next" V.Null);
          ("set holding its holder", fun () ->
            attr e "kids" (V.Ref s3);
            Gom.Store.insert_elem store s3 (V.Ref d));
          ("remove from a shared set", fun () -> Gom.Store.remove_elem store s2 (V.Ref e));
          ("remove the cycle", fun () -> Gom.Store.remove_elem store s2 (V.Ref a));
          ("empty a shared set", fun () -> Gom.Store.remove_elem store s2 (V.Ref d));
          ("delete a held set", fun () -> Gom.Store.delete store s1);
          ("delete a holder", fun () -> Gom.Store.delete store b);
          ("delete a target", fun () -> Gom.Store.delete store d);
          ("delete a self-referencing node", fun () -> Gom.Store.delete store e);
        ]
      in
      List.iteri
        (fun k (name, mutate) ->
          mutate ();
          let exact = policy = M.Immediate || k mod 4 = 3 in
          let label = Printf.sprintf "%s: %s" (config_name cfg) name in
          check label true (edge_agree ~exact asrs);
          (* A shared tree is audited against every sharer's summed
             counts: maintenance must leave no divergence to report. *)
          if layout = Pooled then
            check (label ^ ", exhaustive scrub") true
              (List.for_all (fun a -> Integrity.Scrub.clean (Integrity.Scrub.run a)) asrs))
        steps;
      ignore (M.flush_all mgr);
      check (config_name cfg ^ ": flushed trees exact") true (edge_agree ~exact:true asrs))
    edge_configs

(* The same schema under seeded random streams: reassignments between
   existing and fresh sets, shared sets, inserts, removals, atomic ends
   and deletes of holders, sets and targets. *)
let apply_edge_op rng store =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let nodes = Gom.Store.extent store "Node" in
  let sets = Gom.Store.extent store "NodeSet" in
  let tag_sets = Gom.Store.extent store "TagSet" in
  let lines = Gom.Store.extent store "NodeList" in
  let tag () = V.Str (pick [ "x"; "y"; "z" ]) in
  let n = pick nodes in
  match Random.State.int rng 15 with
  | 0 | 1 when sets <> [] -> Gom.Store.insert_elem store (pick sets) (V.Ref (pick nodes))
  | 2 when sets <> [] -> (
    let s = pick sets in
    match Gom.Store.elements store s with
    | [] -> ()
    | es -> Gom.Store.remove_elem store s (pick es))
  | 3 ->
    let v =
      match Random.State.int rng 3 with
      | 0 -> V.Null
      | 1 when sets <> [] -> V.Ref (pick sets)
      | _ -> V.Ref (Gom.Store.new_object store "NodeSet")
    in
    Gom.Store.set_attr store n "kids" v
  | 4 -> Gom.Store.set_attr store n "next" (if Random.State.int rng 4 = 0 then V.Null else V.Ref (pick nodes))
  | 5 -> Gom.Store.set_attr store n "label" (if Random.State.int rng 4 = 0 then V.Null else tag ())
  | 6 when tag_sets <> [] ->
    let ts = pick tag_sets in
    if Random.State.bool rng then Gom.Store.insert_elem store ts (tag ())
    else Gom.Store.remove_elem store ts (tag ())
  | 7 ->
    let v =
      if tag_sets = [] || Random.State.bool rng then V.Ref (Gom.Store.new_object store "TagSet")
      else V.Ref (pick tag_sets)
    in
    Gom.Store.set_attr store n "tags" (if Random.State.int rng 4 = 0 then V.Null else v)
  | 8 -> if List.length nodes > 2 then Gom.Store.delete store n
  | 9 when sets <> [] -> Gom.Store.delete store (pick sets)
  | 10 -> Gom.Store.set_attr store (Gom.Store.new_object store "Node") "next" (V.Ref n)
  | 11 when lines <> [] -> Gom.Store.insert_elem store (pick lines) (V.Ref (pick nodes))
  | 12 when lines <> [] -> (
    let l = pick lines in
    match Gom.Store.elements store l with
    | [] -> ()
    | es -> Gom.Store.remove_elem store l (pick es))
  | 13 ->
    let v =
      if lines = [] || Random.State.bool rng then V.Ref (Gom.Store.new_object store "NodeList")
      else V.Ref (pick lines)
    in
    Gom.Store.set_attr store n "line" (if Random.State.int rng 4 = 0 then V.Null else v)
  | _ -> if tag_sets <> [] then Gom.Store.delete store (pick tag_sets)

let prop_edge_streams =
  QCheck.Test.make
    ~name:"edge-local deltas = scratch on recursive paths (random streams)"
    ~count:(Qc.iters_env "ASR_EDGE_COUNT" 20)
    QCheck.(pair (int_bound (List.length edge_configs - 1)) (int_bound 100000))
    (fun (cfg, seed) ->
      let policy, layout = List.nth edge_configs cfg in
      let rng = Random.State.make [| seed |] in
      let store = Gom.Store.create (edge_schema ()) in
      for _ = 1 to 5 do
        ignore (Gom.Store.new_object store "Node")
      done;
      for _ = 1 to 12 do
        apply_edge_op rng store
      done;
      let mgr, asrs = edge_rig ~policy ~layout store in
      let ok = ref true in
      for k = 1 to 16 do
        if !ok then begin
          apply_edge_op rng store;
          if not (edge_agree ~exact:(policy = M.Immediate || k mod 4 = 0) asrs) then ok := false
        end
      done;
      ignore (M.flush_all mgr);
      !ok && edge_agree ~exact:true asrs)

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
    Alcotest.test_case "edge cases: shared sets, recursion, reassignment, deletes" `Quick
      test_edge_cases;
    Qc.to_alcotest prop_edge_streams;
  ]
