(* Tests for Core.Baselines: the prior techniques the paper subsumes,
   and the restrictions each inherits. *)

module B = Core.Baselines
module V = Gom.Value
module C = Workload.Schemas.Company
module R = Workload.Schemas.Robot

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_valduriez_binary_join_index () =
  let b = C.base () in
  let idx = B.valduriez_join_index b.C.store ~anchor:"Product" ~attr:"Composition" in
  check_int "path length 1" 1 (Gom.Path.length (Core.Asr.path idx));
  (* Both join directions work, as for Valduriez's two clustering
     copies. *)
  let sec_parts = V.oid_exn (Gom.Store.get_attr b.C.store b.C.sec560 "Composition") in
  let fwd = Core.Asr.lookup idx 0 ~fwd:true [ V.Ref b.C.sec560 ] (V.Ref b.C.sec560) in
  check "forward join" true
    (List.exists (fun (t : Relation.Tuple.t) -> V.equal t.(2) (V.Ref b.C.door)) fwd);
  let bwd = Core.Asr.lookup idx 0 ~fwd:false [ V.Ref b.C.door ] (V.Ref b.C.door) in
  check "backward join" true
    (List.exists (fun (t : Relation.Tuple.t) -> V.equal t.(1) (V.Ref sec_parts)) bwd)

let test_valduriez_dangling_sides () =
  let b = C.base () in
  (* Full extension: products without composition and parts without
     products are still represented (outer join index). *)
  let idx = B.valduriez_join_index b.C.store ~anchor:"Product" ~attr:"Composition" in
  let ext = Core.Asr.extension_relation idx in
  check "dangling part side present" true
    (* door also sits in the orphan BasePartSET i10, which no product
       references; but door itself is referenced via sec_parts, so the
       right-dangling row is about elements only reachable there. *)
    (Relation.cardinal ext >= 2)

let test_gemstone_requires_linear () =
  let cb = C.base () in
  check "set path rejected" true
    (try
       ignore (B.gemstone_path_index cb.C.store (C.name_path cb.C.store));
       false
     with Invalid_argument _ -> true)

let test_gemstone_on_robot_path () =
  let rb = R.base () in
  let path = R.location_path rb.R.store in
  let idx = B.gemstone_path_index rb.R.store path in
  check "left-complete" true (Core.Asr.kind idx = Core.Extension.Left_complete);
  check "binary partitions" true
    (Core.Decomposition.is_binary (Core.Asr.decomposition idx));
  (* Supports every query anchored at the path head... *)
  check "supports (0,2)" true (Core.Asr.supports idx ~i:0 ~j:2);
  (* ...but nothing anchored mid-path. *)
  check "no (1,4)" false (Core.Asr.supports idx ~i:1 ~j:4)

let test_orion_full_span_only () =
  let rb = R.base () in
  let path = R.location_path rb.R.store in
  let heap = Storage.Heap.create ~size_of:(fun _ -> 100) rb.R.store in
  let env = Core.Exec.make rb.R.store heap in
  let idx = B.orion_nested_index rb.R.store path in
  check "canonical" true (Core.Asr.kind idx = Core.Extension.Canonical);
  check_int "single partition" 1 (Core.Asr.partition_count idx);
  check "answers (0,n)" true (Core.Asr.supports idx ~i:0 ~j:4);
  check "cannot answer (0,3)" false (Core.Asr.supports idx ~i:0 ~j:3);
  check "cannot answer (1,4)" false (Core.Asr.supports idx ~i:1 ~j:4);
  (* The (0,n) backward query works like the paper's Query 1. *)
  let robots =
    Core.Exec.backward_supported env idx ~i:0 ~j:4 ~target:(V.Str "Utopia")
  in
  check_int "query 1 through orion index" 3 (List.length robots)

(* The generalisation claim, measured: a decomposed full ASR answers a
   sub-path query from the index, the Orion baseline must fall back to
   an exhaustive scan. *)
let test_ablation_subpath_queries () =
  let spec =
    Workload.Generator.spec ~seed:9
      ~counts:[ 200; 400; 800; 1600 ]
      ~defined:[ 190; 380; 760 ] ~fan:[ 1; 1; 1 ]
      ~set_valued:[ false; false; false ] ()
  in
  let store, path = Workload.Generator.build spec in
  let heap = Storage.Heap.create ~size_of:(Workload.Generator.size_of spec) store in
  let env = (Core.Exec.make store heap) in
  let orion = B.orion_nested_index store path in
  let full =
    Core.Asr.create store path Core.Extension.Full
      (Core.Decomposition.binary ~m:(Gom.Path.arity path - 1))
  in
  let target =
    match Gom.Store.extent store "T2" with o :: _ -> V.Ref o | [] -> assert false
  in
  let stats = env.Core.Exec.stats in
  let measure index =
    Storage.Stats.begin_op stats;
    let r = Core.Exec.backward ?index env path ~i:0 ~j:2 ~target in
    (r, Storage.Stats.op_accesses stats)
  in
  let r_orion, cost_orion = measure (Some orion) in
  let r_full, cost_full = measure (Some full) in
  check "same answers" true (r_orion = r_full);
  check "orion pays the scan" true (cost_orion > 3 * cost_full)

let suite =
  [
    Alcotest.test_case "valduriez binary join index" `Quick test_valduriez_binary_join_index;
    Alcotest.test_case "valduriez dangling sides" `Quick test_valduriez_dangling_sides;
    Alcotest.test_case "gemstone rejects set paths" `Quick test_gemstone_requires_linear;
    Alcotest.test_case "gemstone on the robot path" `Quick test_gemstone_on_robot_path;
    Alcotest.test_case "orion supports (0,n) only" `Quick test_orion_full_span_only;
    Alcotest.test_case "ablation: sub-path queries" `Quick test_ablation_subpath_queries;
  ]
