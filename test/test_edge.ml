(* Edge cases across the stack: degenerate bases, single-step paths,
   empty extents, boundary parameters. *)

module V = Gom.Value
module D = Core.Decomposition
module X = Core.Extension

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- single-attribute paths (n = 1) ---- *)

let tiny_schema () =
  let s = Gom.Schema.empty in
  Gom.Schema.define_tuple s "Doc" [ ("Title", "STRING") ]

let test_single_step_atomic_path () =
  let s = tiny_schema () in
  let store = Gom.Store.create s in
  let d1 = Gom.Store.new_object store "Doc" in
  Gom.Store.set_attr store d1 "Title" (V.Str "Moby");
  let d2 = Gom.Store.new_object store "Doc" in
  ignore d2 (* Title stays NULL *);
  let path = Gom.Path.make s "Doc" [ "Title" ] in
  check_int "arity 2" 2 (Gom.Path.arity path);
  let can = X.compute store path X.Canonical in
  check_int "one complete tuple" 1 (Relation.cardinal can);
  let a = Core.Asr.create store path X.Canonical (D.trivial ~m:1) in
  let heap = Storage.Heap.create ~size_of:(fun _ -> 100) store in
  let env = Core.Exec.make store heap in
  check "backward by value" true
    (Core.Exec.backward_supported env a ~i:0 ~j:1 ~target:(V.Str "Moby") = [ d1 ]);
  (* This is exactly a conventional attribute index. *)
  let mgr = Core.Maintenance.create env in
  Core.Maintenance.register mgr a;
  Gom.Store.set_attr store d1 "Title" (V.Str "Dick");
  check "maintained" true
    (Relation.equal (X.compute store path X.Canonical) (Core.Asr.extension_relation a));
  check "old key gone" true
    (Core.Exec.backward_supported env a ~i:0 ~j:1 ~target:(V.Str "Moby") = [])

let test_decomposition_m1 () =
  check_int "only the trivial decomposition" 1 (List.length (D.all ~m:1));
  check "trivial = binary at m=1" true (D.equal (D.trivial ~m:1) (D.binary ~m:1))

(* ---- empty bases and extents ---- *)

let test_empty_base () =
  let b = Workload.Schemas.Company.base () in
  let store = Gom.Store.create (Gom.Store.schema b.Workload.Schemas.Company.store) in
  let path = Workload.Schemas.Company.name_path store in
  List.iter
    (fun k -> check_int (X.name k ^ " empty") 0 (Relation.cardinal (X.compute store path k)))
    X.all;
  let a = Core.Asr.create store path X.Full (D.binary ~m:5) in
  let heap = Storage.Heap.create ~size_of:(fun _ -> 100) store in
  let env = Core.Exec.make store heap in
  check "lookup on empty" true
    (Core.Exec.backward_supported env a ~i:0 ~j:3 ~target:(V.Str "Door") = []);
  check "scan on empty" true
    (Core.Exec.backward_scan env path ~i:0 ~j:3 ~target:(V.Str "Door") = [])

let test_serial_empty_store () =
  let store = Gom.Store.create (tiny_schema ()) in
  let store' = Gom.Serial.store_of_string (Gom.Serial.store_to_string store) in
  check_int "no objects" 0 (Gom.Store.count store' "Doc");
  check "schema intact" true (Gom.Schema.is_tuple (Gom.Store.schema store') "Doc")

(* ---- degenerate cost-model parameters ---- *)

let test_costmodel_d_zero () =
  let p =
    Costmodel.Profile.make ~c:[ 100.; 100.; 100. ] ~d:[ 0.; 0. ] ~fan:[ 1.; 1. ] ()
  in
  List.iter
    (fun k ->
      let v = Costmodel.Cardinality.count p k 0 2 in
      check (X.name k ^ " zero tuples") true (v = 0.))
    X.all;
  (* Query costs stay finite. *)
  let q = Costmodel.Query_cost.qnas p Costmodel.Query_cost.Bw 0 2 in
  check "finite scan cost" true (Float.is_finite q && q >= 1.);
  let u = Costmodel.Update_cost.total p X.Full (D.binary ~m:2) 1 in
  check "finite update cost" true (Float.is_finite u)

let test_costmodel_single_object () =
  let p = Costmodel.Profile.make ~c:[ 1.; 1. ] ~d:[ 1. ] ~fan:[ 1. ] () in
  check "tiny profile works" true
    (Float.is_finite (Costmodel.Query_cost.q p X.Full (D.trivial ~m:1) Costmodel.Query_cost.Bw 0 1))

(* ---- gql odds and ends ---- *)

let company_env () =
  let b = Workload.Schemas.Company.base () in
  let heap = Storage.Heap.create ~size_of:(fun _ -> 100) b.Workload.Schemas.Company.store in
  (b, Engine.create (Core.Exec.make b.Workload.Schemas.Company.store heap))

let test_gql_no_where () =
  let _, engine = company_env () in
  let r = Gql.Eval.query ~engine {|select d.Name from d in Division|} in
  check_int "all divisions" 3 (List.length r.Gql.Eval.rows)

let test_gql_or_not () =
  let _, engine = company_env () in
  let r =
    Gql.Eval.query ~engine
      {|select d.Name from d in Division
        where d.Name = "Auto" or d.Name = "Space"|}
  in
  check_int "disjunction" 2 (List.length r.Gql.Eval.rows);
  let r =
    Gql.Eval.query ~engine
      {|select d.Name from d in Division where not d.Name = "Auto"|}
  in
  check_int "negation" 2 (List.length r.Gql.Eval.rows)

let test_gql_literal_select () =
  let _, engine = company_env () in
  let r = Gql.Eval.query ~engine {|select 1, d.Name from d in Division where d.Name = "Auto"|} in
  check "literal column" true (r.Gql.Eval.rows = [ [ V.Int 1; V.Str "Auto" ] ])

let test_gql_empty_path_result () =
  let _, engine = company_env () in
  (* Space has NULL Manufactures: the path set is empty, equality is
     existentially false. *)
  let r =
    Gql.Eval.query ~engine
      {|select d.Name from d in Division
        where d.Name = "Space" and d.Manufactures.Composition.Name = "Door"|}
  in
  check "existential over empty path set" true (r.Gql.Eval.rows = [])

(* ---- store misuse ---- *)

let test_store_after_delete () =
  let b = Workload.Schemas.Company.base () in
  let store = b.Workload.Schemas.Company.store in
  let door = b.Workload.Schemas.Company.door in
  Gom.Store.delete store door;
  check "get_attr raises" true
    (try ignore (Gom.Store.get_attr store door "Name"); false
     with Gom.Store.Type_error _ -> true);
  check "set_attr raises" true
    (try Gom.Store.set_attr store door "Name" (V.Str "x"); false
     with Gom.Store.Type_error _ -> true)

let test_restore_object_guards () =
  let b = Workload.Schemas.Company.base () in
  let store = b.Workload.Schemas.Company.store in
  check "live oid refused" true
    (try Gom.Store.restore_object store b.Workload.Schemas.Company.door "BasePart"; false
     with Gom.Store.Type_error _ -> true);
  check "atomic type refused" true
    (try Gom.Store.restore_object store (Gom.Oid.of_int 9999) "STRING"; false
     with Gom.Store.Type_error _ -> true)

(* ---- bptree after heavy deletion ---- *)

let test_bptree_lookup_across_holes () =
  let config = Storage.Config.make ~page_size:64 ~oid_size:8 ~pp_size:4 () in
  let t =
    Storage.Bptree.create ~config ~pager:(Storage.Pager.create "bptree") ~tuple_bytes:16
      ~key_of:(fun tup -> tup.(0))
  in
  let tup a b = [| V.Ref (Gom.Oid.of_int a); V.Ref (Gom.Oid.of_int b) |] in
  Storage.Bptree.bulk_load t (List.init 64 (fun i -> tup i i));
  (* Remove a band in the middle, leaving under-full leaves. *)
  for i = 20 to 44 do
    Storage.Bptree.remove t (tup i i)
  done;
  check "invariants" true (Result.is_ok (Storage.Bptree.check_invariants t));
  let key i = V.Ref (Gom.Oid.of_int i) in
  check "around and inside the hole" true
    (Storage.Bptree.lookup_many t [ key 19; key 45; key 30 ]
    = [ (key 19, [ tup 19 19 ]); (key 30, []); (key 45, [ tup 45 45 ]) ]);
  check_int "cardinal" 39 (Storage.Bptree.cardinal t)

(* ---- values ---- *)

let test_float_total_order () =
  (* Even NaN participates in the total order used by B+ tree keys. *)
  let a = V.Dec Float.nan and b = V.Dec 1.0 in
  check "antisymmetric" true (V.compare a b = -V.compare b a);
  check "reflexive-ish" true (V.compare a a = 0)

let suite =
  [
    Alcotest.test_case "single-step atomic path" `Quick test_single_step_atomic_path;
    Alcotest.test_case "decomposition at m=1" `Quick test_decomposition_m1;
    Alcotest.test_case "empty base" `Quick test_empty_base;
    Alcotest.test_case "serialise empty store" `Quick test_serial_empty_store;
    Alcotest.test_case "cost model with d=0" `Quick test_costmodel_d_zero;
    Alcotest.test_case "cost model with one object" `Quick test_costmodel_single_object;
    Alcotest.test_case "gql without where" `Quick test_gql_no_where;
    Alcotest.test_case "gql or / not" `Quick test_gql_or_not;
    Alcotest.test_case "gql literal select" `Quick test_gql_literal_select;
    Alcotest.test_case "gql existential over empty" `Quick test_gql_empty_path_result;
    Alcotest.test_case "store after delete" `Quick test_store_after_delete;
    Alcotest.test_case "restore_object guards" `Quick test_restore_object_guards;
    Alcotest.test_case "bptree across deletion holes" `Quick test_bptree_lookup_across_holes;
    Alcotest.test_case "float total order" `Quick test_float_total_order;
  ]
