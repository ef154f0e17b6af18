(* Tests for Workload.Profiler: measuring Figure 3 parameters from a
   live base and closing the monitor -> advisor loop. *)

module P = Costmodel.Profile
module Pr = Workload.Profiler
module C = Workload.Schemas.Company
module V = Gom.Value

let check = Alcotest.(check bool)
let checkf msg expected actual = Alcotest.(check (float 1e-9)) msg expected actual

let test_profile_of_company () =
  let b = C.base () in
  let path = C.name_path b.C.store in
  let p = Engine.measure_profile b.C.store path in
  Alcotest.(check int) "n" 3 (P.n p);
  (* Figure 2: 3 divisions, 3 products, 2 base parts, 2 names. *)
  checkf "c0 divisions" 3. (P.c p 0);
  checkf "c1 products" 3. (P.c p 1);
  checkf "c2 base parts" 2. (P.c p 2);
  checkf "c3 distinct names" 2. (P.c p 3);
  (* d: 2 divisions have Manufactures, 2 products have Composition, both
     base parts have names. *)
  checkf "d0" 2. (P.d p 0);
  checkf "d1" 2. (P.d p 1);
  checkf "d2" 2. (P.d p 2);
  (* fan0: Auto -> 1 product, Truck -> 2 products = 1.5 on average. *)
  checkf "fan0" 1.5 (P.fan p 0);
  (* Measured sharing: 3 division->product references hit 2 distinct
     products. *)
  checkf "shar0" 1.5 (P.shar p 0);
  (* e1 = refs / shar = distinct referenced products. *)
  checkf "e1" 2. (P.e p 1)

let test_profile_matches_generator () =
  (* Round-trip: generate from a profile, re-measure, compare. *)
  let spec =
    Workload.Generator.spec ~seed:4
      ~counts:[ 300; 600; 1200; 2400 ]
      ~defined:[ 280; 560; 1100 ] ~fan:[ 2; 2; 2 ] ()
  in
  let store, path = Workload.Generator.build spec in
  let p = Engine.measure_profile store path in
  checkf "c0 exact" 300. (P.c p 0);
  checkf "d0 exact" 280. (P.d p 0);
  checkf "fan0 exact" 2. (P.fan p 0);
  (* Uniform sampling: measured distinct targets close to the binomial
     prediction of the Uniform sharing mode. *)
  let predicted =
    P.e (P.make ~c:[ 300.; 600. ] ~d:[ 280. ] ~fan:[ 2. ] ()) 1
  in
  let measured = P.e p 1 in
  check "e1 close to binomial prediction" true
    (Float.abs (measured -. predicted) /. predicted < 0.1)

let test_monitor_counts () =
  let b = C.base () in
  let path = C.name_path b.C.store in
  let m = Pr.Monitor.create b.C.store path in
  Alcotest.(check int) "no ops yet" 0 (Pr.Monitor.queries_seen m);
  Pr.Monitor.record_query m `Bw ~i:0 ~j:3;
  Pr.Monitor.record_query m `Bw ~i:0 ~j:3;
  Pr.Monitor.record_query m `Fw ~i:0 ~j:1;
  Alcotest.(check int) "three queries" 3 (Pr.Monitor.queries_seen m);
  (* A mutation on a path attribute counts as an update... *)
  let sec_parts = V.oid_exn (Gom.Store.get_attr b.C.store b.C.sec560 "Composition") in
  Gom.Store.insert_elem b.C.store sec_parts (V.Ref b.C.pepper);
  Alcotest.(check int) "one update" 1 (Pr.Monitor.updates_seen m);
  (* ...a mutation elsewhere does not. *)
  Gom.Store.set_attr b.C.store b.C.door "Price" (V.Dec 9.99);
  Alcotest.(check int) "price change not on path" 1 (Pr.Monitor.updates_seen m);
  checkf "p_up" 0.25 (Pr.Monitor.observed_p_up m)

let test_monitor_mix_and_recommend () =
  let b = C.base () in
  let path = C.name_path b.C.store in
  let m = Pr.Monitor.create b.C.store path in
  check "no mix yet" true (Pr.Monitor.observed_mix m = None);
  check "recommend refuses" true
    (try ignore (Pr.Monitor.recommend m); false with Invalid_argument _ -> true);
  Pr.Monitor.record_query m `Bw ~i:0 ~j:3;
  let sec_parts = V.oid_exn (Gom.Store.get_attr b.C.store b.C.sec560 "Composition") in
  Gom.Store.insert_elem b.C.store sec_parts (V.Ref b.C.pepper);
  (match Pr.Monitor.observed_mix m with
  | Some _ -> ()
  | None -> Alcotest.fail "mix should exist");
  let ranked = Pr.Monitor.recommend m in
  check "full ranking" true (List.length ranked > 1);
  (match ranked with
  | best :: rest ->
    check "sorted" true
      (List.for_all
         (fun r -> r.Costmodel.Advisor.expected_cost >= best.Costmodel.Advisor.expected_cost)
         rest)
  | [] -> Alcotest.fail "empty ranking")

let test_record_query_validation () =
  let b = C.base () in
  let m = Pr.Monitor.create b.C.store (C.name_path b.C.store) in
  check "bad range" true
    (try Pr.Monitor.record_query m `Bw ~i:2 ~j:2; false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "profile of the company base" `Quick test_profile_of_company;
    Alcotest.test_case "profile matches generator" `Quick test_profile_matches_generator;
    Alcotest.test_case "monitor counts operations" `Quick test_monitor_counts;
    Alcotest.test_case "monitor mix and recommendation" `Quick test_monitor_mix_and_recommend;
    Alcotest.test_case "record_query validation" `Quick test_record_query_validation;
  ]
