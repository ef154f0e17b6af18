(* Tests for Workload.Generator, Workload.Table and the experiment
   harness (smoke + shape assertions on cheap experiments). *)

module G = Workload.Generator
module T = Workload.Table

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_spec_validation () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  check "two levels minimum" true
    (bad (fun () -> G.spec ~counts:[ 5 ] ~defined:[] ~fan:[] ()));
  check "defined bounded" true
    (bad (fun () -> G.spec ~counts:[ 5; 5 ] ~defined:[ 9 ] ~fan:[ 1 ] ()));
  check "fan>1 needs sets" true
    (bad (fun () ->
         G.spec ~counts:[ 5; 5 ] ~defined:[ 5 ] ~fan:[ 3 ] ~set_valued:[ false ] ()));
  check "ok" true
    (G.spec ~counts:[ 5; 5 ] ~defined:[ 5 ] ~fan:[ 3 ] () |> fun _ -> true)

let test_generator_statistics () =
  let spec = G.spec ~seed:1 ~counts:[ 100; 200; 300 ] ~defined:[ 80; 150 ] ~fan:[ 2; 3 ] () in
  let store, path = G.build spec in
  check_int "path length" 2 (Gom.Path.length path);
  check_int "c0" 100 (Gom.Store.count store "T0");
  check_int "c1" 200 (Gom.Store.count store "T1");
  check_int "c2" 300 (Gom.Store.count store "T2");
  let defined0 =
    Gom.Store.extent store "T0"
    |> List.filter (fun o -> Gom.Store.get_attr store o "A1" <> Gom.Value.Null)
    |> List.length
  in
  check_int "d0 honoured" 80 defined0;
  (* Each defined object references exactly fan distinct targets. *)
  let all_fans_ok =
    Gom.Store.extent store "T0"
    |> List.for_all (fun o ->
           match Gom.Store.get_attr store o "A1" with
           | Gom.Value.Null -> true
           | v -> List.length (Gom.Store.elements store (Gom.Value.oid_exn v)) = 2)
  in
  check "fan honoured" true all_fans_ok

let test_generator_deterministic () =
  let spec = G.spec ~seed:77 ~counts:[ 50; 50 ] ~defined:[ 40 ] ~fan:[ 1 ] () in
  let s1, p1 = G.build spec in
  let s2, _ = G.build spec in
  let ext k st = Core.Extension.compute st p1 k in
  check "same seed, same base" true
    (Relation.equal (ext Core.Extension.Full s1) (ext Core.Extension.Full s2))

let test_generator_single_valued () =
  let spec =
    G.spec ~seed:5 ~counts:[ 30; 30 ] ~defined:[ 30 ] ~fan:[ 1 ]
      ~set_valued:[ false ] ()
  in
  let store, path = G.build spec in
  check_int "no set occurrence" 0 (Gom.Path.set_occurrences path);
  check "references are direct" true
    (Gom.Store.extent store "T0"
    |> List.for_all (fun o ->
           match Gom.Store.get_attr store o "A1" with
           | Gom.Value.Ref t -> Gom.Store.type_of store t = "T1"
           | _ -> false))

let test_of_profile_scaling () =
  let p =
    Costmodel.Profile.make ~c:[ 1000.; 2000. ] ~d:[ 800. ] ~fan:[ 2. ] ()
  in
  let spec = G.of_profile ~scale:0.1 p in
  let store, _ = G.build spec in
  check_int "scaled c0" 100 (Gom.Store.count store "T0")

(* ---- tables ---- *)

let sample_table () =
  T.make ~id:"t" ~title:"sample" ~x_label:"x" ~columns:[ "a"; "b" ]
    ~notes:[ "a note" ]
    [ ("1", [ 1.0; 2.5 ]); ("2", [ 10.0; Float.nan ]) ]

let test_table_validation () =
  check "width mismatch rejected" true
    (try
       ignore
         (T.make ~id:"t" ~title:"bad" ~x_label:"x" ~columns:[ "a" ] [ ("1", [ 1.; 2. ]) ]);
       false
     with Invalid_argument _ -> true)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_table_render_and_csv () =
  let t = sample_table () in
  let rendered = Format.asprintf "%a" T.render t in
  check "title present" true (contains ~needle:"sample" rendered);
  check "note present" true (contains ~needle:"a note" rendered);
  let csv = T.to_csv t in
  check "csv header" true (String.length csv > 5 && String.sub csv 0 5 = "x,a,b");
  check "nan rendered as dash" true (contains ~needle:",-" csv)

let test_table_column () =
  let t = sample_table () in
  check "column extraction" true (T.column t "a" = [ ("1", 1.0); ("2", 10.0) ]);
  check "unknown column" true
    (try ignore (T.column t "zzz"); false with Not_found -> true)

(* ---- experiments ---- *)

let test_catalogue () =
  check_int "22 experiments" 22 (List.length Workload.Experiments.all);
  check "find works" true (Workload.Experiments.find "fig8" <> None);
  check "unknown id" true (Workload.Experiments.find "fig99" = None);
  (* Ids unique. *)
  let ids = List.map (fun (e : Workload.Experiments.t) -> e.Workload.Experiments.id) Workload.Experiments.all in
  check_int "unique ids" (List.length ids) (List.length (List.sort_uniq compare ids))

(* results/ holds exactly one pinned CSV per experiment: the diff rules
   in results/dune check each CSV's contents, this checks that no
   experiment goes unpinned and no CSV outlives its experiment.  The
   CSVs are test deps, copied next to the build's test directory. *)
let test_every_experiment_pinned () =
  let dir = Filename.concat (Filename.dirname Sys.executable_name) "../results" in
  let csvs =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".csv")
    |> List.sort compare
  in
  let wanted =
    List.map (fun (e : Workload.Experiments.t) -> e.Workload.Experiments.id ^ ".csv")
      Workload.Experiments.all
    |> List.sort compare
  in
  Alcotest.(check (list string)) "one results/<id>.csv per experiment" wanted csvs

let run_tables id =
  match Workload.Experiments.find id with
  | Some e -> e.Workload.Experiments.run ()
  | None -> Alcotest.failf "experiment %s missing" id

let test_fig4_shape () =
  match run_tables "fig4" with
  | [ t ] ->
    let bi = T.column t "binary dec" in
    let can = List.assoc "can" bi and full = List.assoc "full" bi in
    let left = List.assoc "left" bi and right = List.assoc "right" bi in
    check "can < right" true (can < right);
    check "left < full" true (left < full)
  | _ -> Alcotest.fail "fig4 should yield one table"

let test_fig7_flatness () =
  match run_tables "fig7" with
  | [ t ] ->
    let series = T.column t "full" in
    let vs = List.map snd series in
    let mn = List.fold_left Float.min Float.infinity vs in
    let mx = List.fold_left Float.max Float.neg_infinity vs in
    check "supported flat across sizes" true (mx -. mn <= 2.);
    let nas = List.map snd (T.column t "no support") in
    check "scan grows" true
      (List.nth nas (List.length nas - 1) > 2. *. List.hd nas)
  | _ -> Alcotest.fail "fig7 should yield one table"

let test_fig14_normalization () =
  match run_tables "fig14" with
  | [ t ] ->
    check "no-support column is 1" true
      (List.for_all (fun (_, v) -> Float.abs (v -. 1.) < 1e-9) (T.column t "no support"))
  | _ -> Alcotest.fail "fig14 should yield one table"

let test_fig17_two_tables () =
  check_int "coarse + fine sweep" 2 (List.length (run_tables "fig17"))

let suite =
  [
    Alcotest.test_case "spec validation" `Quick test_spec_validation;
    Alcotest.test_case "generator statistics" `Quick test_generator_statistics;
    Alcotest.test_case "generator determinism" `Quick test_generator_deterministic;
    Alcotest.test_case "single-valued chains" `Quick test_generator_single_valued;
    Alcotest.test_case "profile scaling" `Quick test_of_profile_scaling;
    Alcotest.test_case "table validation" `Quick test_table_validation;
    Alcotest.test_case "table render and csv" `Quick test_table_render_and_csv;
    Alcotest.test_case "table column" `Quick test_table_column;
    Alcotest.test_case "experiment catalogue" `Quick test_catalogue;
    Alcotest.test_case "every experiment pinned" `Quick test_every_experiment_pinned;
    Alcotest.test_case "fig4 shape" `Quick test_fig4_shape;
    Alcotest.test_case "fig7 flatness" `Quick test_fig7_flatness;
    Alcotest.test_case "fig14 normalization" `Quick test_fig14_normalization;
    Alcotest.test_case "fig17 sweeps" `Quick test_fig17_two_tables;
  ]
