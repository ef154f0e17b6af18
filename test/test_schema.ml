(* Unit tests for Gom.Schema: definitions, inheritance, subtyping. *)

module S = Gom.Schema

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let throws_schema f = try f (); false with S.Schema_error _ -> true

let simple () =
  let s = S.empty in
  let s = S.define_tuple s "A" [ ("x", "INT") ] in
  let s = S.define_tuple s "B" [ ("a", "A"); ("y", "STRING") ] in
  let s = S.define_set s "BSet" "B" in
  s

let test_builtins () =
  check "STRING atomic" true (S.is_atomic S.empty "STRING");
  check "INT atomic" true (S.is_atomic S.empty "INT");
  check "DECIMAL atomic" true (S.is_atomic S.empty "DECIMAL");
  check "atomic_of" true (S.atomic_of S.empty "DECIMAL" = Some S.A_dec);
  check "unknown" true (S.find S.empty "NOPE" = None)

let test_define_and_find () =
  let s = simple () in
  check "A tuple" true (S.is_tuple s "A");
  check "BSet set" true (S.is_set s "BSet");
  check "element type" true (S.element_type s "BSet" = Some "B");
  check "attr type" true (S.attr_type s "B" "a" = Some "A");
  check "missing attr" true (S.attr_type s "B" "nope" = None)

let test_duplicate_definition_rejected () =
  let s = simple () in
  check "redefine rejected" true (throws_schema (fun () -> ignore (S.define_tuple s "A" [])))

let test_unknown_reference_rejected () =
  check "unknown attr type" true
    (throws_schema (fun () -> ignore (S.define_tuple S.empty "T" [ ("x", "Mystery") ])))

let test_duplicate_attr_rejected () =
  check "duplicate attribute" true
    (throws_schema (fun () ->
         ignore (S.define_tuple S.empty "T" [ ("x", "INT"); ("x", "STRING") ])))

let test_inheritance () =
  let s = simple () in
  let s = S.define_tuple s "C" ~supertypes:[ "B" ] [ ("z", "INT") ] in
  let attrs = S.attrs s "C" in
  check_int "inherits all" 3 (List.length attrs);
  check "inherited attr visible" true (S.attr_type s "C" "a" = Some "A");
  check "own attr visible" true (S.attr_type s "C" "z" = Some "INT");
  check "subtype reflexive" true (S.is_subtype s ~sub:"B" ~sup:"B");
  check "subtype direct" true (S.is_subtype s ~sub:"C" ~sup:"B");
  check "not supertype" false (S.is_subtype s ~sub:"B" ~sup:"C")

let test_multiple_inheritance () =
  let s = S.empty in
  let s = S.define_tuple s "P1" [ ("x", "INT") ] in
  let s = S.define_tuple s "P2" [ ("y", "STRING") ] in
  let s = S.define_tuple s "M" ~supertypes:[ "P1"; "P2" ] [ ("z", "DECIMAL") ] in
  check_int "all attrs" 3 (List.length (S.attrs s "M"));
  check "subtype of both" true
    (S.is_subtype s ~sub:"M" ~sup:"P1" && S.is_subtype s ~sub:"M" ~sup:"P2")

let test_diamond_inheritance () =
  let s = S.empty in
  let s = S.define_tuple s "Top" [ ("t", "INT") ] in
  let s = S.define_tuple s "L" ~supertypes:[ "Top" ] [ ("l", "INT") ] in
  let s = S.define_tuple s "R" ~supertypes:[ "Top" ] [ ("r", "INT") ] in
  let s = S.define_tuple s "Bot" ~supertypes:[ "L"; "R" ] [] in
  (* The diamond's shared attribute appears once. *)
  check_int "diamond attrs" 3 (List.length (S.attrs s "Bot"))

let test_inheritance_clash_rejected () =
  let s = S.empty in
  let s = S.define_tuple s "P1" [ ("x", "INT") ] in
  let s = S.define_tuple s "P2" [ ("x", "STRING") ] in
  let s = S.define_tuple s "M" ~supertypes:[ "P1"; "P2" ] [] in
  check "clashing inherited attr" true (throws_schema (fun () -> ignore (S.attrs s "M")))

let test_forward_and_recursion () =
  let s = S.empty in
  let s = S.define_forward s "Person" in
  let s = S.define_set s "Friends" "Person" in
  check "not yet well formed" true (Result.is_error (S.well_formed s));
  let s = S.define_tuple s "Person" [ ("name", "STRING"); ("friends", "Friends") ] in
  check "now well formed" true (Result.is_ok (S.well_formed s))

let test_subtypes_closure () =
  let s = simple () in
  let s = S.define_tuple s "B2" ~supertypes:[ "B" ] [] in
  let s = S.define_tuple s "B3" ~supertypes:[ "B2" ] [] in
  let closure = S.subtypes_closure s "B" in
  check "closure contains self" true (List.mem "B" closure);
  check "closure contains grandchild" true (List.mem "B3" closure);
  check_int "closure size" 3 (List.length closure)

let test_well_formed_simple () =
  check "simple schema well formed" true (Result.is_ok (S.well_formed (simple ())))

let test_paper_schemas_well_formed () =
  check "robot schema" true (Result.is_ok (S.well_formed (Workload.Schemas.Robot.schema ())));
  check "company schema" true
    (Result.is_ok (S.well_formed (Workload.Schemas.Company.schema ())))

(* A random well-formed schema: tuple type [Ti]'s supertypes are drawn
   from [T0 .. Ti-1] (acyclic, with multiple and diamond inheritance),
   and its own attributes from a small name pool.  Every name has one
   range type per schema, so redeclaring an inherited name is legal. *)
let random_schema (ranges, decls) =
  let names = [| "a"; "b"; "c"; "d"; "e"; "f" |] in
  let range k = [| "INT"; "STRING"; "DECIMAL"; "T0" |].(List.nth ranges k mod 4) in
  let s = S.define_forward S.empty "T0" in
  let _, s =
    List.fold_left
      (fun (i, s) (sups, own) ->
        let ty = Printf.sprintf "T%d" i in
        let supertypes =
          if i = 0 then []
          else
            List.sort_uniq compare (List.map (fun k -> Printf.sprintf "T%d" (k mod i)) sups)
        in
        let own = List.sort_uniq compare (List.map (fun k -> k mod Array.length names) own) in
        (i + 1, S.define_tuple s ty ~supertypes (List.map (fun k -> (names.(k), range k)) own)))
      (0, s) decls
  in
  (S.define_set s "TSET" "T0", Array.to_list names)

let schema_arb =
  QCheck.(
    pair
      (list_of_size (Gen.return 6) small_nat)
      (list_of_size Gen.(1 -- 8) (pair (list_of_size Gen.(0 -- 3) small_nat)
                                    (list_of_size Gen.(0 -- 3) small_nat))))

let prop_attr_type_equals_attrs =
  QCheck.Test.make ~name:"attr_type = assoc in attrs on random inheritance lattices"
    ~count:300 schema_arb (fun spec ->
      let s, names = random_schema spec in
      Result.is_ok (S.well_formed s)
      && List.for_all
           (fun ty ->
             List.for_all
               (fun a ->
                 let expected =
                   if S.is_tuple s ty then List.assoc_opt a (S.attrs s ty) else None
                 in
                 S.attr_type s ty a = expected)
               ("nope" :: names))
           (S.type_names s))

let test_attr_type_cycle () =
  let s = S.define_forward S.empty "A" in
  let s = S.define_tuple s "B" ~supertypes:[ "A" ] [ ("b", "INT") ] in
  let s = S.define_tuple s "A" ~supertypes:[ "B" ] [ ("a", "INT") ] in
  let s = S.define_tuple s "C" ~supertypes:[ "A" ] [] in
  check "cyclic schema ill-formed" true (Result.is_error (S.well_formed s));
  check "absent attribute through the cycle" true
    (throws_schema (fun () -> ignore (S.attr_type s "A" "nope")));
  check "from a subtype of the cycle" true
    (throws_schema (fun () -> ignore (S.attr_type s "C" "nope")));
  check "attrs agrees" true (throws_schema (fun () -> ignore (S.attrs s "C")))

let suite =
  [
    Alcotest.test_case "builtins" `Quick test_builtins;
    Alcotest.test_case "define and find" `Quick test_define_and_find;
    Alcotest.test_case "duplicate definition rejected" `Quick test_duplicate_definition_rejected;
    Alcotest.test_case "unknown reference rejected" `Quick test_unknown_reference_rejected;
    Alcotest.test_case "duplicate attribute rejected" `Quick test_duplicate_attr_rejected;
    Alcotest.test_case "single inheritance" `Quick test_inheritance;
    Alcotest.test_case "multiple inheritance" `Quick test_multiple_inheritance;
    Alcotest.test_case "diamond inheritance" `Quick test_diamond_inheritance;
    Alcotest.test_case "inheritance clash rejected" `Quick test_inheritance_clash_rejected;
    Alcotest.test_case "forward declarations" `Quick test_forward_and_recursion;
    Alcotest.test_case "subtypes closure" `Quick test_subtypes_closure;
    Alcotest.test_case "well-formedness" `Quick test_well_formed_simple;
    Alcotest.test_case "paper schemas" `Quick test_paper_schemas_well_formed;
    Qc.to_alcotest prop_attr_type_equals_attrs;
    Alcotest.test_case "attr_type on a cyclic schema" `Quick test_attr_type_cycle;
  ]
