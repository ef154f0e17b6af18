(* Tests for the GOM query language: lexer, parser, typechecker and the
   ASR-aware evaluator, driven by the paper's Queries 1-3. *)

module V = Gom.Value
module R = Workload.Schemas.Robot
module C = Workload.Schemas.Company

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------- lexer ---------------- *)

let test_lexer_basic () =
  let toks = Gql.Lexer.tokenize "select r.Name from r in OurRobots" in
  check_int "token count" 9 (List.length toks);
  check "keywords case-insensitive" true
    (Gql.Lexer.tokenize "SELECT x FROM y IN z" = Gql.Lexer.tokenize "select x from y in z")

let test_lexer_literals () =
  (match Gql.Lexer.tokenize "\"Utopia\" 42 12.5 true" with
  | [ Gql.Lexer.STR "Utopia"; Gql.Lexer.INT 42; Gql.Lexer.DEC 12.5; Gql.Lexer.TRUE;
      Gql.Lexer.EOF ] ->
    ()
  | _ -> Alcotest.fail "unexpected tokens");
  match Gql.Lexer.tokenize {|"a\"b\\c"|} with
  | [ Gql.Lexer.STR {|a"b\c|}; Gql.Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "escapes"

let test_lexer_operators () =
  match Gql.Lexer.tokenize "= != <> < <= > >= ( ) , ." with
  | [ Gql.Lexer.EQ; Gql.Lexer.NEQ; Gql.Lexer.NEQ; Gql.Lexer.LT; Gql.Lexer.LE;
      Gql.Lexer.GT; Gql.Lexer.GE; Gql.Lexer.LPAREN; Gql.Lexer.RPAREN; Gql.Lexer.COMMA;
      Gql.Lexer.DOT; Gql.Lexer.EOF ] ->
    ()
  | _ -> Alcotest.fail "operators"

let test_lexer_errors () =
  check "unterminated string" true
    (try
       ignore (Gql.Lexer.tokenize "\"abc");
       false
     with Gql.Lexer.Lex_error _ -> true);
  check "bad char" true
    (try
       ignore (Gql.Lexer.tokenize "a # b");
       false
     with Gql.Lexer.Lex_error _ -> true)

(* ---------------- parser ---------------- *)

let test_parse_query1 () =
  let q =
    Gql.Parser.parse
      {|select r.Name from r in OurRobots
        where r.Arm.MountedTool.ManufacturedBy.Location = "Utopia"|}
  in
  check_int "one select" 1 (List.length q.Gql.Ast.select);
  check_int "one binding" 1 (List.length q.Gql.Ast.from);
  (match q.Gql.Ast.where with
  | Gql.Ast.Cmp
      ( Gql.Ast.Eq,
        Gql.Ast.Path { var = "r"; attrs = [ "Arm"; "MountedTool"; "ManufacturedBy"; "Location" ] },
        Gql.Ast.Lit (Gql.Ast.Str "Utopia") ) ->
    ()
  | _ -> Alcotest.fail "where shape")

let test_parse_query2 () =
  let q =
    Gql.Parser.parse
      {|select d.Name from d in Mercedes, b in d.Manufactures.Composition
        where b.Name = "Door"|}
  in
  check_int "two bindings" 2 (List.length q.Gql.Ast.from);
  match List.nth q.Gql.Ast.from 1 with
  | "b", Gql.Ast.Via { var = "d"; attrs = [ "Manufactures"; "Composition" ] } -> ()
  | _ -> Alcotest.fail "via binding"

let test_parse_predicates () =
  let p = Gql.Parser.parse_pred "a.x = 1 and (b.y = 2 or not c.z = 3)" in
  match p with
  | Gql.Ast.And (Gql.Ast.Cmp _, Gql.Ast.Or (Gql.Ast.Cmp _, Gql.Ast.Not (Gql.Ast.Cmp _))) -> ()
  | _ -> Alcotest.fail "precedence"

let test_parse_in () =
  match Gql.Parser.parse_pred "b in d.Manufactures.Composition" with
  | Gql.Ast.In_pred (Gql.Ast.Path { var = "b"; attrs = [] }, { var = "d"; _ }) -> ()
  | _ -> Alcotest.fail "in predicate"

let test_parse_errors () =
  let bad s = try ignore (Gql.Parser.parse s); false with Gql.Parser.Parse_error _ -> true in
  check "missing from" true (bad "select x");
  check "missing select" true (bad "from x in Y");
  check "trailing garbage" true (bad "select x from x in Y where x.a = 1 zzz");
  check "bad binding" true (bad "select x from x Y")

(* ---------------- typechecker ---------------- *)

let robot_env () =
  let b = R.base () in
  let heap = Storage.Heap.create ~size_of:(fun _ -> 100) b.R.store in
  (b, (Core.Exec.make b.R.store heap))

let company_env () =
  let b = C.base () in
  let heap = Storage.Heap.create ~size_of:(fun _ -> 100) b.C.store in
  (b, (Core.Exec.make b.C.store heap))

let engine_of ?(indexes = []) env =
  let e = Engine.create env in
  List.iter (Engine.register e) indexes;
  e

let stitch_index (c : Engine.choice) =
  match c.Engine.chosen with
  | Engine.Plan.Stitch { index; _ } -> Some index
  | _ -> None

(* Physical comparison: [Asr.t] holds closures, so structural [=] on the
   index would raise. *)
let stitched_through c a =
  match stitch_index c with Some x -> x == a | None -> false

(* A pinned profile big enough that the analytical model always prefers
   a supported plan — the demo bases are so small that the planner may
   (correctly) judge an exhaustive scan cheaper, so tests that must see
   the stitch machinery pin the decision. *)
let favour_index engine path =
  let n = Gom.Path.length path in
  Engine.set_profile engine path
    (Costmodel.Profile.make
       ~c:(List.init (n + 1) (fun _ -> 10_000.))
       ~d:(List.init n (fun _ -> 10_000.))
       ~fan:(List.init n (fun _ -> 1.))
       ())

let test_check_ok () =
  let b, _ = robot_env () in
  let q =
    Gql.Typecheck.check b.R.store
      (Gql.Parser.parse
         {|select r.Name from r in OurRobots where r.Arm.MountedTool.Function = "welding"|})
  in
  (match q.Gql.Typecheck.bindings with
  | [ ("r", Gql.Typecheck.Named_set (_, "ROBOT"), "ROBOT") ] -> ()
  | _ -> Alcotest.fail "binding resolution");
  check_int "select arity" 1 (List.length q.Gql.Typecheck.select)

let test_check_extent_binding () =
  let b, _ = company_env () in
  let q =
    Gql.Typecheck.check b.C.store
      (Gql.Parser.parse {|select p.Name from p in Product|})
  in
  match q.Gql.Typecheck.bindings with
  | [ ("p", Gql.Typecheck.Extent "Product", "Product") ] -> ()
  | _ -> Alcotest.fail "extent binding"

let test_check_errors () =
  let b, _ = company_env () in
  let bad s =
    try
      ignore (Gql.Typecheck.check b.C.store (Gql.Parser.parse s));
      false
    with Gql.Typecheck.Check_error _ -> true
  in
  check "unknown collection" true (bad "select x.Name from x in Nowhere");
  check "unknown attribute" true (bad "select d.Nope from d in Mercedes");
  check "unbound var" true (bad "select d.Name from d in Mercedes where z.Name = \"x\"");
  check "duplicate var" true
    (bad "select d.Name from d in Mercedes, d in Mercedes");
  check "via before binding" true (bad "select b.Name from b in d.Manufactures");
  check "type mismatch" true (bad "select d.Name from d in Mercedes where d.Name = 42")

(* ---------------- evaluation ---------------- *)

let test_query1_eval () =
  let b, env = robot_env () in
  let engine = engine_of env in
  let r =
    Gql.Eval.query ~engine
      {|select r.Name from r in OurRobots
        where r.Arm.MountedTool.ManufacturedBy.Location = "Utopia"|}
  in
  check_int "three robots" 3 (List.length r.Gql.Eval.rows);
  check "row content" true (List.mem [ V.Str "R2D2" ] r.Gql.Eval.rows);
  ignore b

let test_query1_with_index () =
  let b, env = robot_env () in
  let path = R.location_path b.R.store in
  let a = Core.Asr.create b.R.store path Core.Extension.Canonical (Core.Decomposition.trivial ~m:4) in
  let engine = engine_of ~indexes:[ a ] env in
  favour_index engine path;
  let r =
    Gql.Eval.query ~engine
      {|select r.Name from r in OurRobots
        where r.Arm.MountedTool.ManufacturedBy.Location = "Utopia"|}
  in
  (match r.Gql.Eval.plan with
  | Gql.Eval.Merged_backward { choice; _ } when stitched_through choice a -> ()
  | _ -> Alcotest.failf "expected indexed plan, got %s" (Gql.Eval.plan_to_string r.Gql.Eval.plan));
  check_int "same three robots" 3 (List.length r.Gql.Eval.rows)

let test_query2_eval () =
  let _, env = company_env () in
  let engine = engine_of env in
  let r =
    Gql.Eval.query ~engine
      {|select d.Name from d in Mercedes, b in d.Manufactures.Composition
        where b.Name = "Door"|}
  in
  check "divisions found" true
    (r.Gql.Eval.rows = [ [ V.Str "Auto" ]; [ V.Str "Truck" ] ])

let test_query2_merged_with_index () =
  let b, env = company_env () in
  let path = C.name_path b.C.store in
  let a = Core.Asr.create b.C.store path Core.Extension.Full (Core.Decomposition.binary ~m:5) in
  let engine = engine_of ~indexes:[ a ] env in
  (* The query path is the index path seen from the Division anchor. *)
  let query_path =
    Gom.Path.make (Gom.Store.schema b.C.store) "Division"
      [ "Manufactures"; "Composition"; "Name" ]
  in
  favour_index engine query_path;
  let r =
    Gql.Eval.query ~engine
      {|select d.Name from d in Mercedes, b in d.Manufactures.Composition
        where b.Name = "Door"|}
  in
  (match r.Gql.Eval.plan with
  | Gql.Eval.Merged_backward { choice; path = p; _ } ->
    check "merged full path" true
      (Gom.Path.to_string p = "Division.Manufactures.Composition.Name");
    check "stitched through the full ASR" true (stitched_through choice a)
  | other -> Alcotest.failf "expected merged plan, got %s" (Gql.Eval.plan_to_string other));
  check "same answer as navigation" true
    (r.Gql.Eval.rows = [ [ V.Str "Auto" ]; [ V.Str "Truck" ] ])

let test_subrange_embedding () =
  (* A query anchored mid-path: the planner embeds Product.Composition
     .Name at positions (1,3) of the registered Division path and lets
     equation 35 decide — the full extension supports it, the
     left-complete one does not. *)
  let b, env = company_env () in
  let path = C.name_path b.C.store in
  let full =
    Core.Asr.create b.C.store path Core.Extension.Full (Core.Decomposition.binary ~m:5)
  in
  let left =
    Core.Asr.create b.C.store path Core.Extension.Left_complete
      (Core.Decomposition.binary ~m:5)
  in
  let text =
    {|select p.Name from p in Product, bp in p.Composition where bp.Name = "Pepper"|}
  in
  let query_path =
    Gom.Path.make (Gom.Store.schema b.C.store) "Product" [ "Composition"; "Name" ]
  in
  let full_engine = engine_of ~indexes:[ full ] env in
  favour_index full_engine query_path;
  let with_full = Gql.Eval.query ~engine:full_engine text in
  (match with_full.Gql.Eval.plan with
  | Gql.Eval.Merged_backward
      { choice = { Engine.chosen = Engine.Plan.Stitch { i = 1; j = 3; _ }; _ }; _ } ->
    ()
  | other ->
    Alcotest.failf "expected (1,3) embedding, got %s" (Gql.Eval.plan_to_string other));
  (* The sausage is not reachable from any division; only the full
     extension knows it. *)
  check "sausage found via full" true (with_full.Gql.Eval.rows = [ [ V.Str "Sausage" ] ]);
  let left_engine = engine_of ~indexes:[ left ] env in
  favour_index left_engine query_path;
  let with_left = Gql.Eval.query ~engine:left_engine text in
  (match with_left.Gql.Eval.plan with
  | Gql.Eval.Merged_backward
      { choice = { Engine.chosen = Engine.Plan.Extent_scan _; _ }; _ } ->
    ()
  | other ->
    Alcotest.failf "left cannot serve (1,3): got %s" (Gql.Eval.plan_to_string other));
  check "scan agrees" true (with_left.Gql.Eval.rows = with_full.Gql.Eval.rows)

let test_query3_eval () =
  let _, env = company_env () in
  let engine = engine_of env in
  let r =
    Gql.Eval.query ~engine
      {|select d.Manufactures.Composition.Name from d in Mercedes where d.Name = "Auto"|}
  in
  check "base part names of Auto" true (r.Gql.Eval.rows = [ [ V.Str "Door" ] ])

let test_query3_forward_through_index () =
  (* Select-paths are evaluated through a covering ASR when one is
     registered (the paper's forward queries). *)
  let b, env = company_env () in
  let path = C.name_path b.C.store in
  let a =
    Core.Asr.create b.C.store path Core.Extension.Left_complete
      (Core.Decomposition.trivial ~m:5)
  in
  let text =
    {|select d.Manufactures.Composition.Name from d in Mercedes where d.Name = "Auto"|}
  in
  let plain = Gql.Eval.query ~engine:(engine_of env) text in
  let indexed = Gql.Eval.query ~engine:(engine_of ~indexes:[ a ] env) text in
  check "same rows through the index" true (plain.Gql.Eval.rows = indexed.Gql.Eval.rows);
  (* On a larger base the index saves pages for the select-path too. *)
  let spec =
    Workload.Generator.spec ~seed:12
      ~counts:[ 50; 800; 1600; 3200 ]
      ~defined:[ 50; 750; 1500 ] ~fan:[ 8; 2; 2 ] ()
  in
  let store, gpath = Workload.Generator.build spec in
  let heap = Storage.Heap.create ~size_of:(Workload.Generator.size_of spec) store in
  let genv = (Core.Exec.make store heap) in
  let ga =
    Core.Asr.create store gpath Core.Extension.Left_complete
      (Core.Decomposition.trivial ~m:(Gom.Path.arity gpath - 1))
  in
  let gtext = {|select t.A1.A2.A3 from t in T0 where t.Tag = "t0_0"|} in
  let plain = Gql.Eval.query ~engine:(engine_of genv) gtext in
  let indexed = Gql.Eval.query ~engine:(engine_of ~indexes:[ ga ] genv) gtext in
  check "same rows on generated base" true (plain.Gql.Eval.rows = indexed.Gql.Eval.rows);
  check "index saves forward pages" true
    (indexed.Gql.Eval.pages < plain.Gql.Eval.pages)

let test_in_predicate_eval () =
  let b, env = company_env () in
  let engine = engine_of env in
  let r =
    Gql.Eval.query ~engine
      {|select d.Name from d in Mercedes, p in d.Manufactures
        where p.Name = "MB Trak"|}
  in
  check "only Truck makes MB Trak" true (r.Gql.Eval.rows = [ [ V.Str "Truck" ] ]);
  ignore b

let test_order_by_and_limit () =
  let _, env = company_env () in
  let engine = engine_of env in
  let r =
    Gql.Eval.query ~engine {|select b.Price, b.Name from b in BasePart order by b.Price desc|}
  in
  check "descending by price" true
    (r.Gql.Eval.rows
    = [ [ V.Dec 1205.50; V.Str "Door" ]; [ V.Dec 0.12; V.Str "Pepper" ] ]);
  let r =
    Gql.Eval.query ~engine
      {|select b.Name from b in BasePart order by 1 asc limit 1|}
  in
  check "column reference + limit" true (r.Gql.Eval.rows = [ [ V.Str "Door" ] ]);
  let r = Gql.Eval.query ~engine {|select b.Name from b in BasePart limit 0|} in
  check "limit 0" true (r.Gql.Eval.rows = []);
  (* Errors. *)
  let bad s =
    try ignore (Gql.Eval.query ~engine s); false with
    | Gql.Typecheck.Check_error _ | Gql.Parser.Parse_error _ -> true
  in
  check "order by non-column" true
    (bad {|select b.Name from b in BasePart order by b.Price|});
  check "order by out of range" true
    (bad {|select b.Name from b in BasePart order by 3|});
  check "limit needs integer" true (bad {|select b.Name from b in BasePart limit x|})

let test_order_by_with_indexed_plan () =
  let b, env = company_env () in
  let path = C.name_path b.C.store in
  let a = Core.Asr.create b.C.store path Core.Extension.Full (Core.Decomposition.binary ~m:5) in
  let r =
    Gql.Eval.query ~engine:(engine_of ~indexes:[ a ] env)
      {|select d.Name from d in Mercedes, bp in d.Manufactures.Composition
        where bp.Name = "Door" order by d.Name desc|}
  in
  check "ordered over merged plan" true
    (r.Gql.Eval.rows = [ [ V.Str "Truck" ]; [ V.Str "Auto" ] ])

let test_multi_select () =
  let _, env = company_env () in
  let engine = engine_of env in
  let r =
    Gql.Eval.query ~engine
      {|select d.Name, p.Name from d in Mercedes, p in d.Manufactures|}
  in
  check_int "division x product pairs" 3 (List.length r.Gql.Eval.rows)

let test_comparison_operators () =
  let _, env = company_env () in
  let engine = engine_of env in
  let r =
    Gql.Eval.query ~engine
      {|select b.Name from b in BasePart where b.Price > 1.0|}
  in
  check "expensive parts" true (r.Gql.Eval.rows = [ [ V.Str "Door" ] ]);
  let r =
    Gql.Eval.query ~engine {|select b.Name from b in BasePart where b.Price <= 1.0|}
  in
  check "cheap parts" true (r.Gql.Eval.rows = [ [ V.Str "Pepper" ] ])

let test_indexed_plan_saves_pages () =
  let spec =
    Workload.Generator.spec ~seed:5
      ~counts:[ 300; 600; 1200; 2400 ]
      ~defined:[ 280; 550; 1100 ] ~fan:[ 2; 2; 2 ] ()
  in
  let store, _chain = Workload.Generator.build spec in
  let heap = Storage.Heap.create ~size_of:(Workload.Generator.size_of spec) store in
  let env = (Core.Exec.make store heap) in
  let target =
    match Gom.Store.extent store "T3" with o :: _ -> Gom.Oid.to_int o | [] -> assert false
  in
  ignore target;
  (* Filter on the Tag attribute of the last level. *)
  let full_path =
    Gom.Path.make (Gom.Store.schema store) "T0" [ "A1"; "A2"; "A3"; "Tag" ]
  in
  let a =
    Core.Asr.create store full_path Core.Extension.Full
      (Core.Decomposition.binary ~m:(Gom.Path.arity full_path - 1))
  in
  let text = {|select t from t in T0 where t.A1.A2.A3.Tag = "t3_7"|} in
  let without = Gql.Eval.query ~engine:(engine_of env) text in
  let with_index = Gql.Eval.query ~engine:(engine_of ~indexes:[ a ] env) text in
  check "same rows" true (without.Gql.Eval.rows = with_index.Gql.Eval.rows);
  check "indexed plan chosen" true
    (match with_index.Gql.Eval.plan with
    | Gql.Eval.Merged_backward { choice; _ } -> stitched_through choice a
    | _ -> false);
  check "pages saved" true (with_index.Gql.Eval.pages * 3 < without.Gql.Eval.pages)

(* ---------------- planner v2: residuals, index choice, cost veto ---- *)

let gen_env () =
  let spec =
    Workload.Generator.spec ~seed:5
      ~counts:[ 300; 600; 1200; 2400 ]
      ~defined:[ 280; 550; 1100 ] ~fan:[ 2; 2; 2 ] ()
  in
  let store, _ = Workload.Generator.build spec in
  let heap = Storage.Heap.create ~size_of:(Workload.Generator.size_of spec) store in
  let env = (Core.Exec.make store heap) in
  let tag_path = Gom.Path.make (Gom.Store.schema store) "T0" [ "A1"; "A2"; "A3"; "Tag" ] in
  (store, env, tag_path)

let test_residual_conjunct () =
  let store, env, tag_path = gen_env () in
  let a =
    Core.Asr.create store tag_path Core.Extension.Full
      (Core.Decomposition.binary ~m:(Gom.Path.arity tag_path - 1))
  in
  let text =
    {|select t from t in T0 where t.A1.A2.A3.Tag = "t3_7" and t.Tag != "t0_0"|}
  in
  let with_index = Gql.Eval.query ~engine:(engine_of ~indexes:[ a ] env) text in
  (match with_index.Gql.Eval.plan with
  | Gql.Eval.Merged_backward { choice; residual; _ } ->
    check "stitched through the ASR" true (stitched_through choice a);
    check "residual retained" true (residual <> Gql.Typecheck.TTrue)
  | other -> Alcotest.failf "expected merged plan, got %s" (Gql.Eval.plan_to_string other));
  let without = Gql.Eval.query ~engine:(engine_of env) text in
  check "residual answers agree" true (without.Gql.Eval.rows = with_index.Gql.Eval.rows)

let test_residual_on_other_var_blocks_merge () =
  let store, env, tag_path = gen_env () in
  let a =
    Core.Asr.create store tag_path Core.Extension.Full
      (Core.Decomposition.binary ~m:(Gom.Path.arity tag_path - 1))
  in
  (* The second conjunct mentions the chained variable x, so the merged
     plan would lose it: the planner must fall back. *)
  let text =
    {|select t from t in T0, x in t.A1 where x.A2.A3.Tag = "t3_7" and x.Tag != "t1_0"|}
  in
  let r = Gql.Eval.query ~engine:(engine_of ~indexes:[ a ] env) text in
  check "nested loop" true
    (match r.Gql.Eval.plan with Gql.Eval.Nested_loop -> true | _ -> false)

let test_planner_picks_smaller_index () =
  let store, env, tag_path = gen_env () in
  let m = Gom.Path.arity tag_path - 1 in
  (* full holds many more tuples than canonical. *)
  let big = Core.Asr.create store tag_path Core.Extension.Full (Core.Decomposition.binary ~m) in
  let small =
    Core.Asr.create store tag_path Core.Extension.Canonical (Core.Decomposition.trivial ~m)
  in
  let q =
    Gql.Typecheck.check store
      (Gql.Parser.parse {|select t from t in T0 where t.A1.A2.A3.Tag = "t3_7"|})
  in
  match Gql.Eval.plan ~engine:(engine_of ~indexes:[ big; small ] env) q with
  | Gql.Eval.Merged_backward { choice; _ } -> (
    match stitch_index choice with
    | Some chosen -> check "cheapest index chosen" true (chosen == small)
    | None ->
      Alcotest.failf "expected a stitch, got %s"
        (Engine.Plan.to_string choice.Engine.chosen))
  | other -> Alcotest.failf "expected merged plan, got %s" (Gql.Eval.plan_to_string other)

let test_cost_based_veto () =
  let store, env, tag_path = gen_env () in
  let m = Gom.Path.arity tag_path - 1 in
  let index =
    Core.Asr.create store tag_path Core.Extension.Full (Core.Decomposition.trivial ~m)
  in
  let q =
    Gql.Typecheck.check store
      (Gql.Parser.parse {|select t from t in T0 where t.A1.A2.A3.Tag = "t3_7"|})
  in
  (* A profile where the non-decomposed full relation loses to the scan
     (the figure 8 situation: all pages of the single partition must be
     inspected for a backward query keyed on the last column... here the
     bwd tree covers it, so instead fabricate a profile whose predicted
     supported cost exceeds the scan). *)
  let losing_profile =
    Costmodel.Profile.make
      ~c:[ 10.; 10.; 10.; 10.; 10. ]
      ~d:[ 10.; 10.; 10.; 10. ]
      ~fan:[ 100.; 100.; 100.; 100. ]
      ~sizes:[ 4000.; 4000.; 4000.; 4000.; 4000. ]
      ()
  in
  let engine = engine_of ~indexes:[ index ] env in
  Engine.set_profile engine tag_path losing_profile;
  (match Gql.Eval.plan ~engine q with
  | Gql.Eval.Merged_backward { choice; _ } ->
    check "index vetoed when model says scan wins" true
      (Option.is_none (stitch_index choice)
      || Costmodel.Query_cost.q losing_profile Core.Extension.Full
           (Core.Decomposition.trivial ~m:4) Costmodel.Query_cost.Bw 0 4
         <= Costmodel.Query_cost.qnas losing_profile Costmodel.Query_cost.Bw 0 4)
  | _ -> Alcotest.fail "expected merged plan");
  (* And with a profile that favours the index, it is kept: pinning a
     new profile bumps the engine generation, so the cached losing plan
     is invalidated and the query replans. *)
  let winning_profile = Engine.measure_profile store tag_path in
  Engine.set_profile engine tag_path winning_profile;
  match Gql.Eval.plan ~engine q with
  | Gql.Eval.Merged_backward { choice; _ } when stitched_through choice index -> ()
  | _ -> Alcotest.fail "index should survive a favourable profile"

let suite =
  [
    Alcotest.test_case "lexer basics" `Quick test_lexer_basic;
    Alcotest.test_case "residual conjunct" `Quick test_residual_conjunct;
    Alcotest.test_case "residual on chained var blocks merge" `Quick
      test_residual_on_other_var_blocks_merge;
    Alcotest.test_case "planner picks smaller index" `Quick test_planner_picks_smaller_index;
    Alcotest.test_case "cost-based veto" `Quick test_cost_based_veto;
    Alcotest.test_case "lexer literals" `Quick test_lexer_literals;
    Alcotest.test_case "lexer operators" `Quick test_lexer_operators;
    Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
    Alcotest.test_case "parse Query 1" `Quick test_parse_query1;
    Alcotest.test_case "parse Query 2" `Quick test_parse_query2;
    Alcotest.test_case "predicate precedence" `Quick test_parse_predicates;
    Alcotest.test_case "parse in-predicate" `Quick test_parse_in;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "typecheck ok" `Quick test_check_ok;
    Alcotest.test_case "typecheck extent binding" `Quick test_check_extent_binding;
    Alcotest.test_case "typecheck errors" `Quick test_check_errors;
    Alcotest.test_case "Query 1 evaluation" `Quick test_query1_eval;
    Alcotest.test_case "Query 1 with index" `Quick test_query1_with_index;
    Alcotest.test_case "Query 2 evaluation" `Quick test_query2_eval;
    Alcotest.test_case "Query 2 merged + indexed" `Quick test_query2_merged_with_index;
    Alcotest.test_case "sub-range embedding" `Quick test_subrange_embedding;
    Alcotest.test_case "Query 3 evaluation" `Quick test_query3_eval;
    Alcotest.test_case "Query 3 forward through index" `Quick test_query3_forward_through_index;
    Alcotest.test_case "filter on intermediate level" `Quick test_in_predicate_eval;
    Alcotest.test_case "order by and limit" `Quick test_order_by_and_limit;
    Alcotest.test_case "order by over indexed plan" `Quick test_order_by_with_indexed_plan;
    Alcotest.test_case "multi-column select" `Quick test_multi_select;
    Alcotest.test_case "comparison operators" `Quick test_comparison_operators;
    Alcotest.test_case "indexed plan saves pages" `Quick test_indexed_plan_saves_pages;
  ]
