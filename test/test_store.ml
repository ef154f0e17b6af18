(* Unit tests for Gom.Store: instantiation, typing, mutation, events. *)

module S = Gom.Schema
module V = Gom.Value
module St = Gom.Store

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let throws_type f = try f (); false with St.Type_error _ -> true

let schema () =
  let s = S.empty in
  let s = S.define_tuple s "Leaf" [ ("name", "STRING") ] in
  let s = S.define_tuple s "SpecialLeaf" ~supertypes:[ "Leaf" ] [ ("extra", "INT") ] in
  let s = S.define_set s "LeafSet" "Leaf" in
  let s = S.define_tuple s "Node" [ ("leaf", "Leaf"); ("leaves", "LeafSet"); ("n", "INT") ] in
  s

let store () = St.create (schema ())

let test_new_object_nulls () =
  let st = store () in
  let o = St.new_object st "Node" in
  check "attr starts NULL" true (V.is_null (St.get_attr st o "leaf"));
  check "int attr starts NULL" true (V.is_null (St.get_attr st o "n"));
  check "exists" true (St.mem st o)

let test_new_set_empty () =
  let st = store () in
  let s = St.new_object st "LeafSet" in
  check_int "empty set" 0 (List.length (St.elements st s))

let test_cannot_instantiate_atomic () =
  let st = store () in
  check "atomic" true (throws_type (fun () -> ignore (St.new_object st "STRING")));
  check "unknown" true (throws_type (fun () -> ignore (St.new_object st "Nope")))

let test_set_attr_typing () =
  let st = store () in
  let node = St.new_object st "Node" in
  let leaf = St.new_object st "Leaf" in
  St.set_attr st node "leaf" (V.Ref leaf);
  check "stored" true (V.equal (St.get_attr st node "leaf") (V.Ref leaf));
  St.set_attr st node "n" (V.Int 42);
  (* wrong atomic type; the message names the attribute *)
  Alcotest.check_raises "int into string"
    (St.Type_error
       ("set_attr n: value " ^ V.to_string (V.Str "x") ^ " does not conform to type INT"))
    (fun () -> St.set_attr st node "n" (V.Str "x"));
  (* wrong object type *)
  let other = St.new_object st "Node" in
  check "node into leaf attr" true
    (throws_type (fun () -> St.set_attr st node "leaf" (V.Ref other)));
  (* unknown attribute *)
  check "unknown attr" true (throws_type (fun () -> St.set_attr st node "zz" V.Null))

let test_subtype_substitutability () =
  let st = store () in
  let node = St.new_object st "Node" in
  let special = St.new_object st "SpecialLeaf" in
  St.set_attr st node "leaf" (V.Ref special);
  check "subtype accepted" true (V.equal (St.get_attr st node "leaf") (V.Ref special))

let test_set_elements_typing () =
  let st = store () in
  let s = St.new_object st "LeafSet" in
  let leaf = St.new_object st "Leaf" in
  let node = St.new_object st "Node" in
  St.insert_elem st s (V.Ref leaf);
  check_int "one element" 1 (List.length (St.elements st s));
  Alcotest.check_raises "wrong elem type"
    (St.Type_error
       ("insert_elem: value " ^ V.to_string (V.Ref node) ^ " does not conform to type Leaf"))
    (fun () -> St.insert_elem st s (V.Ref node));
  check "null elem" true (throws_type (fun () -> St.insert_elem st s V.Null));
  (* duplicate insert is a no-op *)
  St.insert_elem st s (V.Ref leaf);
  check_int "still one element" 1 (List.length (St.elements st s));
  St.remove_elem st s (V.Ref leaf);
  check_int "removed" 0 (List.length (St.elements st s))

let test_extent () =
  let st = store () in
  let l1 = St.new_object st "Leaf" in
  let sp = St.new_object st "SpecialLeaf" in
  let _n = St.new_object st "Node" in
  check_int "exact extent" 1 (List.length (St.extent st "Leaf"));
  check_int "deep extent" 2 (List.length (St.extent ~deep:true st "Leaf"));
  check "deep extent members" true
    (List.mem l1 (St.extent ~deep:true st "Leaf")
    && List.mem sp (St.extent ~deep:true st "Leaf"));
  check_int "count deep" 2 (St.count ~deep:true st "Leaf")

let test_events () =
  let st = store () in
  let log = ref [] in
  let (_ : St.subscription) = St.subscribe st (fun ev -> log := ev :: !log) in
  let node = St.new_object st "Node" in
  let leaf = St.new_object st "Leaf" in
  St.set_attr st node "leaf" (V.Ref leaf);
  St.set_attr st node "leaf" (V.Ref leaf) (* no-op: no event *);
  let s = St.new_object st "LeafSet" in
  St.insert_elem st s (V.Ref leaf);
  St.remove_elem st s (V.Ref leaf);
  let kinds =
    List.rev_map
      (function
        | St.Created _ -> "created"
        | St.Attr_set _ -> "attr"
        | St.Set_inserted _ -> "ins"
        | St.Set_removed _ -> "rem"
        | St.Deleted _ -> "del")
      !log
  in
  Alcotest.(check (list string))
    "event sequence"
    [ "created"; "created"; "attr"; "created"; "ins"; "rem" ]
    kinds

let test_referencers () =
  let st = store () in
  let node1 = St.new_object st "Node" in
  let node2 = St.new_object st "Node" in
  let leaf = St.new_object st "Leaf" in
  St.set_attr st node1 "leaf" (V.Ref leaf);
  let s = St.new_object st "LeafSet" in
  St.insert_elem st s (V.Ref leaf);
  St.set_attr st node2 "leaves" (V.Ref s);
  let direct = St.referencers st "Node" "leaf" leaf in
  check "direct referencer" true (direct = [ (node1, None) ]);
  let via_set = St.referencers st "Node" "leaves" leaf in
  check "set referencer" true (via_set = [ (node2, Some s) ])

let test_delete_nullifies () =
  let st = store () in
  let node = St.new_object st "Node" in
  let leaf = St.new_object st "Leaf" in
  let s = St.new_object st "LeafSet" in
  St.set_attr st node "leaf" (V.Ref leaf);
  St.set_attr st node "leaves" (V.Ref s);
  St.insert_elem st s (V.Ref leaf);
  St.delete st leaf;
  check "gone" false (St.mem st leaf);
  check "attr nullified" true (V.is_null (St.get_attr st node "leaf"));
  check_int "set emptied" 0 (List.length (St.elements st s));
  check_int "extent shrank" 0 (List.length (St.extent st "Leaf"))

let test_names () =
  let st = store () in
  let o = St.new_object st "Node" in
  St.bind_name st "root" o;
  check "found" true (St.find_name st "root" = Some o);
  check "missing" true (St.find_name st "other" = None);
  St.delete st o;
  check "name dropped with object" true (St.find_name st "root" = None)

(* --- reverse reference index ------------------------------------- *)

(* Tuple, set and list types that refer to each other, a subtype on
   each side, and attributes through which a node can reach itself. *)
let model_schema () =
  let s = S.empty in
  let s = S.define_forward s "Node" in
  let s = S.define_forward s "NodeSet" in
  let s = S.define_forward s "NodeList" in
  let s = S.define_tuple s "Leaf" [ ("name", "STRING") ] in
  let s = S.define_tuple s "SpecialLeaf" ~supertypes:[ "Leaf" ] [ ("extra", "INT") ] in
  let s = S.define_set s "LeafSet" "Leaf" in
  let s = S.define_list s "LeafList" "Leaf" in
  let s =
    S.define_tuple s "Node"
      [
        ("leaf", "Leaf"); ("leaves", "LeafSet"); ("seq", "LeafList"); ("next", "Node");
        ("prev", "Node"); ("kids", "NodeSet"); ("line", "NodeList"); ("n", "INT");
      ]
  in
  let s = S.define_tuple s "BigNode" ~supertypes:[ "Node" ] [ ("alt", "Node") ] in
  let s = S.define_set s "NodeSet" "Node" in
  let s = S.define_list s "NodeList" "Node" in
  s

(* The oracle: the extent walk [referencers] and [Maintenance.owners]
   were before the store kept a reverse index. *)
let walk_referencers st ty attr target =
  let schema = St.schema st in
  let v = V.Ref target in
  let decl_is_set =
    match S.attr_type schema ty attr with
    | Some rty -> S.is_set schema rty || S.element_type schema rty <> None
    | None -> invalid_arg attr
  in
  St.extent ~deep:true st ty
  |> List.filter_map (fun o ->
         match St.get_attr st o attr with
         | V.Null -> None
         | V.Ref s when decl_is_set ->
           if List.exists (V.equal v) (St.elements st s) then Some (o, Some s) else None
         | direct -> if V.equal direct v then Some (o, None) else None)

let walk_holders st ty attr target =
  St.extent ~deep:true st ty
  |> List.filter (fun o -> V.equal (St.get_attr st o attr) (V.Ref target))

let live st = St.fold_objects st ~init:[] ~f:(fun acc i -> Gom.Instance.oid i :: acc)

let index_agrees st =
  let schema = St.schema st in
  let objs = live st in
  List.for_all
    (fun ty ->
      List.for_all
        (fun (attr, aty) ->
          S.is_atomic schema aty
          || List.for_all
               (fun x ->
                 St.referencers st ty attr x = walk_referencers st ty attr x
                 && St.holders st ty attr x = walk_holders st ty attr x)
               objs)
        (S.attrs schema ty))
    [ "Node"; "BigNode" ]

let model_types =
  [| "Leaf"; "SpecialLeaf"; "LeafSet"; "LeafList"; "Node"; "BigNode"; "NodeSet"; "NodeList" |]

let model_store () =
  let st = St.create (model_schema ()) in
  Array.iter (fun ty -> ignore (St.new_object st ty)) model_types;
  st

(* One mutation decoded from three small integers, so failing streams
   shrink.  [deleted] holds the deleted objects [restore_object] may
   bring back. *)
let model_mutate st deleted (op, a, b) =
  let schema = St.schema st in
  let objs = Array.of_list (live st) in
  let pick arr k = arr.(k mod Array.length arr) in
  let of_type ty =
    Array.of_list
      (List.filter (fun o -> S.is_subtype schema ~sub:(St.type_of st o) ~sup:ty) (live st))
  in
  let collections =
    Array.of_list
      (List.filter (fun o -> S.element_type schema (St.type_of st o) <> None) (live st))
  in
  let elem_of c k =
    match S.element_type schema (St.type_of st c) with
    | Some ety when of_type ety <> [||] -> Some (V.Ref (pick (of_type ety) k))
    | Some _ | None -> None
  in
  let nodes = of_type "Node" in
  let assign h attr k =
    match S.attr_type schema (St.type_of st h) attr with
    | Some "INT" -> St.set_attr st h attr (V.Int k)
    | Some "STRING" -> St.set_attr st h attr (V.Str (string_of_int k))
    | Some aty ->
      let c = of_type aty in
      St.set_attr st h attr (if c = [||] || k mod 5 = 0 then V.Null else V.Ref (pick c k))
    | None -> ()
  in
  match op with
  | 0 -> ignore (St.new_object st (pick model_types a))
  | 1 ->
    (* Assignment: NULL, reassignment and atomic values included. *)
    let tuples = Array.append (of_type "Leaf") nodes in
    if tuples <> [||] then
      let h = pick tuples a in
      let attrs = Array.of_list (S.attrs schema (St.type_of st h)) in
      assign h (fst (pick attrs b)) (a + b)
  | 2 | 3 ->
    (* Insert; a list takes duplicates. *)
    if collections <> [||] then
      let c = pick collections a in
      Option.iter (St.insert_elem st c) (elem_of c b)
  | 4 -> (
    if collections <> [||] then
      let c = pick collections a in
      match St.elements st c with
      | [] -> ()
      | es -> St.remove_elem st c (List.nth es (b mod List.length es)))
  | 5 ->
    if objs <> [||] then begin
      let o = pick objs a in
      deleted := (o, St.type_of st o) :: !deleted;
      St.delete st o
    end
  | 6 -> (
    match !deleted with
    | (o, ty) :: rest ->
      deleted := rest;
      St.restore_object st o ty
    | [] -> ())
  | 7 ->
    (* Two holders share one set. *)
    if nodes <> [||] then begin
      let attr = if b mod 2 = 0 then "leaves" else "kids" in
      let sets = of_type (if attr = "leaves" then "LeafSet" else "NodeSet") in
      if sets <> [||] then begin
        let s = V.Ref (pick sets b) in
        St.set_attr st (pick nodes a) attr s;
        St.set_attr st (pick nodes (a + 1 + b)) attr s
      end
    end
  | 8 ->
    (* A node refers to itself, directly and through its own set. *)
    if nodes <> [||] then begin
      let h = pick nodes a in
      St.set_attr st h (if b mod 2 = 0 then "next" else "prev") (V.Ref h);
      match St.get_attr st h "kids" with
      | V.Ref s -> St.insert_elem st s (V.Ref h)
      | _ -> ()
    end
  | _ ->
    if nodes <> [||] then
      let h = pick nodes a in
      assign h (pick [| "leaves"; "seq"; "kids"; "line" |] b) (a + b + 1)

let prop_index_equals_walk =
  QCheck.Test.make ~name:"reverse reference index = extent walk after random mutations"
    ~count:(Qc.iters_env "ASR_REFINDEX_COUNT" 200)
    QCheck.(
      pair (int_bound 8)
        (list_of_size Gen.(1 -- 30) (triple (int_bound 9) small_nat small_nat)))
    (fun (unchecked, ops) ->
      (* The first [unchecked] mutations run before the index exists, so
         the lazy build meets deletes, restores and shared sets too. *)
      let st = model_store () in
      let deleted = ref [] in
      List.for_all Fun.id
        (List.mapi
           (fun k op ->
             model_mutate st deleted op;
             k < unchecked || index_agrees st)
           ops))

let event_to_string = function
  | St.Created o -> Format.asprintf "created %a" Gom.Oid.pp o
  | St.Attr_set { obj; attr; old_value; new_value } ->
    Format.asprintf "attr %a.%s %s -> %s" Gom.Oid.pp obj attr (V.to_string old_value)
      (V.to_string new_value)
  | St.Set_inserted { set; elem } ->
    Format.asprintf "insert %a %s" Gom.Oid.pp set (V.to_string elem)
  | St.Set_removed { set; elem } ->
    Format.asprintf "remove %a %s" Gom.Oid.pp set (V.to_string elem)
  | St.Deleted { obj; ty } -> Format.asprintf "deleted %a %s" Gom.Oid.pp obj ty

(* Delete a node referred to from tuple attributes (two of them on each
   big node), a set, a list holding it twice, and itself.  The expected
   events were recorded from the extent-walk implementation; listeners
   (maintenance among them) see them in exactly this order, whether or
   not the index existed before the delete. *)
let test_delete_golden () =
  let expected =
    [
      "remove i5 i2";
      "remove i4 i2";
      "attr i3.prev i2 -> NULL";
      "attr i3.alt i2 -> NULL";
      "attr i1.next i2 -> NULL";
      "attr i0.next i2 -> NULL";
      "attr i0.alt i2 -> NULL";
      "attr i2.kids i4 -> NULL";
      "attr i2.leaf i6 -> NULL";
      "attr i2.line i5 -> NULL";
      "attr i2.n 7 -> NULL";
      "attr i2.next i2 -> NULL";
      "deleted i2 Node";
    ]
  in
  List.iter
    (fun prebuilt ->
      let st = St.create (model_schema ()) in
      let node ty = St.new_object st ty in
      let low = node "BigNode" in
      let other = node "Node" in
      let target = node "Node" in
      let high = node "BigNode" in
      let set = node "NodeSet" in
      let list = node "NodeList" in
      let leaf = node "Leaf" in
      let r o = V.Ref o in
      St.set_attr st low "next" (r target);
      St.set_attr st low "alt" (r target);
      St.set_attr st low "prev" (r other);
      St.set_attr st other "next" (r target);
      St.set_attr st high "prev" (r target);
      St.set_attr st high "alt" (r target);
      St.set_attr st high "kids" (r set);
      St.insert_elem st set (r other);
      St.insert_elem st set (r target);
      St.insert_elem st list (r target);
      St.insert_elem st list (r other);
      St.insert_elem st list (r target);
      St.set_attr st other "line" (r list);
      St.set_attr st target "next" (r target);
      St.set_attr st target "kids" (r set);
      St.set_attr st target "line" (r list);
      St.set_attr st target "leaf" (r leaf);
      St.set_attr st target "n" (V.Int 7);
      if prebuilt then ignore (St.referencers st "Node" "next" target);
      let log = ref [] in
      let (_ : St.subscription) =
        St.subscribe st (fun ev -> log := event_to_string ev :: !log)
      in
      St.delete st target;
      Alcotest.(check (list string))
        (if prebuilt then "index built before the delete" else "index built by the delete")
        expected (List.rev !log);
      check "no reference to the deleted node survives" true
        (St.referencers st "Node" "next" target = []
        && St.referencers st "Node" "kids" target = []
        && St.referencers st "Node" "line" target = []);
      check "index agrees after the delete" true (index_agrees st))
    [ false; true ]

let suite =
  [
    Alcotest.test_case "new object all NULL" `Quick test_new_object_nulls;
    Alcotest.test_case "new set empty" `Quick test_new_set_empty;
    Alcotest.test_case "cannot instantiate atomics" `Quick test_cannot_instantiate_atomic;
    Alcotest.test_case "set_attr typing" `Quick test_set_attr_typing;
    Alcotest.test_case "subtype substitutability" `Quick test_subtype_substitutability;
    Alcotest.test_case "set element typing" `Quick test_set_elements_typing;
    Alcotest.test_case "extents" `Quick test_extent;
    Alcotest.test_case "mutation events" `Quick test_events;
    Alcotest.test_case "referencers" `Quick test_referencers;
    Alcotest.test_case "delete nullifies references" `Quick test_delete_nullifies;
    Alcotest.test_case "persistent names" `Quick test_names;
    Alcotest.test_case "delete golden: nullification order" `Quick test_delete_golden;
    Qc.to_alcotest prop_index_equals_walk;
  ]
