(* Tests for Gom.Serial: persistence round-trips. *)

module S = Gom.Serial
module V = Gom.Value
module C = Workload.Schemas.Company
module R = Workload.Schemas.Robot

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let same_extensions store store' path kind =
  Relation.equal
    (Core.Extension.compute store path kind)
    (Core.Extension.compute store' path kind)

let test_schema_roundtrip () =
  let s = C.schema () in
  let s' = S.schema_of_string (S.schema_to_string s) in
  check "well formed" true (Result.is_ok (Gom.Schema.well_formed s'));
  check "attr preserved" true (Gom.Schema.attr_type s' "Division" "Manufactures" = Some "ProdSET");
  check "set preserved" true (Gom.Schema.element_type s' "ProdSET" = Some "Product")

let test_schema_with_inheritance_and_recursion () =
  let s = Gom.Schema.empty in
  let s = Gom.Schema.define_forward s "Person" in
  let s = Gom.Schema.define_set s "Friends" "Person" in
  let s = Gom.Schema.define_tuple s "Person" [ ("name", "STRING"); ("friends", "Friends") ] in
  let s = Gom.Schema.define_tuple s "Employee" ~supertypes:[ "Person" ] [ ("salary", "DECIMAL") ] in
  let s' = S.schema_of_string (S.schema_to_string s) in
  check "recursion survives" true (Result.is_ok (Gom.Schema.well_formed s'));
  check "inheritance survives" true (Gom.Schema.is_subtype s' ~sub:"Employee" ~sup:"Person");
  check_int "employee attrs" 3 (List.length (Gom.Schema.attrs s' "Employee"))

let test_company_roundtrip () =
  let b = C.base () in
  let text = S.store_to_string b.C.store in
  let store' = S.store_of_string text in
  let path = C.name_path b.C.store in
  List.iter
    (fun kind ->
      check
        ("extension preserved: " ^ Core.Extension.name kind)
        true
        (same_extensions b.C.store store' path kind))
    Core.Extension.all;
  (* Identifiers survive: the named root points at the same oid. *)
  check "name preserved" true
    (Gom.Store.find_name store' "Mercedes" = Some b.C.mercedes);
  check "attribute value preserved" true
    (V.equal (Gom.Store.get_attr store' b.C.door "Price") (V.Dec 1205.50))

let test_robot_roundtrip () =
  let b = R.base () in
  let store' = S.store_of_string (S.store_to_string b.R.store) in
  let path = R.location_path b.R.store in
  check "canonical preserved" true
    (same_extensions b.R.store store' path Core.Extension.Canonical)

let test_new_objects_after_load () =
  let b = C.base () in
  let store' = S.store_of_string (S.store_to_string b.C.store) in
  (* Fresh identifiers must not collide with restored ones. *)
  let fresh = Gom.Store.new_object store' "BasePart" in
  check "fresh oid beyond restored ids" true
    (Gom.Oid.to_int fresh > Gom.Oid.to_int b.C.mercedes)

let test_list_order_preserved () =
  let s = Gom.Schema.empty in
  let s = Gom.Schema.define_tuple s "Track" [ ("Title", "STRING") ] in
  let s = Gom.Schema.define_list s "TrackList" "Track" in
  let store = Gom.Store.create s in
  let tr title =
    let t = Gom.Store.new_object store "Track" in
    Gom.Store.set_attr store t "Title" (V.Str title);
    V.Ref t
  in
  let l = Gom.Store.new_object store "TrackList" in
  let a = tr "z-last" and b = tr "a-first" in
  Gom.Store.insert_elem store l b;
  Gom.Store.insert_elem store l a;
  let store' = S.store_of_string (S.store_to_string store) in
  check "list order kept" true (Gom.Store.elements store' l = [ b; a ])

let test_tricky_strings () =
  let b = C.base () in
  Gom.Store.set_attr b.C.store b.C.door "Name"
    (V.Str "a \"quoted\"  name\nwith newline and  double  spaces");
  let store' = S.store_of_string (S.store_to_string b.C.store) in
  check "string payload exact" true
    (V.equal
       (Gom.Store.get_attr store' b.C.door "Name")
       (Gom.Store.get_attr b.C.store b.C.door "Name"))

let test_special_values () =
  let s = Gom.Schema.empty in
  let s =
    Gom.Schema.define_tuple s "Z"
      [ ("d", "DECIMAL"); ("b", "BOOL"); ("c", "CHAR"); ("i", "INT") ]
  in
  let store = Gom.Store.create s in
  let o = Gom.Store.new_object store "Z" in
  Gom.Store.set_attr store o "d" (V.Dec 0.1);
  Gom.Store.set_attr store o "b" (V.Bool true);
  Gom.Store.set_attr store o "c" (V.Char '\n');
  Gom.Store.set_attr store o "i" (V.Int (-42));
  let store' = S.store_of_string (S.store_to_string store) in
  check "decimal bit-exact" true (V.equal (Gom.Store.get_attr store' o "d") (V.Dec 0.1));
  check "bool" true (V.equal (Gom.Store.get_attr store' o "b") (V.Bool true));
  check "char" true (V.equal (Gom.Store.get_attr store' o "c") (V.Char '\n'));
  check "negative int" true (V.equal (Gom.Store.get_attr store' o "i") (V.Int (-42)))

let test_corrupt_inputs () =
  let bad text = try ignore (S.store_of_string text); false with S.Corrupt _ -> true in
  check "empty" true (bad "");
  check "bad header" true (bad "not-a-base v9\n");
  check "bad object line" true (bad "asr-object-base v1\nO zzz T0\n");
  check "unknown type" true (bad "asr-object-base v1\nO 0 Ghost\n");
  check "bad value" true
    (bad "asr-object-base v1\nT tuple X - a:INT\nO 0 X\nA 0 a wat:7\n");
  check "dangling name" true (bad "asr-object-base v1\nN \"x\" 99\n")

let test_truncation_fuzz () =
  (* A torn write must never load as a silently partial base: cutting
     the serialised text at EVERY byte (which subsumes every line
     boundary) must raise [Corrupt] — never succeed, never escape with
     another exception. *)
  let b = C.base () in
  Gom.Store.set_attr b.C.store b.C.door "Name" (V.Str "with \"quotes\" and\nnewline");
  let text = S.store_to_string b.C.store in
  let n = String.length text in
  check "non-trivial text" true (n > 100);
  for cut = 0 to n - 1 do
    match S.store_of_string (String.sub text 0 cut) with
    | (_ : Gom.Store.t) ->
      Alcotest.failf "truncation at byte %d/%d loaded successfully" cut n
    | exception S.Corrupt _ -> ()
    | exception e ->
      Alcotest.failf "truncation at byte %d/%d escaped with %s" cut n
        (Printexc.to_string e)
  done;
  (* The intact text still loads. *)
  ignore (S.store_of_string text)

let test_corrupt_messages_located () =
  (* Every [Corrupt] arising from damaged content names the byte
     offset, so a torn file can be inspected by hand. *)
  let has_byte text =
    match S.store_of_string text with
    | (_ : Gom.Store.t) -> false
    | exception S.Corrupt m ->
      let rec find i =
        i + 4 <= String.length m && (String.sub m i 4 = "byte" || find (i + 1))
      in
      find 0
  in
  let b = C.base () in
  let text = S.store_to_string b.C.store in
  (* Flip one byte inside the body: footer CRC catches it, and the
     message locates the damage. *)
  let flipped = Bytes.of_string text in
  Bytes.set flipped (String.length text / 2)
    (if Bytes.get flipped (String.length text / 2) = 'x' then 'y' else 'x');
  check "bit damage located" true (has_byte (Bytes.to_string flipped));
  (* A well-framed file with a bad value line: the per-line error must
     carry the line's byte offset. *)
  let body = "asr-object-base v1\nT tuple X - a:INT\nO 0 X\nA 0 a wat:7\n" in
  let framed =
    Printf.sprintf "%sX %s %d\n" body
      (Gom.Crc32.to_hex (Gom.Crc32.string body))
      (String.length body)
  in
  check "bad value located" true (has_byte framed)

let test_generated_roundtrip () =
  let spec =
    Workload.Generator.spec ~seed:31 ~counts:[ 80; 160; 320 ] ~defined:[ 70; 150 ]
      ~fan:[ 2; 2 ] ()
  in
  let store, path = Workload.Generator.build spec in
  let store' = S.store_of_string (S.store_to_string store) in
  List.iter
    (fun kind ->
      check
        ("generated base: " ^ Core.Extension.name kind)
        true
        (same_extensions store store' path kind))
    Core.Extension.all

let spec_gen =
  QCheck.Gen.(
    let* nn = int_range 1 3 in
    let* counts = list_repeat (nn + 1) (int_range 1 6) in
    let* defined =
      flatten_l
        (List.map (fun c -> int_range 0 c) (List.filteri (fun i _ -> i < nn) counts))
    in
    let* fan = list_repeat nn (int_range 1 3) in
    let* sv = flatten_l (List.map (fun f -> if f > 1 then return true else bool) fan) in
    let* seed = int_range 0 100000 in
    return (Workload.Generator.spec ~seed ~set_valued:sv ~counts ~defined ~fan ()))

let prop_roundtrip =
  QCheck.Test.make ~name:"random bases round-trip through the text format" ~count:60
    (QCheck.make ~print:(fun _ -> "<spec>") spec_gen)
    (fun spec ->
      let store, path = Workload.Generator.build spec in
      let store' = S.store_of_string (S.store_to_string store) in
      List.for_all (fun kind -> same_extensions store store' path kind) Core.Extension.all)

let test_save_load_file () =
  let b = C.base () in
  let file = Filename.temp_file "asrbase" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      S.save b.C.store file;
      let store' = S.load file in
      check "file round-trip" true
        (same_extensions b.C.store store' (C.name_path b.C.store) Core.Extension.Full))

(* ---------------- CRC-32 ---------------- *)

(* Bit-at-a-time reference CRC over Int32, independent of the table. *)
let crc_bitwise s =
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      c := Int32.logxor !c (Int32.of_int (Char.code ch));
      for _ = 1 to 8 do
        let low = Int32.logand !c 1l in
        c := Int32.shift_right_logical !c 1;
        if low <> 0l then c := Int32.logxor !c 0xEDB88320l
      done)
    s;
  Int32.logxor !c 0xFFFFFFFFl

let test_crc_vectors () =
  let crc = Gom.Crc32.string in
  check "check value" true (Int32.equal (crc "123456789") 0xCBF43926l);
  check "empty string" true (Int32.equal (crc "") 0l);
  Alcotest.(check string) "hex image" "cbf43926" (Gom.Crc32.to_hex (crc "123456789"));
  Alcotest.(check string) "hex zero-padded" "00000000" (Gom.Crc32.to_hex 0l);
  check "of_hex inverts to_hex" true
    (Gom.Crc32.of_hex "cbf43926" = Some 0xCBF43926l)

let bytes_gen = QCheck.(string_gen_of_size Gen.(0 -- 300) Gen.char)

let prop_crc_bitwise =
  QCheck.Test.make ~name:"crc32 = bitwise reference, hex = %08lx" ~count:300 bytes_gen
    (fun s ->
      let c = Gom.Crc32.string s in
      Int32.equal c (crc_bitwise s)
      && Gom.Crc32.to_hex c = Printf.sprintf "%08lx" c
      && Gom.Crc32.of_hex (Gom.Crc32.to_hex c) = Some c)

let prop_crc_chaining =
  QCheck.Test.make ~name:"crc32 ~init chaining over random splits = one shot" ~count:300
    QCheck.(pair bytes_gen (small_list small_nat))
    (fun (s, cuts) ->
      let n = String.length s in
      let cuts = List.sort_uniq compare (List.map (fun k -> if n = 0 then 0 else k mod (n + 1)) cuts) in
      let chained, last =
        List.fold_left
          (fun (c, pos) cut ->
            (Gom.Crc32.sub ~init:c s ~pos ~len:(cut - pos), cut))
          (0l, 0) cuts
      in
      let chained = Gom.Crc32.sub ~init:chained s ~pos:last ~len:(n - last) in
      Int32.equal chained (Gom.Crc32.string s))

let suite =
  [
    Alcotest.test_case "schema roundtrip" `Quick test_schema_roundtrip;
    Alcotest.test_case "inheritance and recursion" `Quick test_schema_with_inheritance_and_recursion;
    Alcotest.test_case "company base roundtrip" `Quick test_company_roundtrip;
    Alcotest.test_case "robot base roundtrip" `Quick test_robot_roundtrip;
    Alcotest.test_case "fresh oids after load" `Quick test_new_objects_after_load;
    Alcotest.test_case "list order preserved" `Quick test_list_order_preserved;
    Alcotest.test_case "tricky strings" `Quick test_tricky_strings;
    Alcotest.test_case "special values" `Quick test_special_values;
    Alcotest.test_case "corrupt inputs" `Quick test_corrupt_inputs;
    Alcotest.test_case "truncation fuzz: cut at every byte" `Quick test_truncation_fuzz;
    Alcotest.test_case "corrupt messages carry byte offsets" `Quick test_corrupt_messages_located;
    Alcotest.test_case "generated base roundtrip" `Quick test_generated_roundtrip;
    Qc.to_alcotest prop_roundtrip;
    Alcotest.test_case "save/load file" `Quick test_save_load_file;
    Alcotest.test_case "crc32 vectors" `Quick test_crc_vectors;
    Qc.to_alcotest prop_crc_bitwise;
    Qc.to_alcotest prop_crc_chaining;
  ]
