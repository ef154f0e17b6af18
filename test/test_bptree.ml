(* Unit and property tests for Storage.Bptree.  A small page size forces
   multi-level trees so splits and descents are actually exercised. *)

module B = Storage.Bptree
module V = Gom.Value

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* page_size 64, tuple 16 bytes -> 4 tuples per leaf; fan-out 5. *)
let small_config = Storage.Config.make ~page_size:64 ~oid_size:8 ~pp_size:4 ()

let make_tree ?(config = small_config) () =
  B.create ~config ~pager:(Storage.Pager.create ()) ~tuple_bytes:16
    ~key_of:(fun tup -> tup.(0))

let tup a b = [| V.Ref (Gom.Oid.of_int a); V.Ref (Gom.Oid.of_int b) |]

let ok_invariants t =
  match B.check_invariants t with
  | Ok () -> true
  | Error msg -> Alcotest.failf "invariant violated: %s" msg

let test_empty () =
  let t = make_tree () in
  check_int "cardinal" 0 (B.cardinal t);
  check "no hit" true (B.lookup t (V.Ref (Gom.Oid.of_int 1)) = []);
  check_int "height" 1 (B.height t);
  check "invariants" true (ok_invariants t)

let test_bulk_load_and_lookup () =
  let t = make_tree () in
  B.bulk_load t (List.init 100 (fun i -> tup i (i + 1000)));
  check_int "cardinal" 100 (B.cardinal t);
  check "invariants" true (ok_invariants t);
  check "found" true (B.lookup t (V.Ref (Gom.Oid.of_int 37)) = [ tup 37 1037 ]);
  check "missing" true (B.lookup t (V.Ref (Gom.Oid.of_int 555)) = []);
  check_int "leaf pages" 25 (B.leaf_pages t);
  check "height grows" true (B.height t >= 2)

let test_duplicate_keys () =
  let t = make_tree () in
  B.bulk_load t [ tup 1 10; tup 1 11; tup 1 12; tup 2 20 ];
  let hits = B.lookup t (V.Ref (Gom.Oid.of_int 1)) in
  check_int "all duplicates found" 3 (List.length hits);
  check "sorted" true (hits = [ tup 1 10; tup 1 11; tup 1 12 ])

let test_duplicate_key_run_across_leaves () =
  let t = make_tree () in
  (* 10 tuples with the same key: spans three 4-entry leaves. *)
  B.bulk_load t (List.init 10 (fun i -> tup 5 i) @ [ tup 9 99 ]);
  let hits = B.lookup t (V.Ref (Gom.Oid.of_int 5)) in
  check_int "whole run" 10 (List.length hits);
  check "invariants" true (ok_invariants t)

let test_refcounts () =
  let t = make_tree () in
  B.insert t (tup 1 2);
  B.insert t (tup 1 2);
  check_int "cardinal counts distinct" 1 (B.cardinal t);
  check_int "refcount" 2 (B.refcount t (tup 1 2));
  B.remove t (tup 1 2);
  check "still present" true (B.mem t (tup 1 2));
  B.remove t (tup 1 2);
  check "gone" false (B.mem t (tup 1 2));
  B.remove t (tup 1 2) (* removing a missing tuple is a no-op *);
  check_int "empty" 0 (B.cardinal t)

let test_incremental_inserts_split () =
  let t = make_tree () in
  for i = 0 to 199 do
    B.insert t (tup i i)
  done;
  check_int "cardinal" 200 (B.cardinal t);
  check "invariants after splits" true (ok_invariants t);
  check "height at least 3" true (B.height t >= 3);
  check "scan sorted" true
    (B.scan t = List.init 200 (fun i -> tup i i))

let test_interleaved_insert_remove () =
  let t = make_tree () in
  for i = 0 to 99 do
    B.insert t (tup (i mod 10) i)
  done;
  for i = 0 to 49 do
    B.remove t (tup (i mod 10) i)
  done;
  check_int "half left" 50 (B.cardinal t);
  check "invariants" true (ok_invariants t);
  let hits = B.lookup t (V.Ref (Gom.Oid.of_int 3)) in
  check_int "per-key" 5 (List.length hits)

let test_remove_all_then_reuse () =
  let t = make_tree () in
  for i = 0 to 63 do
    B.insert t (tup i i)
  done;
  for i = 0 to 63 do
    B.remove t (tup i i)
  done;
  check_int "empty" 0 (B.cardinal t);
  check "invariants after drain" true (ok_invariants t);
  B.insert t (tup 7 7);
  check "usable again" true (B.mem t (tup 7 7));
  check "invariants" true (ok_invariants t)

let test_lookup_page_accounting () =
  let t = make_tree () in
  B.bulk_load t (List.init 500 (fun i -> tup i i));
  let stats = Storage.Stats.create () in
  Storage.Stats.begin_op stats;
  ignore (B.lookup ~stats t (V.Ref (Gom.Oid.of_int 123)));
  (* One root-to-leaf descent: height inner pages plus the key's leaf,
     plus at most one look-ahead page when the hit ends its leaf. *)
  let reads = Storage.Stats.op_reads stats in
  check "descent pages" true (reads >= B.height t + 1 && reads <= B.height t + 2);
  check_int "no writes" 0 (Storage.Stats.op_writes stats)

let test_scan_page_accounting () =
  let t = make_tree () in
  B.bulk_load t (List.init 100 (fun i -> tup i i));
  let stats = Storage.Stats.create () in
  Storage.Stats.begin_op stats;
  ignore (B.scan ~stats t);
  check_int "scan reads every leaf" (B.leaf_pages t) (Storage.Stats.op_reads stats)

let test_insert_page_accounting () =
  let t = make_tree () in
  B.bulk_load t (List.init 100 (fun i -> tup (2 * i) i));
  let stats = Storage.Stats.create () in
  Storage.Stats.begin_op stats;
  B.insert ~stats t (tup 31 0);
  check "descent read" true (Storage.Stats.op_reads stats >= B.height t);
  check "leaf written" true (Storage.Stats.op_writes stats >= 1)

let test_backward_clustering () =
  (* A tree keyed on the last column, as the redundant copy. *)
  let t =
    B.create ~config:small_config ~pager:(Storage.Pager.create ()) ~tuple_bytes:16
      ~key_of:(fun tup -> tup.(1))
  in
  B.bulk_load t [ tup 1 9; tup 2 9; tup 3 7 ];
  let hits = B.lookup t (V.Ref (Gom.Oid.of_int 9)) in
  check_int "by last column" 2 (List.length hits)

let prop_random_ops =
  QCheck.Test.make ~name:"random insert/remove keeps invariants and contents" ~count:60
    QCheck.(pair small_int (list (pair (int_bound 20) (int_bound 20))))
    (fun (_, ops) ->
      let t = make_tree () in
      let model = Hashtbl.create 64 in
      List.iteri
        (fun idx (a, b) ->
          let tu = tup a b in
          if idx mod 3 = 2 then begin
            B.remove t tu;
            match Hashtbl.find_opt model (a, b) with
            | Some n when n > 1 -> Hashtbl.replace model (a, b) (n - 1)
            | Some _ -> Hashtbl.remove model (a, b)
            | None -> ()
          end
          else begin
            B.insert t tu;
            Hashtbl.replace model (a, b)
              (1 + Option.value ~default:0 (Hashtbl.find_opt model (a, b)))
          end)
        ops;
      (match B.check_invariants t with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_reportf "invariant: %s" m);
      let expected =
        Hashtbl.fold (fun (a, b) _ acc -> tup a b :: acc) model []
        |> List.sort Relation.Tuple.compare
      in
      let actual = List.sort Relation.Tuple.compare (B.scan t) in
      if expected <> actual then QCheck.Test.fail_report "contents diverge from model";
      Hashtbl.fold
        (fun (a, b) n acc -> acc && B.refcount t (tup a b) = n)
        model true)

(* ---------------- apply_many routing ---------------- *)

let key n = V.Ref (Gom.Oid.of_int n)

(* After [remove (6,0)] the middle leaf's first entry (8,2) sits above
   its separator (6,0).  [apply_many] must still put (7,2) where
   [insert] would — right of that separator — or lookups never find it. *)
let test_apply_many_routes_by_separator () =
  let t = make_tree () in
  B.bulk_load t [ tup 1 7; tup 6 0; tup 9 8; tup 9 8; tup 8 2; tup 3 8 ];
  B.insert t (tup 3 3);
  B.remove t (tup 6 0);
  B.apply_many t [ (tup 7 2, 1); (tup 3 5, -2) ];
  check "invariants" true (ok_invariants t);
  check_int "refcount" 1 (B.refcount t (tup 7 2));
  check "lookup finds the delta" true (B.lookup t (key 7) = [ tup 7 2 ])

(* ---------------- model-based histories ---------------- *)

type op =
  | Bulk of (int * int) list
  | Ins of int * int
  | Rem of int * int
  | Adj of (int * int) * int
  | Apply of ((int * int) * int) list

let pp_pair (a, b) = Printf.sprintf "(%d,%d)" a b

let pp_op = function
  | Bulk l -> "bulk_load [" ^ String.concat ";" (List.map pp_pair l) ^ "]"
  | Ins (a, b) -> "insert " ^ pp_pair (a, b)
  | Rem (a, b) -> "remove " ^ pp_pair (a, b)
  | Adj (p, d) -> Printf.sprintf "adjust %s %+d" (pp_pair p) d
  | Apply ds ->
    "apply_many ["
    ^ String.concat ";" (List.map (fun (p, d) -> Printf.sprintf "%s,%+d" (pp_pair p) d) ds)
    ^ "]"

(* Small domains so duplicate keys, leaf boundaries and emptied leaves
   are common on 4-entry leaves. *)
let max_a = 8
let max_b = 6

let gen_pair = QCheck.Gen.(pair (int_bound (max_a - 1)) (int_bound (max_b - 1)))

(* A signed delta with |d| from 1 to 4. *)
let gen_delta = QCheck.Gen.(map2 (fun neg d -> if neg then -d else d) bool (int_range 1 4))

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (1, map (fun l -> Bulk l) (list_size (int_bound 24) gen_pair));
        (4, map (fun (a, b) -> Ins (a, b)) gen_pair);
        (4, map (fun (a, b) -> Rem (a, b)) gen_pair);
        (3, map2 (fun p d -> Adj (p, d)) gen_pair gen_delta);
        (2, map (fun l -> Apply l) (list_size (int_bound 10) (pair gen_pair (int_range (-3) 3))));
        (* Drain every pair whose first (or last) column is in [lo, lo + w]:
           this empties whole leaves, the first one included. *)
        ( 1,
          map
            (fun (first, lo, w) ->
              Apply
                (List.concat
                   (List.init max_a (fun a ->
                        List.filter_map
                          (fun b ->
                            let c = if first then a else b in
                            if lo <= c && c <= lo + w then Some ((a, b), -3) else None)
                          (List.init max_b Fun.id)))))
            (triple bool (int_bound (max_a - 1)) (int_bound 3)) );
      ])

let arb_history =
  let gen =
    QCheck.Gen.(
      triple bool (list_size (int_bound 30) gen_op)
        (list_size (int_bound 4) (list_size (int_bound 6) (int_bound (max max_a max_b)))))
  in
  QCheck.make gen
    ~print:(fun (last, ops, _) ->
      Printf.sprintf "keyed on the %s column:\n  %s" (if last then "last" else "first")
        (String.concat "\n  " (List.map pp_op ops)))
    ~shrink:(fun (last, ops, sets) yield ->
      QCheck.Shrink.list ops (fun ops' -> yield (last, ops', sets)))

(* The reference: a multiset of pairs, with [apply_many]'s documented
   semantics (net delta per tuple; a negative net on an absent tuple is
   ignored; counts at or below zero disappear). *)
let model_apply model (p, d) =
  let n = Option.value ~default:0 (Hashtbl.find_opt model p) in
  if n + d > 0 then Hashtbl.replace model p (n + d)
  else Hashtbl.remove model p

let run_model model = function
  | Bulk l ->
    Hashtbl.reset model;
    List.iter (fun p -> model_apply model (p, 1)) l
  | Ins (a, b) -> model_apply model ((a, b), 1)
  | Rem (a, b) -> model_apply model ((a, b), -1)
  | Adj (p, d) -> model_apply model (p, d)
  | Apply ds ->
    let net = Hashtbl.create 8 in
    List.iter
      (fun (p, d) -> Hashtbl.replace net p (d + Option.value ~default:0 (Hashtbl.find_opt net p)))
      ds;
    Hashtbl.iter (fun p d -> if d <> 0 then model_apply model (p, d)) net

let run_tree t = function
  | Bulk l -> B.bulk_load t (List.map (fun (a, b) -> tup a b) l)
  | Ins (a, b) -> B.insert t (tup a b)
  | Rem (a, b) -> B.remove t (tup a b)
  | Adj ((a, b), d) -> B.adjust t (tup a b) d
  | Apply ds -> B.apply_many t (List.map (fun ((a, b), d) -> (tup a b, d)) ds)

(* The maintenance-fuzz CI job raises the count via ASR_BPTREE_COUNT. *)
let prop_model =
  QCheck.Test.make ~name:"bulk_load/insert/remove/apply_many agree with a multiset"
    ~count:(Qc.iters_env "ASR_BPTREE_COUNT" 300) arb_history (fun (last, ops, sets) ->
      let col = if last then 1 else 0 in
      let t =
        B.create ~config:small_config ~pager:(Storage.Pager.create ()) ~tuple_bytes:16
          ~key_of:(fun tu -> tu.(col))
      in
      let model = Hashtbl.create 64 in
      List.iter
        (fun op ->
          run_tree t op;
          run_model model op)
        ops;
      let fail fmt = QCheck.Test.fail_reportf fmt in
      (match B.check_invariants t with Ok () -> () | Error m -> fail "invariant: %s" m);
      let key_of (a, b) = if last then b else a in
      let by_entry p q = compare (key_of p, p) (key_of q, q) in
      let present = Hashtbl.fold (fun p _ acc -> p :: acc) model [] |> List.sort by_entry in
      let to_tuples = List.map (fun (a, b) -> tup a b) in
      let expect k = to_tuples (List.filter (fun p -> key_of p = k) present) in
      if B.cardinal t <> List.length present then
        fail "cardinal %d, model %d" (B.cardinal t) (List.length present);
      if B.scan t <> to_tuples present then fail "scan differs from the model";
      for k = 0 to max max_a max_b do
        if B.lookup t (key k) <> expect k then fail "lookup %d differs from the model" k
      done;
      List.iter
        (fun ks ->
          let want = List.map (fun k -> (key k, expect k)) (List.sort_uniq compare ks) in
          if B.lookup_many t (List.map key ks) <> want then
            fail "lookup_many [%s] differs from the model"
              (String.concat ";" (List.map string_of_int ks)))
        sets;
      for a = 0 to max_a - 1 do
        for b = 0 to max_b - 1 do
          let n = Option.value ~default:0 (Hashtbl.find_opt model (a, b)) in
          if B.refcount t (tup a b) <> n || B.mem t (tup a b) <> (n > 0) then
            fail "refcount %s is %d, model %d" (pp_pair (a, b)) (B.refcount t (tup a b)) n
        done
      done;
      true)

(* [adjust t tup d] against [|d|] single inserts or removes on a twin
   tree built by the same history: the same tree afterwards, no more
   logical pages read or written, and the same pages allocated.  The
   split case is where they differ: a unit insert after the first
   re-descends and reads the sibling the split wrote. *)
let prop_adjust_pages =
  QCheck.Test.make ~name:"adjust charges no page that |d| single calls would not"
    ~count:(Qc.iters_env "ASR_BPTREE_COUNT" 300)
    QCheck.(
      make
        ~print:(fun (last, ops, (p, d)) ->
          Printf.sprintf "keyed on the %s column, then adjust %s %+d:\n  %s"
            (if last then "last" else "first")
            (pp_pair p) d
            (String.concat "\n  " (List.map pp_op ops)))
        Gen.(triple bool (list_size (int_bound 30) gen_op) (pair gen_pair gen_delta)))
    (fun (last, ops, ((a, b), d)) ->
      let make () =
        let pager = Storage.Pager.create () in
        let t =
          B.create ~config:small_config ~pager ~tuple_bytes:16 ~key_of:(fun tu ->
              tu.(if last then 1 else 0))
        in
        List.iter (run_tree t) ops;
        (t, pager)
      in
      let one, one_pager = make () and units, units_pager = make () in
      let charged f =
        let stats = Storage.Stats.create () in
        Storage.Stats.begin_op stats;
        f stats;
        (Storage.Stats.op_logical_reads stats, Storage.Stats.op_logical_writes stats)
      in
      let r1, w1 = charged (fun stats -> B.adjust ~stats one (tup a b) d) in
      let rn, wn =
        charged (fun stats ->
            for _ = 1 to abs d do
              (if d > 0 then B.insert else B.remove) ~stats units (tup a b)
            done)
      in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      (match B.check_invariants one with Ok () -> () | Error m -> fail "invariant: %s" m);
      if B.scan one <> B.scan units then fail "contents differ";
      if B.refcount one (tup a b) <> B.refcount units (tup a b) then fail "refcounts differ";
      if (B.height one, B.leaf_pages one, B.inner_pages one)
         <> (B.height units, B.leaf_pages units, B.inner_pages units)
      then fail "shapes differ";
      if Storage.Pager.allocated one_pager <> Storage.Pager.allocated units_pager then
        fail "allocations differ";
      if r1 > rn || w1 > wn then fail "adjust charged %d/%d pages, unit calls %d/%d" r1 w1 rn wn;
      true)

(* ---------------- page-accounting golden ---------------- *)

(* Fixed seeded histories on 4-entry leaves through a 3-frame pool, so
   splits, unlinks, root collapse, key runs across leaves, lookup_many
   resumes and chain prefetch all happen.  Every operation runs in its
   own [Stats.begin_op]; the trace pins its logical and physical pages,
   the pool's hits, evictions and prefetches, and the pager's
   allocations.  [apply_many] stays out of the trace, so a change to
   how it routes deltas does not move this golden. *)
let golden_trace () =
  let module S = Storage.Stats in
  let buf = Buffer.create 65536 in
  for h = 0 to 59 do
    let rng = Random.State.make [| h |] in
    let int n = Random.State.int rng n in
    let pair () = (int 12, int 6) in
    let col = h mod 2 in
    let pager = Storage.Pager.create () in
    let t = B.create ~config:small_config ~pager ~tuple_bytes:16 ~key_of:(fun tu -> tu.(col)) in
    let stats = S.create ~buffer_capacity:3 () in
    let bulk n = B.bulk_load t (List.init n (fun _ -> let a, b = pair () in tup a b)) in
    for i = 0 to 79 do
      S.begin_op stats;
      let hits = S.buffer_hits stats
      and evictions = S.buffer_evictions stats
      and prefetched = S.prefetched stats in
      (* Grow for 40 operations, then mostly drain. *)
      let inserts = if i < 40 then 45 else 15 in
      let code =
        match if i = 0 then 0 else int 100 with
        | r when r < 3 ->
          bulk (if i = 0 then 8 + int 24 else int 24);
          'b'
        | r when r < inserts ->
          let a, b = pair () in
          B.insert ~stats t (tup a b);
          'i'
        | r when r < 60 ->
          (match B.scan t with
          | present when present <> [] && int 10 < 8 ->
            B.remove ~stats t (List.nth present (int (List.length present)))
          | _ ->
            let a, b = pair () in
            B.remove ~stats t (tup a b));
          'r'
        | r when r < 75 ->
          ignore (B.lookup ~stats t (key (int 12)));
          'l'
        | r when r < 88 ->
          ignore (B.lookup_many ~stats t (List.init (int 7) (fun _ -> key (int 12))));
          'm'
        | _ ->
          ignore (B.scan ~stats t);
          's'
      in
      Printf.bprintf buf "%d.%d %c %d %d %d %d %d %d %d\n" h i code (S.op_logical_reads stats)
        (S.op_logical_writes stats) (S.op_reads stats)
        (S.buffer_hits stats - hits)
        (S.buffer_evictions stats - evictions)
        (S.prefetched stats - prefetched)
        (Storage.Pager.allocated pager)
    done
  done;
  Buffer.contents buf

let test_page_golden () =
  let trace = golden_trace () in
  (* Column sums first, so a failure says which counter moved. *)
  let sums = Array.make 7 0 in
  String.split_on_char '\n' trace
  |> List.iter (fun line ->
         match String.split_on_char ' ' line with
         | _ :: _ :: fields -> List.iteri (fun i f -> sums.(i) <- sums.(i) + int_of_string f) fields
         | _ -> ());
  Alcotest.(check (list int))
    "sums: logical r/w, physical r, hits, evictions, prefetched, allocated"
    [ 13289; 3187; 9389; 5061; 9717; 2823; 85074 ]
    (Array.to_list sums);
  Alcotest.(check string) "trace digest" "455df286da4f8c38935476f7bdc71a4f" (Digest.to_hex (Digest.string trace))

let suite =
  [
    Alcotest.test_case "empty tree" `Quick test_empty;
    Alcotest.test_case "bulk load and lookup" `Quick test_bulk_load_and_lookup;
    Alcotest.test_case "duplicate keys" `Quick test_duplicate_keys;
    Alcotest.test_case "key run across leaves" `Quick test_duplicate_key_run_across_leaves;
    Alcotest.test_case "reference counts" `Quick test_refcounts;
    Alcotest.test_case "incremental splits" `Quick test_incremental_inserts_split;
    Alcotest.test_case "interleaved insert/remove" `Quick test_interleaved_insert_remove;
    Alcotest.test_case "drain and reuse" `Quick test_remove_all_then_reuse;
    Alcotest.test_case "lookup page accounting" `Quick test_lookup_page_accounting;
    Alcotest.test_case "scan page accounting" `Quick test_scan_page_accounting;
    Alcotest.test_case "insert page accounting" `Quick test_insert_page_accounting;
    Alcotest.test_case "backward clustering" `Quick test_backward_clustering;
    Qc.to_alcotest prop_random_ops;
    Alcotest.test_case "apply_many routes by separator" `Quick
      test_apply_many_routes_by_separator;
    Qc.to_alcotest prop_model;
    Qc.to_alcotest prop_adjust_pages;
    Alcotest.test_case "page accounting golden" `Quick test_page_golden;
  ]
