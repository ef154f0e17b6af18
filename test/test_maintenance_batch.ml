(* Tests for the deferred batched maintenance pipeline: delta buffers
   with annihilating merge, the one-pass bulk tree apply, flush
   policies, the engine's freshness watermark, and WAL flush groups.

   The two centrepieces are oracle properties: [Bptree.apply_many] must
   equal net sequential insert/remove on a twin tree, and a random
   event stream with interleaved engine queries — run under every flush
   policy and both freshness modes — must answer exactly like an
   always-immediate manager and the navigational scan oracle, with the
   physical partition trees converging after the final flush.  A crash
   at every log write through a mid-flush WAL group must recover to a
   verified prefix-consistent state with the group replayed or dropped
   atomically. *)

module B = Storage.Bptree
module M = Core.Maintenance
module D = Core.Decomposition
module E = Core.Exec
module V = Gom.Value
module C = Workload.Schemas.Company
module Db = Durability.Db
module Wal = Durability.Wal
module Fault = Durability.Fault

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let vset vs = List.sort_uniq V.compare vs

(* ---------------- apply_many against the sequential oracle --------- *)

(* page_size 64, tuple 16 bytes -> 4 tuples per leaf; fan-out 5. *)
let small_config = Storage.Config.make ~page_size:64 ~oid_size:8 ~pp_size:4 ()

let make_tree () =
  B.create ~config:small_config ~pager:(Storage.Pager.create ()) ~tuple_bytes:16
    ~key_of:(fun tup -> tup.(0))

let tup a b = [| V.Ref (Gom.Oid.of_int a); V.Ref (Gom.Oid.of_int b) |]

let ok_invariants t =
  match B.check_invariants t with
  | Ok () -> true
  | Error msg -> Alcotest.failf "invariant violated: %s" msg

let tree_contents t = List.map (fun tu -> (tu, B.refcount t tu)) (B.scan t)

(* The buffer coalesces to a net count per tuple before flushing, so
   apply_many's contract is net application: the reference applies the
   net delta of each distinct tuple as repeated insert/remove. *)
let prop_apply_many_equals_sequential =
  QCheck.Test.make ~name:"apply_many = net sequential insert/remove" ~count:200
    QCheck.(
      pair (int_bound 80)
        (list_of_size
           Gen.(int_range 0 60)
           (triple (int_bound 20) (int_bound 6) (int_range (-3) 3))))
    (fun (preload, raw) ->
      let reference = make_tree () and batched = make_tree () in
      let base = List.init preload (fun i -> tup (i mod 25) (i mod 7)) in
      List.iter
        (fun tu ->
          B.insert reference tu;
          B.insert batched tu)
        base;
      let deltas = List.map (fun (a, b, d) -> (tup a b, d)) raw in
      let net = Hashtbl.create 16 in
      List.iter
        (fun (tu, d) ->
          let key = Relation.Tuple.to_string tu in
          let n =
            match Hashtbl.find_opt net key with Some (n, _) -> n | None -> 0
          in
          Hashtbl.replace net key (n + d, tu))
        deltas;
      Hashtbl.iter
        (fun _ (d, tu) ->
          if d > 0 then
            for _ = 1 to d do
              B.insert reference tu
            done
          else
            for _ = 1 to -d do
              B.remove reference tu
            done)
        net;
      B.apply_many batched deltas;
      ok_invariants batched && tree_contents reference = tree_contents batched)

let test_apply_many_structural () =
  let t = make_tree () in
  (* Bulk grow from empty (splits all the way up), drain to empty
     (deferred restructure drops every leaf), then reuse. *)
  B.apply_many t (List.init 300 (fun i -> (tup i i, 1)));
  check_int "cardinal after bulk grow" 300 (B.cardinal t);
  check "invariants after bulk grow" true (ok_invariants t);
  check "scan sorted" true (B.scan t = List.init 300 (fun i -> tup i i));
  B.apply_many t (List.init 300 (fun i -> (tup i i, -1)));
  check_int "drained" 0 (B.cardinal t);
  check "invariants after drain" true (ok_invariants t);
  B.apply_many t [ (tup 7 7, 3); (tup 7 7, 0); (tup 9 9, -5) ];
  check_int "net refcount" 3 (B.refcount t (tup 7 7));
  check "negative on absent ignored" false (B.mem t (tup 9 9));
  check "reusable" true (ok_invariants t)

let test_apply_many_page_accounting () =
  let t = make_tree () in
  B.bulk_load t (List.init 200 (fun i -> tup i i));
  let stats = Storage.Stats.create () in
  Storage.Stats.begin_op stats;
  (* Four deltas landing in one leaf (keys 40..43 pack together under
     cap 4, and the net entry count stays 4): one shared descent, the
     leaf written once — not four separate root-to-leaf walks. *)
  B.apply_many ~stats t
    [ (tup 40 40, -1); (tup 41 1, 1); (tup 42 42, -1); (tup 43 1, 1) ];
  check_int "one leaf written" 1 (Storage.Stats.op_writes stats);
  check "one shared descent" true
    (Storage.Stats.op_reads stats <= B.height t + 2);
  check "invariants" true (ok_invariants t)

(* ---------------- company-base fixtures ---------------- *)

let company_setup kind policy =
  let b = C.base () in
  let heap = Storage.Heap.create ~size_of:(fun _ -> 100) b.C.store in
  let env = E.make b.C.store heap in
  let mgr = M.create env in
  let a = Core.Asr.create b.C.store (C.name_path b.C.store) kind (D.binary ~m:5) in
  M.register mgr a;
  M.set_policy mgr policy;
  (b, env, mgr, a)

let sec_parts (b : C.base) =
  V.oid_exn (Gom.Store.get_attr b.C.store b.C.sec560 "Composition")

let agree a =
  let scratch =
    Core.Extension.compute (Core.Asr.store a) (Core.Asr.path a) (Core.Asr.kind a)
  in
  Relation.equal scratch (Core.Asr.extension_relation a)
  && List.for_all
       (fun i ->
         Relation.equal
           (D.project (Core.Asr.extension_relation a)
              (Core.Asr.partition_bounds a i))
           (Core.Asr.partition_relation a i))
       (List.init (Core.Asr.partition_count a) Fun.id)

(* A profile so expensive for navigation that every supported stitch
   wins: forces queries through the (possibly stale) index. *)
let pin_expensive_nav engine path =
  let n = Gom.Path.length path in
  Engine.set_profile engine path
    (Costmodel.Profile.make
       ~c:(List.init (n + 1) (fun _ -> 10_000.))
       ~d:(List.init n (fun _ -> 10_000.))
       ~fan:(List.init n (fun _ -> 1.))
       ())

(* ---------------- flush policies ---------------- *)

let test_policy_strings () =
  List.iter
    (fun p ->
      check
        ("round-trip " ^ M.policy_to_string p)
        true
        (M.policy_of_string (M.policy_to_string p) = Some p))
    [ M.Immediate; M.Every_k_events 8; M.Bytes_threshold 4096; M.On_query ];
  List.iter
    (fun s -> check ("rejected " ^ s) true (M.policy_of_string s = None))
    [ "every:0"; "bytes:-1"; "every:"; "sometimes"; "" ]

let test_every_k_flushes () =
  let b, _env, _mgr, a = company_setup Core.Extension.Full (M.Every_k_events 3) in
  Gom.Store.insert_elem b.C.store (sec_parts b) (V.Ref b.C.pepper);
  check "event 1 buffers" true (Core.Asr.pending_deltas a > 0);
  Gom.Store.set_attr b.C.store b.C.door "Name" (V.Str "Hatch");
  check "event 2 buffers" true (Core.Asr.pending_deltas a > 0);
  Gom.Store.set_attr b.C.store b.C.door "Name" (V.Str "Lid");
  check_int "event 3 flushes" 0 (Core.Asr.pending_deltas a);
  check "trees caught up" true (agree a)

let test_bytes_threshold_flushes () =
  let b, _env, mgr, a =
    company_setup Core.Extension.Full (M.Bytes_threshold 1)
  in
  (* Any buffered byte is over the threshold: the event that buffers
     also drains, so the policy behaves like immediate at granularity
     one event. *)
  Gom.Store.insert_elem b.C.store (sec_parts b) (V.Ref b.C.pepper);
  check_int "threshold 1 drains per event" 0 (M.pending mgr);
  check "trees caught up" true (agree a)

let test_switch_to_immediate_drains () =
  let b, _env, mgr, a = company_setup Core.Extension.Full M.On_query in
  Gom.Store.insert_elem b.C.store (sec_parts b) (V.Ref b.C.pepper);
  check "pending under on-query" true (M.pending mgr > 0);
  M.set_policy mgr M.Immediate;
  check_int "switch to immediate drains" 0 (M.pending mgr);
  check "trees caught up" true (agree a);
  check "deferred flag dropped" false (Core.Asr.deferred a)

(* ---------------- annihilating merge ---------------- *)

let test_annihilation_writes_nothing () =
  let b, env, mgr, a = company_setup Core.Extension.Full M.On_query in
  let stats = env.E.stats in
  Gom.Store.insert_elem b.C.store (sec_parts b) (V.Ref b.C.pepper);
  check "insert buffers deltas" true (Core.Asr.pending_deltas a > 0);
  check "buffered counted" true (Storage.Stats.(count stats Deltas_buffered) > 0);
  Gom.Store.remove_elem b.C.store (sec_parts b) (V.Ref b.C.pepper);
  check_int "insert+remove annihilate completely" 0 (Core.Asr.pending_deltas a);
  check "annihilations counted" true (Storage.Stats.(count stats Deltas_annihilated) > 0);
  let w0 = (Storage.Stats.snapshot stats).Storage.Stats.s_total_writes in
  check_int "flush applies nothing" 0 (M.flush_all mgr);
  check_int "flush writes no pages" w0
    (Storage.Stats.snapshot stats).Storage.Stats.s_total_writes;
  check "trees never diverged" true (agree a)

(* ---------------- suspended set (satellite 1) ---------------- *)

let test_suspend_resume_idempotent_at_scale () =
  let b = C.base () in
  let heap = Storage.Heap.create ~size_of:(fun _ -> 100) b.C.store in
  let mgr = M.create (E.make b.C.store heap) in
  let path = C.name_path b.C.store in
  let pool = Core.Asr.make_pool b.C.store in
  let asrs =
    List.map
      (fun kind ->
        let a = Core.Asr.create ~pool b.C.store path kind (D.binary ~m:5) in
        M.register mgr a;
        a)
      Core.Extension.all
  in
  (* Hammer one relation with redundant suspends: the identity-keyed
     set keeps every call O(1) and a single resume lifts them all. *)
  let victim = List.hd asrs in
  for _ = 1 to 10_000 do
    M.suspend mgr victim
  done;
  check "suspended" true (M.is_suspended mgr victim);
  List.iter
    (fun a ->
      if a != victim then check "others unaffected" false (M.is_suspended mgr a))
    asrs;
  M.resume mgr victim;
  check "one resume lifts 10k suspends" false (M.is_suspended mgr victim);
  M.resume mgr victim;
  check "redundant resume harmless" false (M.is_suspended mgr victim);
  Gom.Store.insert_elem b.C.store (sec_parts b) (V.Ref b.C.pepper);
  List.iter (fun a -> check "maintained after resume" true (agree a)) asrs

(* ---------------- freshness watermark ---------------- *)

let test_watermark_catchup_and_degrade () =
  let b, env, _mgr, a = company_setup Core.Extension.Full M.On_query in
  let stats = env.E.stats in
  let engine = Engine.create env in
  Engine.register engine a;
  let path = Core.Asr.path a in
  pin_expensive_nav engine path;
  let n = Gom.Path.length path in
  let src = List.hd (Gom.Store.extent ~deep:true b.C.store (Gom.Path.type_at path 0)) in
  Gom.Store.insert_elem b.C.store (sec_parts b) (V.Ref b.C.pepper);
  check "pending before query" true (Core.Asr.pending_deltas a > 0);
  (* Catch_up (default): the first planned use drains the buffers and
     counts a catch-up flush; the answer equals the scan oracle. *)
  let r1 = Engine.forward engine path ~i:0 ~j:n src in
  check_int "catch-up drained" 0 (Core.Asr.pending_deltas a);
  check "catch-up counted" true (Storage.Stats.(count stats Catchup_flushes) > 0);
  check "catch-up answer = oracle" true
    (vset r1 = vset (E.forward_scan env path ~i:0 ~j:n src));
  (* Degrade: new pending deltas make the planner refuse the index; the
     query degrades to navigation, still exact, buffers untouched. *)
  Engine.set_freshness engine Engine.Degrade;
  Gom.Store.remove_elem b.C.store (sec_parts b) (V.Ref b.C.pepper);
  check "pending again" true (Core.Asr.pending_deltas a > 0);
  let r2 = Engine.forward engine path ~i:0 ~j:n src in
  check "degradation counted" true (Storage.Stats.(count stats Freshness_degradations) > 0);
  check "degrade leaves buffers pending" true (Core.Asr.pending_deltas a > 0);
  check "degraded answer = oracle" true
    (vset r2 = vset (E.forward_scan env path ~i:0 ~j:n src))

(* ---------------- stats counters (satellite 6) ---------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_stats_counters_in_summary () =
  let b, env, mgr, a = company_setup Core.Extension.Full M.On_query in
  let stats = env.E.stats in
  Gom.Store.insert_elem b.C.store (sec_parts b) (V.Ref b.C.pepper);
  Gom.Store.set_attr b.C.store b.C.door "Name" (V.Str "Hatch");
  let flushed = M.flush_all mgr in
  check "flush applied deltas" true (flushed > 0);
  check_int "flushed counter equals applied" flushed
    Storage.Stats.(count stats Deltas_flushed);
  check "buffered >= flushed" true
    (Storage.Stats.(count stats Deltas_buffered) >= Storage.Stats.(count stats Deltas_flushed));
  check_int "nothing pending" 0 (Core.Asr.pending_deltas a);
  let json = Storage.Stats.summary_to_json (Storage.Stats.snapshot stats) in
  List.iter
    (fun key -> check ("summary json has " ^ key) true (contains json ("\"" ^ key ^ "\"")))
    [
      "deltas_buffered";
      "deltas_merged";
      "deltas_annihilated";
      "deltas_flushed";
      "catchup_flushes";
      "freshness_degradations";
    ];
  let s = Storage.Stats.snapshot stats in
  check_int "summary mirrors buffered" Storage.Stats.(count stats Deltas_buffered)
    Storage.Stats.(summary_count s Deltas_buffered);
  check_int "summary mirrors flushed" flushed Storage.Stats.(summary_count s Deltas_flushed);
  (* merge and reset round the counters through the summary algebra *)
  let doubled = Storage.Stats.merge s s in
  check_int "merge sums flushed" (2 * flushed) Storage.Stats.(summary_count doubled Deltas_flushed);
  Storage.Stats.reset stats;
  check_int "reset clears buffered" 0 Storage.Stats.(count stats Deltas_buffered)

(* ---------------- deferred = immediate oracle (satellite 3) -------- *)

let policies =
  [ M.Immediate; M.Every_k_events 1; M.Every_k_events 7; M.Bytes_threshold 128; M.On_query ]

(* One case of the oracle: two identical bases from the same seeded
   spec, one under immediate maintenance (the reference), one deferred
   under [policy] behind an engine in freshness [mode].  With [pooled],
   each base holds a second relation of the same kind over another
   decomposition, both drawing their partitions from one sharing pool,
   so shared trees take both relations' deltas (and buffers). *)
let deferred_case ~pooled spec kind pick ops_seed policy mode =
  let store_i, path_i = Workload.Generator.build spec in
  let store_d, path_d = Workload.Generator.build spec in
  let env_i = Test_maintenance.env_of spec store_i in
  let env_d = Test_maintenance.env_of spec store_d in
  let m = Gom.Path.arity path_i - 1 in
  let decs = D.all ~m in
  let dec k = List.nth decs (k mod List.length decs) in
  let side store path env =
    let pool = if pooled then Some (Core.Asr.make_pool store) else None in
    let a = Core.Asr.create ?pool store path kind (dec pick) in
    let peers =
      if pooled then [ Core.Asr.create ?pool store path kind (dec (pick + 1)) ] else []
    in
    let mgr = M.create env in
    List.iter (M.register mgr) (a :: peers);
    (a, peers, mgr)
  in
  let a_i, peers_i, _ = side store_i path_i env_i in
  let a_d, peers_d, mgr_d = side store_d path_d env_d in
  M.set_policy mgr_d policy;
  let engine = Engine.create env_d in
  Engine.register engine a_d;
  Engine.set_freshness engine mode;
  pin_expensive_nav engine path_d;
  let rng_i = Random.State.make [| ops_seed |] in
  let rng_d = Random.State.make [| ops_seed |] in
  let n = Gom.Path.length path_i in
  let ok = ref true in
  for step = 1 to 10 do
    if !ok then begin
      Test_maintenance.apply_random_op rng_i store_i path_i;
      Test_maintenance.apply_random_op rng_d store_d path_d;
      (* The deferred relations, stitched through their pending deltas,
         are the extension at every step. *)
      if
        not
          (List.for_all
             (fun a ->
               Relation.equal (Core.Asr.extension_relation a)
                 (Core.Extension.compute store_d path_d kind))
             (a_d :: peers_d))
      then ok := false;
      if step mod 3 = 0 then begin
        let sources = Gom.Store.extent ~deep:true store_i (Gom.Path.type_at path_i 0) in
        List.iter
          (fun src ->
            if
              vset (Engine.forward engine path_d ~i:0 ~j:n src)
              <> vset (E.forward_scan env_i path_i ~i:0 ~j:n src)
            then ok := false)
          sources
      end
    end
  done;
  (* Final: drain and the physical partitions must equal the immediate
     twin's, tuple for tuple, and both must hold the extension with
     exact reference counts. *)
  ignore (M.flush_all mgr_d);
  !ok
  && M.pending mgr_d = 0
  && (pooled || (Test_maintenance.agree a_i && Test_maintenance.agree a_d))
  && Test_maintenance.trees_exact_all (a_i :: peers_i)
  && Test_maintenance.trees_exact_all (a_d :: peers_d)
  && List.for_all2
       (fun a_i a_d ->
         Relation.equal (Core.Asr.extension_relation a_i) (Core.Asr.extension_relation a_d)
         && List.for_all
              (fun p ->
                Relation.equal
                  (Core.Asr.partition_relation a_i p)
                  (Core.Asr.partition_relation a_d p))
              (List.init (Core.Asr.partition_count a_i) Fun.id))
       (a_i :: peers_i) (a_d :: peers_d)

let deferred_gen =
  QCheck.(
    pair
      (make ~print:(fun _ -> "<spec>") Test_maintenance.spec_gen)
      (pair (int_bound 3) (pair small_int (int_bound 1000))))

let deferred_prop ~pooled (spec, (kind_idx, (pick, ops_seed))) =
  let kind = List.nth Core.Extension.all kind_idx in
  List.for_all
    (fun policy ->
      List.for_all
        (deferred_case ~pooled spec kind pick ops_seed policy)
        [ Engine.Catch_up; Engine.Degrade ])
    policies

(* CI fuzz counts: the maintenance-fuzz job raises these properties to
   200 iterations via ASR_MAINT_COUNT; the run seed is printed by [Qc],
   so any failure reproduces with ASR_QCHECK_SEED. *)
let prop_deferred_equals_immediate =
  QCheck.Test.make
    ~name:"deferred maintenance = immediate + scan oracle (all policies, both modes)"
    ~count:(Qc.iters_env "ASR_MAINT_COUNT" 25)
    deferred_gen (deferred_prop ~pooled:false)

let prop_pooled_deferred_equals_immediate =
  QCheck.Test.make
    ~name:"pooled deferred maintenance = immediate (all kinds, all policies)"
    ~count:(Qc.iters_env "ASR_MAINT_COUNT" 10)
    deferred_gen (deferred_prop ~pooled:true)

(* ---------------- parallel server: delta-free epochs --------------- *)

let test_server_publishes_delta_free_epochs () =
  let b = C.base () in
  let store = b.C.store in
  let heap = Storage.Heap.create ~size_of:(fun _ -> 100) store in
  let env = E.make store heap in
  let mgr = M.create env in
  let path = C.name_path store in
  let a = Core.Asr.create store path Core.Extension.Full (D.binary ~m:5) in
  M.register mgr a;
  M.set_policy mgr M.On_query;
  let specs =
    [
      {
        Parallel.Snapshot.sp_path = path;
        sp_kind = Core.Extension.Full;
        sp_decomposition = D.binary ~m:5;
      };
    ]
  in
  let server = Parallel.Server.create ~jobs:2 ~maintenance:mgr ~specs store in
  Parallel.Server.update server (fun s ->
      Gom.Store.insert_elem s (sec_parts b) (V.Ref b.C.pepper));
  check_int "published epoch is delta-free" 0 (M.pending mgr);
  check "live trees caught up" true (agree a);
  let n = Gom.Path.length path in
  let sources = Gom.Store.extent ~deep:true store (Gom.Path.type_at path 0) in
  List.iter
    (fun (src, vs) ->
      check "served answer = oracle" true
        (vset vs = vset (E.forward_scan env path ~i:0 ~j:n src)))
    (Parallel.Server.forward_batch server path ~i:0 ~j:n sources);
  Parallel.Server.shutdown server

(* ---------------- integrity: scrub over pending deltas ------------- *)

let test_scrub_flushes_pending () =
  let b, env, _mgr, a = company_setup Core.Extension.Full M.On_query in
  Gom.Store.insert_elem b.C.store (sec_parts b) (V.Ref b.C.pepper);
  check "pending before scrub" true (Core.Asr.pending_deltas a > 0);
  let r = Integrity.Scrub.run ~stats:env.E.stats a in
  check "pending deltas are not divergence" true (Integrity.Scrub.clean r);
  check_int "scrub drained the buffers" 0 (Core.Asr.pending_deltas a);
  check "drain counted as catch-up" true
    (Storage.Stats.(count env.E.stats Catchup_flushes) > 0)

(* ---------------- WAL flush groups + crash sweep ------------------- *)

let fresh_dir () =
  let d = Filename.temp_file "asrmb-test" "" in
  Sys.remove d;
  Sys.mkdir d 0o700;
  d

let rm_rf dir =
  if Sys.file_exists dir && Sys.is_directory dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let wal_path dir gen = Filename.concat dir (Printf.sprintf "wal-%d.log" gen)
let snap_path dir gen = Filename.concat dir (Printf.sprintf "snapshot-%d.base" gen)

let txn store f =
  let t = Gom.Txn.start store in
  f ();
  Gom.Txn.commit t

let name_path_spec = "Division.Manufactures.Composition.Name"

let register_kinds db =
  List.iter
    (fun kind -> ignore (Db.register_asr db ~path:name_path_spec ~kind ()))
    [ Core.Extension.Full; Core.Extension.Canonical ]

let test_wal_flush_record_roundtrip () =
  with_dir (fun dir ->
      let path = Filename.concat dir "f.log" in
      let w = Wal.open_append ~policy:Wal.Sync_never path in
      List.iter (Wal.append w) [ Wal.Begin; Wal.Flush 42; Wal.Commit ];
      Wal.close w;
      let s = Wal.scan path in
      check "flush record round-trips" true
        (s.Wal.records = [ Wal.Begin; Wal.Flush 42; Wal.Commit ]);
      check_int "group committed" 3 s.Wal.committed)

let test_flush_group_logged_once () =
  with_dir (fun dir ->
      let b = C.base () in
      let db = Db.create ~dir b.C.store in
      register_kinds db;
      Db.set_flush_policy db M.On_query;
      let s = Db.store db in
      txn s (fun () -> Gom.Store.insert_elem s (sec_parts b) (V.Ref b.C.pepper));
      check "pending after txn" true (M.pending (Db.maintenance db) > 0);
      let before = Db.wal_appended db in
      let n = Db.flush_maintenance db in
      check "flush applied deltas" true (n > 0);
      check_int "one begin/flush/commit group" (before + 3) (Db.wal_appended db);
      check_int "nothing left to flush" 0 (Db.flush_maintenance db);
      check_int "empty flush appends nothing" (before + 3) (Db.wal_appended db);
      Db.close db;
      let rdb = Db.open_ ~dir () in
      let r = Option.get (Db.last_recovery rdb) in
      check "recovery verified" true (Db.verified r);
      check_int "the group replayed whole" 1 r.Db.flushes_replayed;
      Db.close rdb)

(* The mid-flush crash sweep: mutations under On_query buffer deltas,
   an explicit flush frames the catch-up as one WAL group, and a crash
   at EVERY log write must recover to a verified transaction-consistent
   prefix — with the flush group replayed iff its commit made it. *)
let run_flush_workload db (b : C.base) =
  let s = Db.store db in
  Db.set_flush_policy db M.On_query;
  txn s (fun () ->
      Gom.Store.set_attr s b.C.door "Name" (V.Str "Hatch");
      Gom.Store.insert_elem s (sec_parts b) (V.Ref b.C.pepper));
  txn s (fun () -> Gom.Store.remove_elem s (sec_parts b) (V.Ref b.C.door));
  Db.flush_maintenance db

type reference = {
  ref_writes : int;
  ref_records : Wal.record list;
  ref_log_bytes : string;
  prefix_state : int -> string;
}

let reference_run () =
  with_dir (fun dir ->
      let fault = Fault.real () in
      let b = C.base () in
      let db = Db.create ~fault ~policy:Wal.Sync_on_commit ~dir b.C.store in
      register_kinds db;
      let flushed = run_flush_workload db b in
      check "reference flush applied deltas" true (flushed > 0);
      Db.close db;
      let scanned = Wal.scan (wal_path dir 1) in
      check_int "reference log fully committed"
        (List.length scanned.Wal.records)
        scanned.Wal.committed;
      check "flush group in the log" true
        (List.exists (function Wal.Flush _ -> true | _ -> false) scanned.Wal.records);
      let snapshot = read_file (snap_path dir 1) in
      let log_bytes = read_file (wal_path dir 1) in
      let prefix_state k =
        let store = Gom.Serial.store_of_string snapshot in
        let prefix = List.filteri (fun i _ -> i < k) scanned.Wal.records in
        ignore (Wal.replay store prefix);
        Gom.Serial.store_to_string store
      in
      {
        ref_writes = Fault.writes fault;
        ref_records = scanned.Wal.records;
        ref_log_bytes = log_bytes;
        prefix_state;
      })

let crashed_run ~plan dir =
  let fault = Fault.faulty plan in
  let b = C.base () in
  let db = Db.create ~fault ~policy:Wal.Sync_on_commit ~dir b.C.store in
  register_kinds db;
  let crashed =
    match run_flush_workload db b with
    | (_ : int) -> false
    | exception Fault.Crash -> true
  in
  Gom.Txn.clear_hooks (Db.store db);
  crashed

let flushes_in_prefix reference k =
  List.filteri (fun i _ -> i < k) reference.ref_records
  |> List.filter (function Wal.Flush _ -> true | _ -> false)
  |> List.length

let test_mid_flush_crash_sweep () =
  let reference = reference_run () in
  check "workload produced writes" true (reference.ref_writes > 0);
  List.iter
    (fun (vname, plan_of) ->
      for c = 1 to reference.ref_writes do
        with_dir (fun dir ->
            let ctx = Printf.sprintf "%s@%d" vname c in
            check (ctx ^ ": crash fired") true (crashed_run ~plan:(plan_of c) dir);
            let rdb = Db.open_ ~dir () in
            Fun.protect
              ~finally:(fun () -> Db.close rdb)
              (fun () ->
                let r = Option.get (Db.last_recovery rdb) in
                check (ctx ^ ": ASRs verified") true (Db.verified r);
                let k = r.Db.records_scanned - r.Db.records_dropped in
                let log_now = read_file (wal_path dir 1) in
                check
                  (ctx ^ ": recovered log is a byte-prefix of the crash-free log")
                  true
                  (String.length log_now <= String.length reference.ref_log_bytes
                  && String.sub reference.ref_log_bytes 0 (String.length log_now)
                     = log_now);
                check_string
                  (ctx ^ ": store equals the committed prefix state")
                  (reference.prefix_state k)
                  (Gom.Serial.store_to_string (Db.store rdb));
                (* Atomicity of the flush group: replayed iff its
                   commit made the committed prefix; a mid-group crash
                   drops the whole group. *)
                check_int
                  (ctx ^ ": flush group replayed or dropped atomically")
                  (flushes_in_prefix reference k)
                  r.Db.flushes_replayed))
      done)
    [
      ( "tail-survives",
        fun c -> { Fault.crash_at_write = c; survive_bytes = max_int; corrupt_bytes = 0 } );
      ( "tail-lost",
        fun c -> { Fault.crash_at_write = c; survive_bytes = 0; corrupt_bytes = 0 } );
    ]

let suite =
  [
    Qc.to_alcotest prop_apply_many_equals_sequential;
    Alcotest.test_case "apply_many: grow, drain, reuse" `Quick
      test_apply_many_structural;
    Alcotest.test_case "apply_many: shared-descent page accounting" `Quick
      test_apply_many_page_accounting;
    Alcotest.test_case "flush policy strings" `Quick test_policy_strings;
    Alcotest.test_case "every-k policy flushes on the k-th event" `Quick
      test_every_k_flushes;
    Alcotest.test_case "bytes threshold drains" `Quick test_bytes_threshold_flushes;
    Alcotest.test_case "switching to immediate drains" `Quick
      test_switch_to_immediate_drains;
    Alcotest.test_case "insert+delete annihilate before any page" `Quick
      test_annihilation_writes_nothing;
    Alcotest.test_case "suspend/resume idempotent at scale" `Quick
      test_suspend_resume_idempotent_at_scale;
    Alcotest.test_case "freshness watermark: catch-up and degrade" `Quick
      test_watermark_catchup_and_degrade;
    Alcotest.test_case "delta counters in stats summary" `Quick
      test_stats_counters_in_summary;
    Qc.to_alcotest prop_deferred_equals_immediate;
    Qc.to_alcotest prop_pooled_deferred_equals_immediate;
    Alcotest.test_case "server publishes delta-free epochs" `Quick
      test_server_publishes_delta_free_epochs;
    Alcotest.test_case "scrub flushes pending deltas" `Quick
      test_scrub_flushes_pending;
    Alcotest.test_case "wal flush record round-trip" `Quick
      test_wal_flush_record_roundtrip;
    Alcotest.test_case "flush group logged once, replayed whole" `Quick
      test_flush_group_logged_once;
    Alcotest.test_case "crash at every write through a flush group" `Quick
      test_mid_flush_crash_sweep;
  ]
