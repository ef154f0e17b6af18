(* Concurrency harness for the parallel serving layer: snapshot
   isolation under a racing mutator, jobs-independent deterministic
   merges, plan-cache hammering from several domains, sheaf accounting,
   the domain pool itself, and Store.copy.

   Everything here runs on stock OCaml 5 domains — the suite is the
   regression net for the data races the parallel layer is designed
   out of, so it deliberately oversubscribes the machine (domain count
   exceeds core count on small CI runners; correctness may not depend
   on true parallelism). *)

(* The Store.copy cases below exercise the deprecated deep clone on
   purpose — it remains the writer-side cloning primitive. *)
[@@@alert "-legacy"]

module E = Core.Exec
module D = Core.Decomposition
module V = Gom.Value
module Pool = Parallel.Pool
module Snapshot = Parallel.Snapshot
module Server = Parallel.Server

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let vset vs = List.sort_uniq V.compare vs
let oset os = List.sort_uniq Gom.Oid.compare os

let env_of store =
  let heap = Storage.Heap.create ~size_of:(fun _ -> 100) store in
  E.make store heap

let specs_for ?(kind = Core.Extension.Full) path =
  let m = Gom.Path.arity path - 1 in
  [
    {
      Snapshot.sp_path = path;
      sp_kind = kind;
      sp_decomposition = D.binary ~m;
    };
  ]

let small_spec ?(seed = 7) () =
  Workload.Generator.spec ~seed ~counts:[ 4; 5; 6 ] ~defined:[ 4; 4 ] ~fan:[ 2; 1 ] ()

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
    let* seed = int_range 0 10000 in
    return (Workload.Generator.spec ~seed ~set_valued:sv ~counts ~defined ~fan ()))

(* ---------------- Store.copy ---------------- *)

let test_copy_isolates () =
  let store, path = Workload.Generator.build (small_spec ()) in
  let t0 = Gom.Path.type_at path 0 in
  let attr = (Gom.Path.step path 1).Gom.Path.attr in
  Gom.Store.bind_name store "root" (List.hd (Gom.Store.extent store t0));
  let copy = Gom.Store.copy store in
  check_int "epoch preserved" (Gom.Store.epoch store) (Gom.Store.epoch copy);
  check "extents equal" true
    (Gom.Store.extent ~deep:true store t0 = Gom.Store.extent ~deep:true copy t0);
  check "names equal" true (Gom.Store.names store = Gom.Store.names copy);
  let o = List.hd (Gom.Store.extent store t0) in
  check "attrs equal" true (Gom.Store.get_attr store o attr = Gom.Store.get_attr copy o attr);
  (* Fresh identifiers in the copy sit above every inherited one — the
     original (still exactly the inherited object set) must not know
     them.  (After this split the two generators diverge independently;
     ids are only ever meaningful within one store.) *)
  let fresh' = Gom.Store.new_object copy t0 in
  check "copy allocates above inherited oids" false (Gom.Store.mem store fresh');
  (* Mutating either side must not leak into the other. *)
  let before = Gom.Store.get_attr store o attr in
  Gom.Store.set_attr copy o attr V.Null;
  check "original untouched by copy mutation" true (Gom.Store.get_attr store o attr = before);
  Gom.Store.set_attr store o attr V.Null;
  Gom.Store.set_attr store o attr before;
  check "copy untouched by original mutation" true (Gom.Store.get_attr copy o attr = V.Null)

let test_copy_answers_agree () =
  let store, path = Workload.Generator.build (small_spec ~seed:19 ()) in
  let copy = Gom.Store.copy store in
  let env = env_of store and env' = env_of copy in
  let n = Gom.Path.length path in
  let sources = Gom.Store.extent ~deep:true store (Gom.Path.type_at path 0) in
  List.iter
    (fun src ->
      check "copy forward_scan agrees" true
        (vset (E.forward_scan env path ~i:0 ~j:n src)
        = vset (E.forward_scan env' path ~i:0 ~j:n src)))
    sources

(* ---------------- Pool ---------------- *)

let test_pool_order () =
  let pool = Pool.create ~jobs:4 in
  check_int "executors" 4 (Pool.size pool);
  let out = Pool.run_all pool (List.init 20 (fun i () -> i * i)) in
  check "results in input order" true (out = List.init 20 (fun i -> i * i));
  check "empty batch" true (Pool.run_all pool [] = []);
  Pool.shutdown pool;
  (* After shutdown the pool still executes — inline on the caller. *)
  check "inline after shutdown" true (Pool.run_all pool [ (fun () -> 42) ] = [ 42 ])

exception Boom of int

let test_pool_exceptions () =
  let pool = Pool.create ~jobs:3 in
  let raised =
    try
      ignore
        (Pool.run_all pool
           [ (fun () -> 1); (fun () -> raise (Boom 7)); (fun () -> raise (Boom 8)) ]);
      None
    with Boom k -> Some k
  in
  check "first exception in input order re-raised" true (raised = Some 7);
  (* The pool survives a failing batch. *)
  check "pool usable after failure" true (Pool.run_all pool [ (fun () -> 5) ] = [ 5 ]);
  Pool.shutdown pool

let test_pool_concurrent_batches () =
  let pool = Pool.create ~jobs:3 in
  let submitters =
    List.init 3 (fun d ->
        Domain.spawn (fun () ->
            Pool.run_all pool (List.init 25 (fun i () -> (d * 1000) + i))))
  in
  let outs = List.map Domain.join submitters in
  List.iteri
    (fun d out ->
      check "concurrent batches stay separate" true
        (out = List.init 25 (fun i -> (d * 1000) + i)))
    outs;
  Pool.shutdown pool

(* ---------------- deterministic merge ---------------- *)

let all_ranges n =
  List.concat_map
    (fun i ->
      List.filter_map (fun j -> if i < j then Some (i, j) else None)
        (List.init (n + 1) Fun.id))
    (List.init n Fun.id)

(* The same batch must produce byte-identical answers whatever the job
   count, and those answers must equal the scan oracle over the live
   base (the snapshot is a faithful copy). *)
let prop_merge_deterministic =
  QCheck.Test.make ~name:"batch answers independent of job count, equal to oracle"
    ~count:25
    QCheck.(pair (make ~print:(fun _ -> "<spec>") spec_gen) (int_bound 3))
    (fun (spec, kind_idx) ->
      let store, path = Workload.Generator.build spec in
      let kind = List.nth Core.Extension.all kind_idx in
      let env0 = env_of store in
      let n = Gom.Path.length path in
      let sources_at i = Gom.Store.extent ~deep:true store (Gom.Path.type_at path i) in
      let targets_at j = sources_at j |> List.map (fun o -> V.Ref o) in
      let run jobs =
        let server = Server.create ~jobs ~specs:(specs_for ~kind path) store in
        let out =
          List.map
            (fun (i, j) ->
              ( Server.forward_batch server path ~i ~j (sources_at i),
                Server.backward_batch server path ~i ~j ~targets:(targets_at j) ))
            (all_ranges n)
        in
        Server.shutdown server;
        out
      in
      let reference = run 1 in
      let agreed =
        List.for_all (fun jobs -> run jobs = reference) [ 2; 3; 4 ]
      in
      let faithful =
        List.for_all2
          (fun (i, j) (fw, bw) ->
            List.for_all
              (fun (src, vals) -> vset vals = vset (E.forward_scan env0 path ~i ~j src))
              fw
            && List.for_all
                 (fun (target, os) ->
                   oset os = oset (E.backward_scan env0 path ~i ~j ~target))
                 bw)
          (all_ranges n) reference
      in
      agreed && faithful)

let test_serve_order () =
  let store, path = Workload.Generator.build (small_spec ~seed:23 ()) in
  let n = Gom.Path.length path in
  let sources_at i = Gom.Store.extent ~deep:true store (Gom.Path.type_at path i) in
  let queries =
    List.concat_map
      (fun (i, j) ->
        [
          Server.Forward { q_path = path; q_i = i; q_j = j; q_sources = sources_at i };
          Server.Backward
            {
              q_path = path;
              q_i = i;
              q_j = j;
              q_targets = sources_at j |> List.map (fun o -> V.Ref o);
            };
        ])
      (all_ranges n)
  in
  let answers jobs =
    let server = Server.create ~jobs ~specs:(specs_for path) store in
    let a = Server.serve server queries in
    Server.shutdown server;
    a
  in
  let reference = answers 1 in
  check_int "one answer per query" (List.length queries) (List.length reference);
  List.iter
    (fun jobs -> check "serve order independent of jobs" true (answers jobs = reference))
    [ 2; 4 ]

(* ---------------- snapshot isolation under a racing mutator ---------------- *)

(* Readers pin an epoch and compare the server's parallel answers with
   the navigational oracle evaluated over that same frozen snapshot,
   while the main domain keeps committing attribute toggles (each
   republishing a snapshot).  Isolation means the mutator is invisible
   at a pinned epoch — any torn read, stale plan leak or cross-epoch
   contamination breaks the oracle equality. *)
let prop_snapshot_isolation =
  QCheck.Test.make
    ~name:"pinned readers = scan oracle at their epoch, under racing mutator"
    ~count:(Qc.iters_env "ASR_RACE_COUNT" 25)
    QCheck.(make ~print:(fun _ -> "<spec>") spec_gen)
    (fun spec ->
      let store, path = Workload.Generator.build spec in
      let n = Gom.Path.length path in
      let server = Server.create ~jobs:2 ~specs:(specs_for path) store in
      let ok = Atomic.make true in
      let readers =
        List.init 2 (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to 3 do
                  let snap = Server.pin server in
                  let sstore = Snapshot.store snap in
                  let env = Snapshot.env snap in
                  List.iter
                    (fun (i, j) ->
                      let sources =
                        Gom.Store_view.extent ~deep:true sstore (Gom.Path.type_at path i)
                      in
                      let answers =
                        Server.forward_batch ~snapshot:snap server path ~i ~j sources
                      in
                      List.iter
                        (fun (src, vals) ->
                          if vset vals <> vset (E.forward_scan env path ~i ~j src) then
                            Atomic.set ok false)
                        answers)
                    [ (0, n); (max 0 (n - 1), n) ]
                done))
      in
      let attr = (Gom.Path.step path 1).Gom.Path.attr in
      let t0s = Gom.Store.extent ~deep:true store (Gom.Path.type_at path 0) in
      List.iteri
        (fun k o ->
          if k < 4 then begin
            let old =
              Server.update server (fun st ->
                  let v = Gom.Store.get_attr st o attr in
                  Gom.Store.set_attr st o attr V.Null;
                  v)
            in
            Server.update server (fun st -> Gom.Store.set_attr st o attr old)
          end)
        t0s;
      List.iter Domain.join readers;
      Server.shutdown server;
      Atomic.get ok)

(* ---------------- CoW advance = from-scratch capture ---------------- *)

(* After a committed trace, the CoW-advanced snapshot must be
   indistinguishable from a from-scratch capture of the same base —
   identical forward and backward answers, batched and probe-at-a-time —
   while physically sharing (==) every instance the trace did not touch
   with the previous epoch. *)
let prop_advance_equals_capture =
  QCheck.Test.make ~name:"advance = from-scratch capture, with structural sharing"
    ~count:(Qc.iters_env "ASR_RACE_COUNT" 15)
    QCheck.(make ~print:(fun _ -> "<spec>") spec_gen)
    (fun spec ->
      let store, path = Workload.Generator.build spec in
      let n = Gom.Path.length path in
      let src = Snapshot.source ~specs:(specs_for path) store in
      let snap0 = Snapshot.advance src in
      let attr = (Gom.Path.step path 1).Gom.Path.attr in
      let t0 = Gom.Path.type_at path 0 in
      let tn = Gom.Path.type_at path n in
      let t0s = Gom.Store.extent ~deep:true store t0 in
      (* Trace A touches the even-indexed anchors (a null/restore toggle
         still dirties the instance) and creates one object; the odd
         ones must come out of the next publication by reference. *)
      List.iteri
        (fun k o ->
          if k land 1 = 0 then begin
            let v = Gom.Store.get_attr store o attr in
            Gom.Store.set_attr store o attr Gom.Value.Null;
            Gom.Store.set_attr store o attr v
          end)
        t0s;
      ignore (Gom.Store.new_object store t0);
      let snap1 = Snapshot.advance src in
      let sharing_ok =
        List.for_all
          (fun (k, o) ->
            k land 1 = 0
            ||
            match
              ( Gom.Store_view.get (Snapshot.store snap0) o,
                Gom.Store_view.get (Snapshot.store snap1) o )
            with
            | Some a, Some b -> a == b
            | _ -> false)
          (List.mapi (fun k o -> (k, o)) t0s)
      in
      (* Trace B exercises the deletion path (inbound references are
         nullified, dirtying the referencers). *)
      (match Gom.Store.extent ~deep:true store tn with
      | victim :: _ when n >= 1 -> Gom.Store.delete store victim
      | _ -> ());
      let snap2 = Snapshot.advance src in
      let snap_ref = Snapshot.advance (Snapshot.source ~specs:(specs_for path) store) in
      let sources = Gom.Store_view.extent ~deep:true (Snapshot.store snap_ref) t0 in
      let targets =
        Gom.Store_view.extent ~deep:true (Snapshot.store snap_ref) tn
        |> List.map (fun o -> V.Ref o)
      in
      let answers snap =
        let env = Snapshot.env snap in
        let engine = Snapshot.engine snap in
        let fw_batch = Engine.forward_batch ~env engine path ~i:0 ~j:n sources in
        let fw_one =
          List.map (fun o -> (o, Engine.forward ~env engine path ~i:0 ~j:n o)) sources
        in
        let bw_batch = Engine.backward_batch ~env engine path ~i:0 ~j:n ~targets in
        let nav =
          List.map (fun o -> (o, E.forward_scan env path ~i:0 ~j:n o)) sources
        in
        (fw_batch, fw_one, bw_batch, nav)
      in
      sharing_ok && answers snap2 = answers snap_ref)

let test_update_republishes () =
  let store, path = Workload.Generator.build (small_spec ~seed:31 ()) in
  let server = Server.create ~specs:(specs_for path) store in
  let e0 = Server.epoch server in
  let snap0 = Server.pin server in
  (* A read-only commit must not republish. *)
  Server.update server (fun st -> ignore (Gom.Store.count st (Gom.Path.type_at path 0)));
  check "no mutation, same snapshot" true (Server.pin server == snap0);
  let t0 = Gom.Path.type_at path 0 in
  let o = Server.update server (fun st -> Gom.Store.new_object st t0) in
  check "mutation republishes" true (Server.epoch server > e0);
  check "new snapshot sees the write" true
    (Gom.Store_view.mem (Snapshot.store (Server.pin server)) o);
  check "pinned snapshot still blind to it" false
    (Gom.Store_view.mem (Snapshot.store snap0) o);
  Server.shutdown server

(* ---------------- plan-cache stress ---------------- *)

(* Four domains hammer one snapshot engine while the main domain churns
   registrations, health and the plan cache.  The generation re-check
   and the stale-plan degradation must keep every answer equal to the
   oracle computed over the same frozen snapshot. *)
let test_plan_cache_stress () =
  let iters = Qc.iters_env "ASR_STRESS_ITERS" 3 in
  for it = 1 to iters do
    let store, path =
      Workload.Generator.build
        (Workload.Generator.spec ~seed:(100 + it) ~counts:[ 5; 6; 7 ] ~defined:[ 5; 5 ]
           ~fan:[ 2; 2 ] ())
    in
    let snap = Snapshot.advance (Snapshot.source ~specs:(specs_for path) store) in
    let sstore = Snapshot.store snap in
    let engine = Snapshot.engine snap in
    let m = Gom.Path.arity path - 1 in
    (* Extras are built over the live base (the snapshot shares it by
       lineage); published before registration, the frozen environments
       carry no pin for them, so the planner prices them out — the
       register/unregister churn must still never corrupt an answer. *)
    let extras =
      List.map
        (fun kind -> Core.Asr.create store path kind (D.trivial ~m))
        [ Core.Extension.Left_complete; Core.Extension.Right_complete ]
    in
    let n = Gom.Path.length path in
    let ok = Atomic.make true in
    let workers =
      List.init 4 (fun _ ->
          Domain.spawn (fun () ->
              let env = Snapshot.env snap in
              let sources =
                Gom.Store_view.extent ~deep:true sstore (Gom.Path.type_at path 0)
              in
              let oracle =
                List.map
                  (fun src -> (src, vset (E.forward_scan env path ~i:0 ~j:n src)))
                  sources
              in
              for _ = 1 to 20 do
                List.iter
                  (fun (src, expect) ->
                    if vset (Engine.forward ~env engine path ~i:0 ~j:n src) <> expect
                    then Atomic.set ok false)
                  oracle
              done))
    in
    for _ = 1 to 40 do
      List.iter (fun a -> Engine.register engine a) extras;
      Engine.invalidate_plans engine;
      List.iter (fun a -> Engine.unregister engine a) extras
    done;
    List.iter Domain.join workers;
    check "stressed answers = oracle" true (Atomic.get ok);
    (* The cache survived coherently: every remaining entry is usable. *)
    ignore (Engine.cache_info engine)
  done

(* ---------------- accounting sheaves ---------------- *)

let test_stats_algebra () =
  let module S = Storage.Stats in
  (* Counter [i] holds [k * (i + 1)]: distinct per counter, so a sum
     landing in the wrong slot shows. *)
  let counted k =
    let t = S.create () in
    List.iteri (fun i c -> S.add t c (k * (i + 1))) S.counters;
    S.snapshot t
  in
  let each what expect get =
    List.iteri
      (fun i c -> check_int (what ^ " " ^ S.counter_name c) (expect i) (get c))
      S.counters
  in
  let s1 = { (counted 1) with s_total_reads = 3; s_buffer_hits = 2 } in
  let s2 = { (counted 10) with s_total_reads = 4; s_total_writes = 5 } in
  let m = S.merge s1 s2 in
  check_int "merge sums reads" 7 m.S.s_total_reads;
  check_int "merge sums writes" 5 m.s_total_writes;
  check_int "merge sums hits" 2 m.s_buffer_hits;
  each "merge sums" (fun i -> 11 * (i + 1)) (S.summary_count m);
  check "merge commutes" true (S.merge s2 s1 = m);
  check "zero is unit" true (S.merge S.zero s1 = s1 && S.merge s1 S.zero = s1);
  let t = S.create () in
  S.absorb t m;
  let snap = S.snapshot t in
  check_int "absorb folds totals" 7 snap.s_total_reads;
  check_int "absorb folds writes" 5 snap.s_total_writes;
  each "absorb adds once" (fun i -> 11 * (i + 1)) (S.count t);
  S.reset t;
  each "reset zeroes" (fun _ -> 0) (S.count t)

(* The server's merged accounting equals the sequential sum over the
   same chunk decomposition: parallel fan-out loses or double-counts
   nothing. *)
let test_stats_sheaves_sum () =
  let jobs = 3 in
  let store, path = Workload.Generator.build (small_spec ~seed:43 ()) in
  let n = Gom.Path.length path in
  let sources = Gom.Store.extent ~deep:true store (Gom.Path.type_at path 0) in
  let server = Server.create ~jobs ~specs:(specs_for path) store in
  ignore (Server.forward_batch server path ~i:0 ~j:n sources);
  let par = Server.stats server in
  Server.shutdown server;
  (* Sequential replay: same contiguous ceil-split chunking (part of the
     server's documented contract), one private sheaf per chunk, fresh
     snapshot so the plan cache starts equally cold. *)
  let snap = Snapshot.advance (Snapshot.source ~specs:(specs_for path) store) in
  let probes = List.sort_uniq Gom.Oid.compare sources in
  let len = List.length probes in
  let k = max 1 (min jobs len) in
  let size = (len + k - 1) / k in
  let rec split acc xs =
    if xs = [] then List.rev acc
    else begin
      let c = List.filteri (fun i _ -> i < size) xs in
      let rest = List.filteri (fun i _ -> i >= size) xs in
      split (c :: acc) rest
    end
  in
  let seq =
    List.fold_left
      (fun acc chunk ->
        let env = Snapshot.env snap in
        ignore (Engine.forward_batch ~env (Snapshot.engine snap) path ~i:0 ~j:n chunk);
        Storage.Stats.merge acc (Storage.Stats.snapshot env.E.stats))
      Storage.Stats.zero (split [] probes)
  in
  check_int "reads: parallel merge = sequential sum" seq.Storage.Stats.s_total_reads
    par.Storage.Stats.s_total_reads;
  check_int "writes: parallel merge = sequential sum" seq.s_total_writes par.s_total_writes;
  check_int "fallbacks: parallel merge = sequential sum"
    Storage.Stats.(summary_count seq Fallbacks)
    Storage.Stats.(summary_count par Fallbacks)

(* After shutdown the server no longer follows the base: writes and
   republication through it are refused rather than published stale,
   and closing a snapshot source twice is harmless. *)
let test_shutdown_refuses_publication () =
  let store, path = Workload.Generator.build (small_spec ~seed:47 ()) in
  let server = Server.create ~jobs:1 ~specs:(specs_for path) store in
  Server.shutdown server;
  let raises f = try f (); false with Invalid_argument _ -> true in
  let ran = ref false in
  check "update refused" true
    (raises (fun () -> Server.update server (fun _ -> ran := true)));
  check "refused update never runs" false !ran;
  check "refresh refused" true (raises (fun () -> Server.refresh server));
  let src = Snapshot.source ~specs:(specs_for path) store in
  ignore (Snapshot.advance src);
  Snapshot.close_source src;
  Snapshot.close_source src;
  check "advance refused on a closed source" true
    (raises (fun () -> ignore (Snapshot.advance src)))

let suite =
  [
    Alcotest.test_case "Store.copy isolates the two stores" `Quick test_copy_isolates;
    Alcotest.test_case "Store.copy answers agree with original" `Quick
      test_copy_answers_agree;
    Alcotest.test_case "pool preserves input order" `Quick test_pool_order;
    Alcotest.test_case "pool re-raises first failure" `Quick test_pool_exceptions;
    Alcotest.test_case "pool isolates concurrent batches" `Quick
      test_pool_concurrent_batches;
    Qc.to_alcotest prop_merge_deterministic;
    Alcotest.test_case "serve keeps request order across jobs" `Quick test_serve_order;
    Qc.to_alcotest prop_snapshot_isolation;
    Qc.to_alcotest prop_advance_equals_capture;
    Alcotest.test_case "update republishes exactly on mutation" `Quick
      test_update_republishes;
    Alcotest.test_case "plan cache survives 4-domain churn" `Slow test_plan_cache_stress;
    Alcotest.test_case "stats merge algebra" `Quick test_stats_algebra;
    Alcotest.test_case "parallel sheaves = sequential sum" `Quick test_stats_sheaves_sum;
    Alcotest.test_case "shutdown refuses later publication" `Quick
      test_shutdown_refuses_publication;
  ]
