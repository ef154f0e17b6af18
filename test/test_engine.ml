(* Tests for the cost-based engine: plan/oracle equivalence over random
   schemas, extensions and decompositions, batched execution, the plan
   cache and its invalidation, and explain. *)

module E = Core.Exec
module D = Core.Decomposition
module V = Gom.Value

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let env_of store =
  let heap = Storage.Heap.create ~size_of:(fun _ -> 100) store in
  E.make store heap

let all_ranges n =
  List.concat_map
    (fun i ->
      List.filter_map (fun j -> if i < j then Some (i, j) else None)
        (List.init (n + 1) Fun.id))
    (List.init n Fun.id)

let vset vs = List.sort_uniq V.compare vs
let oset os = List.sort_uniq Gom.Oid.compare os

(* A profile so expensive for navigation that every supported stitch
   wins: forces the engine down the ASR whenever equation 35 allows. *)
let pin_expensive_nav engine path =
  let n = Gom.Path.length path in
  Engine.set_profile engine path
    (Costmodel.Profile.make
       ~c:(List.init (n + 1) (fun _ -> 10_000.))
       ~d:(List.init n (fun _ -> 10_000.))
       ~fan:(List.init n (fun _ -> 1.))
       ())

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

(* Whatever plan the engine picks — nav, extent scan, or a stitch forced
   through any of the four extensions under any decomposition — the
   answers must equal the forced navigational oracle. *)
let prop_engine_agrees_oracle =
  QCheck.Test.make ~name:"engine plans = forced scan oracle on random bases"
    ~count:60
    QCheck.(
      pair (make ~print:(fun _ -> "<spec>") spec_gen) (pair (int_bound 3) small_int))
    (fun (spec, (kind_idx, pick)) ->
      let store, path = Workload.Generator.build spec in
      let env = env_of store in
      let kind = List.nth Core.Extension.all kind_idx in
      let m = Gom.Path.arity path - 1 in
      let decs = D.all ~m in
      let dec = List.nth decs (pick mod List.length decs) in
      let a = Core.Asr.create store path kind dec in
      let engine = Engine.create env in
      Engine.register engine a;
      pin_expensive_nav engine path;
      let n = Gom.Path.length path in
      List.for_all
        (fun (i, j) ->
          let sources =
            Gom.Store.extent ~deep:true store (Gom.Path.type_at path i)
          in
          let targets =
            Gom.Store.extent ~deep:true store (Gom.Path.type_at path j)
            |> List.map (fun o -> V.Ref o)
          in
          List.for_all
            (fun src ->
              vset (Engine.forward engine path ~i ~j src)
              = vset (E.forward_scan env path ~i ~j src))
            sources
          && List.for_all
               (fun target ->
                 oset (Engine.backward engine path ~i ~j ~target)
                 = oset (E.backward_scan env path ~i ~j ~target))
               targets)
        (all_ranges n))

(* Batched execution gives each probe exactly the per-probe answer. *)
let prop_batch_agrees_oracle =
  QCheck.Test.make ~name:"batched execution = per-probe oracle" ~count:60
    QCheck.(
      pair (make ~print:(fun _ -> "<spec>") spec_gen) (pair (int_bound 3) small_int))
    (fun (spec, (kind_idx, pick)) ->
      let store, path = Workload.Generator.build spec in
      let env = env_of store in
      let kind = List.nth Core.Extension.all kind_idx in
      let m = Gom.Path.arity path - 1 in
      let decs = D.all ~m in
      let dec = List.nth decs (pick mod List.length decs) in
      let a = Core.Asr.create store path kind dec in
      let engine = Engine.create env in
      Engine.register engine a;
      pin_expensive_nav engine path;
      let n = Gom.Path.length path in
      List.for_all
        (fun (i, j) ->
          let sources =
            Gom.Store.extent ~deep:true store (Gom.Path.type_at path i)
          in
          let targets =
            Gom.Store.extent ~deep:true store (Gom.Path.type_at path j)
            |> List.map (fun o -> V.Ref o)
          in
          List.for_all
            (fun (src, vals) -> vset vals = vset (E.forward_scan env path ~i ~j src))
            (Engine.forward_batch engine path ~i ~j sources)
          && List.for_all
               (fun (target, os) ->
                 oset os = oset (E.backward_scan env path ~i ~j ~target))
               (Engine.backward_batch engine path ~i ~j ~targets))
        (all_ranges n))

(* ---------------- plan cache ---------------- *)

let gen_base () =
  let spec =
    Workload.Generator.spec ~seed:5
      ~counts:[ 300; 600; 1200; 2400 ]
      ~defined:[ 280; 550; 1100 ] ~fan:[ 2; 2; 2 ] ()
  in
  let store, path = Workload.Generator.build spec in
  let heap = Storage.Heap.create ~size_of:(Workload.Generator.size_of spec) store in
  (store, path, E.make store heap)

let test_plan_cache_hits () =
  let store, path, env = gen_base () in
  let engine = Engine.create env in
  Engine.register engine
    (Core.Asr.create store path Core.Extension.Full
       (D.binary ~m:(Gom.Path.arity path - 1)));
  let n = Gom.Path.length path in
  let c1 = Engine.choose engine path ~i:0 ~j:n ~dir:Engine.Plan.Bwd in
  let c2 = Engine.choose engine path ~i:0 ~j:n ~dir:Engine.Plan.Bwd in
  check "same choice served" true (c1 == c2);
  let ci = Engine.cache_info engine in
  check_int "one miss" 1 ci.Engine.misses;
  check_int "one hit" 1 ci.Engine.hits;
  check_int "no invalidation yet" 0 ci.Engine.invalidations;
  (* A different range is its own cache entry. *)
  ignore (Engine.choose engine path ~i:0 ~j:1 ~dir:Engine.Plan.Fwd);
  check_int "second miss" 2 (Engine.cache_info engine).Engine.misses

let test_plan_cache_invalidation () =
  let store, path, env = gen_base () in
  let a =
    Core.Asr.create store path Core.Extension.Full
      (D.binary ~m:(Gom.Path.arity path - 1))
  in
  let engine = Engine.create env in
  Engine.register engine a;
  let mgr = Core.Maintenance.create env in
  Core.Maintenance.register mgr a;
  let n = Gom.Path.length path in
  let g0 = Engine.generation engine in
  ignore (Engine.choose engine path ~i:0 ~j:n ~dir:Engine.Plan.Bwd);
  ignore (Engine.choose engine path ~i:0 ~j:n ~dir:Engine.Plan.Bwd);
  check_int "cached before the update" 1 (Engine.cache_info engine).Engine.hits;
  (* A maintenance update: the store event reaches both the maintenance
     manager (index upkeep) and the engine (generation bump). *)
  let src = List.hd (Gom.Store.extent store "T2") in
  (match Gom.Store.get_attr store src "A3" with
  | V.Ref set ->
    let tgt = List.hd (Gom.Store.extent store "T3") in
    Gom.Store.insert_elem store set (V.Ref tgt);
    Gom.Store.remove_elem store set (V.Ref tgt)
  | _ -> Alcotest.fail "expected a set-valued A3");
  check "generation bumped" true (Engine.generation engine > g0);
  let oracle = E.backward_scan env path ~i:0 ~j:n
      ~target:(V.Ref (List.hd (Gom.Store.extent store "T3"))) in
  let via_engine = Engine.backward engine path ~i:0 ~j:n
      ~target:(V.Ref (List.hd (Gom.Store.extent store "T3"))) in
  check "maintained answers agree" true (oset oracle = oset via_engine);
  let ci = Engine.cache_info engine in
  check_int "stale entry replanned" 1 ci.Engine.invalidations;
  (* Pinning a profile also invalidates. *)
  ignore (Engine.choose engine path ~i:0 ~j:n ~dir:Engine.Plan.Bwd);
  Engine.set_profile engine path
    (Engine.measure_profile store path);
  ignore (Engine.choose engine path ~i:0 ~j:n ~dir:Engine.Plan.Bwd);
  check_int "set_profile invalidates" 2
    (Engine.cache_info engine).Engine.invalidations

let test_register_other_store_rejected () =
  let store, path, env = gen_base () in
  ignore store;
  let other_store, other_path, _ = gen_base () in
  let a =
    Core.Asr.create other_store other_path Core.Extension.Full
      (D.binary ~m:(Gom.Path.arity other_path - 1))
  in
  let engine = Engine.create env in
  ignore path;
  check "foreign index rejected" true
    (try
       Engine.register engine a;
       false
     with Invalid_argument _ -> true)

(* ---------------- batched page savings ---------------- *)

let test_batch_saves_pages () =
  let store, path, env = gen_base () in
  let a =
    Core.Asr.create store path Core.Extension.Full
      (D.binary ~m:(Gom.Path.arity path - 1))
  in
  let engine = Engine.create env in
  Engine.register engine a;
  let n = Gom.Path.length path in
  let stats = env.E.stats in
  let targets =
    Gom.Store.extent store "T3"
    |> List.filteri (fun i _ -> i mod 75 = 0)
    |> List.map (fun o -> V.Ref o)
  in
  check "enough probes" true (List.length targets >= 16);
  let per_probe =
    List.fold_left
      (fun acc target ->
        ignore (Engine.backward engine path ~i:0 ~j:n ~target);
        acc + Storage.Stats.op_accesses stats)
      0 targets
  in
  ignore (Engine.backward_batch engine path ~i:0 ~j:n ~targets);
  let batched = Storage.Stats.op_accesses stats in
  check "batched reads fewer pages" true (batched < per_probe)

(* ---------------- stitch walk golden ---------------- *)

(* Pins the section 5.6 walk end to end over one fixed base with a
   3-step path (the middle step set-valued, so m = 4): for every
   decomposition, range and direction, the stitch the planner prices,
   the logical pages of per-probe Exec.*_supported summed over every
   source (or target), and the logical pages of one Engine batch over
   the same probes.  Navigation is priced out, except that a forward
   single step costs one page by equation 31 and no stitch beats it:
   those batches run navigation, marked "(nav)".  Running the stitch
   plan itself through the engine, probe by probe, must charge exactly
   what Exec charges. *)
let stitch_golden_lines () =
  let spec =
    Workload.Generator.spec ~seed:11 ~set_valued:[ false; true; false ]
      ~counts:[ 40; 60; 90; 120 ] ~defined:[ 36; 50; 80 ] ~fan:[ 1; 2; 1 ] ()
  in
  let store, path = Workload.Generator.build spec in
  let n = Gom.Path.length path in
  let heap = Storage.Heap.create ~size_of:(Workload.Generator.size_of spec) store in
  let env = E.make store heap in
  let stats = env.E.stats in
  let config = Storage.Config.make ~page_size:256 () in
  let extent k = Gom.Store.extent ~deep:true store (Gom.Path.type_at path k) in
  let pages f probes =
    List.fold_left
      (fun acc p ->
        Storage.Stats.begin_op stats;
        ignore (f p);
        acc + Storage.Stats.op_logical_reads stats)
      0 probes
  in
  let batch_pages f =
    ignore (f ());
    Storage.Stats.op_logical_reads stats
  in
  List.concat_map
    (fun dec ->
      let a = Core.Asr.create ~config store path Core.Extension.Full dec in
      let engine = Engine.create env in
      Engine.register engine a;
      pin_expensive_nav engine path;
      List.concat_map
        (fun (i, j) ->
          let sources = extent i in
          let targets = List.map (fun o -> V.Ref o) (extent j) in
          let line dir ~exec ~engine_run ~batch =
            let stitch =
              List.find_map
                (fun (c : Engine.candidate) ->
                  match c.Engine.plan with
                  | Engine.Plan.Stitch _ -> Some c.Engine.plan
                  | _ -> None)
                (Engine.candidates engine path ~i ~j ~dir)
              |> Option.get
            in
            let chosen = (Engine.choose engine path ~i ~j ~dir).Engine.chosen in
            let probe = exec () in
            let run = engine_run stitch in
            if run <> probe then
              Alcotest.failf "%s: engine stitch charged %d pages, Exec %d"
                (Engine.Plan.to_string stitch) run probe;
            Printf.sprintf "%s | probe %d batch %d%s" (Engine.Plan.to_string stitch) probe
              (batch ())
              (match chosen with Engine.Plan.Stitch _ -> "" | _ -> " (nav)")
          in
          [
            line Engine.Plan.Fwd
              ~exec:(fun () -> pages (fun o -> E.forward_supported env a ~i ~j o) sources)
              ~engine_run:(fun p -> pages (Engine.run_forward engine p) sources)
              ~batch:(fun () ->
                batch_pages (fun () -> Engine.forward_batch engine path ~i ~j sources));
            line Engine.Plan.Bwd
              ~exec:(fun () ->
                pages (fun target -> E.backward_supported env a ~i ~j ~target) targets)
              ~engine_run:(fun p ->
                pages (fun target -> Engine.run_backward engine p ~target) targets)
              ~batch:(fun () ->
                batch_pages (fun () -> Engine.backward_batch engine path ~i ~j ~targets));
          ])
        (all_ranges n))
    (D.all ~m:(Gom.Path.arity path - 1))

let stitch_golden =
  String.concat "\n"
    [
      "asr fw(0,1) full/(0,4) on T0.A1.A2.A3 [lookup(p0@c0)] | probe 136 batch 1 (nav)";
      "asr bw(0,1) full/(0,4) on T0.A1.A2.A3 [scan(p0@c1)] | probe 1560 batch 26";
      "asr fw(0,2) full/(0,4) on T0.A1.A2.A3 [lookup(p0@c0)] | probe 136 batch 15";
      "asr bw(0,2) full/(0,4) on T0.A1.A2.A3 [scan(p0@c3)] | probe 2340 batch 26";
      "asr fw(0,3) full/(0,4) on T0.A1.A2.A3 [lookup(p0@c0)] | probe 136 batch 15";
      "asr bw(0,3) full/(0,4) on T0.A1.A2.A3 [lookup(p0@c4)] | probe 393 batch 25";
      "asr fw(1,2) full/(0,4) on T0.A1.A2.A3 [scan(p0@c1)] | probe 1560 batch 3 (nav)";
      "asr bw(1,2) full/(0,4) on T0.A1.A2.A3 [scan(p0@c3)] | probe 2340 batch 26";
      "asr fw(1,3) full/(0,4) on T0.A1.A2.A3 [scan(p0@c1)] | probe 1560 batch 6 (nav)";
      "asr bw(1,3) full/(0,4) on T0.A1.A2.A3 [lookup(p0@c4)] | probe 393 batch 25";
      "asr fw(2,3) full/(0,4) on T0.A1.A2.A3 [scan(p0@c3)] | probe 2340 batch 3 (nav)";
      "asr bw(2,3) full/(0,4) on T0.A1.A2.A3 [lookup(p0@c4)] | probe 393 batch 25";
      "asr fw(0,1) full/(0,1,4) on T0.A1.A2.A3 [lookup(p0@c0)] | probe 86 batch 1 (nav)";
      "asr bw(0,1) full/(0,1,4) on T0.A1.A2.A3 [lookup(p0@c1)] | probe 128 batch 6";
      "asr fw(0,2) full/(0,1,4) on T0.A1.A2.A3 [lookup(p0@c0) ; lookup(p1@c1)] | probe 173 batch 4 (nav)";
      "asr bw(0,2) full/(0,1,4) on T0.A1.A2.A3 [scan(p1@c3) ; lookup(p0@c1)] | probe 1684 batch 23";
      "asr fw(0,3) full/(0,1,4) on T0.A1.A2.A3 [lookup(p0@c0) ; lookup(p1@c1)] | probe 173 batch 20";
      "asr bw(0,3) full/(0,1,4) on T0.A1.A2.A3 [lookup(p1@c4) ; lookup(p0@c1)] | probe 376 batch 22";
      "asr fw(1,2) full/(0,1,4) on T0.A1.A2.A3 [lookup(p1@c1)] | probe 138 batch 3 (nav)";
      "asr bw(1,2) full/(0,1,4) on T0.A1.A2.A3 [scan(p1@c3)] | probe 1530 batch 17";
      "asr fw(1,3) full/(0,1,4) on T0.A1.A2.A3 [lookup(p1@c1)] | probe 138 batch 15";
      "asr bw(1,3) full/(0,1,4) on T0.A1.A2.A3 [lookup(p1@c4)] | probe 263 batch 16";
      "asr fw(2,3) full/(0,1,4) on T0.A1.A2.A3 [scan(p1@c3)] | probe 1530 batch 3 (nav)";
      "asr bw(2,3) full/(0,1,4) on T0.A1.A2.A3 [lookup(p1@c4)] | probe 263 batch 16";
      "asr fw(0,1) full/(0,2,4) on T0.A1.A2.A3 [lookup(p0@c0)] | probe 87 batch 1 (nav)";
      "asr bw(0,1) full/(0,2,4) on T0.A1.A2.A3 [scan(p0@c1)] | probe 420 batch 7";
      "asr fw(0,2) full/(0,2,4) on T0.A1.A2.A3 [lookup(p0@c0) ; lookup(p1@c2)] | probe 159 batch 17";
      "asr bw(0,2) full/(0,2,4) on T0.A1.A2.A3 [scan(p1@c3) ; lookup(p0@c2)] | probe 1333 batch 21";
      "asr fw(0,3) full/(0,2,4) on T0.A1.A2.A3 [lookup(p0@c0) ; lookup(p1@c2)] | probe 159 batch 17";
      "asr bw(0,3) full/(0,2,4) on T0.A1.A2.A3 [lookup(p1@c4) ; lookup(p0@c2)] | probe 382 batch 21";
      "asr fw(1,2) full/(0,2,4) on T0.A1.A2.A3 [scan(p0@c1) ; lookup(p1@c2)] | probe 539 batch 3 (nav)";
      "asr bw(1,2) full/(0,2,4) on T0.A1.A2.A3 [scan(p1@c3) ; lookup(p0@c2)] | probe 1333 batch 21";
      "asr fw(1,3) full/(0,2,4) on T0.A1.A2.A3 [scan(p0@c1) ; lookup(p1@c2)] | probe 539 batch 6 (nav)";
      "asr bw(1,3) full/(0,2,4) on T0.A1.A2.A3 [lookup(p1@c4) ; lookup(p0@c2)] | probe 382 batch 21";
      "asr fw(2,3) full/(0,2,4) on T0.A1.A2.A3 [scan(p1@c3)] | probe 1170 batch 3 (nav)";
      "asr bw(2,3) full/(0,2,4) on T0.A1.A2.A3 [lookup(p1@c4)] | probe 260 batch 13";
      "asr fw(0,1) full/(0,3,4) on T0.A1.A2.A3 [lookup(p0@c0)] | probe 94 batch 1 (nav)";
      "asr bw(0,1) full/(0,3,4) on T0.A1.A2.A3 [scan(p0@c1)] | probe 1200 batch 20";
      "asr fw(0,2) full/(0,3,4) on T0.A1.A2.A3 [lookup(p0@c0)] | probe 94 batch 11";
      "asr bw(0,2) full/(0,3,4) on T0.A1.A2.A3 [lookup(p0@c3)] | probe 210 batch 21";
      "asr fw(0,3) full/(0,3,4) on T0.A1.A2.A3 [lookup(p0@c0) ; lookup(p1@c3)] | probe 190 batch 17";
      "asr bw(0,3) full/(0,3,4) on T0.A1.A2.A3 [lookup(p1@c4) ; lookup(p0@c3)] | probe 413 batch 28";
      "asr fw(1,2) full/(0,3,4) on T0.A1.A2.A3 [scan(p0@c1)] | probe 1200 batch 3 (nav)";
      "asr bw(1,2) full/(0,3,4) on T0.A1.A2.A3 [lookup(p0@c3)] | probe 210 batch 21";
      "asr fw(1,3) full/(0,3,4) on T0.A1.A2.A3 [scan(p0@c1) ; lookup(p1@c3)] | probe 1349 batch 6 (nav)";
      "asr bw(1,3) full/(0,3,4) on T0.A1.A2.A3 [lookup(p1@c4) ; lookup(p0@c3)] | probe 413 batch 28";
      "asr fw(2,3) full/(0,3,4) on T0.A1.A2.A3 [lookup(p1@c3)] | probe 190 batch 3 (nav)";
      "asr bw(2,3) full/(0,3,4) on T0.A1.A2.A3 [lookup(p1@c4)] | probe 249 batch 7";
      "asr fw(0,1) full/(0,1,2,4) on T0.A1.A2.A3 [lookup(p0@c0)] | probe 86 batch 1 (nav)";
      "asr bw(0,1) full/(0,1,2,4) on T0.A1.A2.A3 [lookup(p0@c1)] | probe 128 batch 6";
      "asr fw(0,2) full/(0,1,2,4) on T0.A1.A2.A3 [lookup(p0@c0) ; lookup(p1@c1) ; lookup(p2@c2)] | probe 235 batch 4 (nav)";
      "asr bw(0,2) full/(0,1,2,4) on T0.A1.A2.A3 [scan(p2@c3) ; lookup(p1@c2) ; lookup(p0@c1)] | probe 1469 batch 24";
      "asr fw(0,3) full/(0,1,2,4) on T0.A1.A2.A3 [lookup(p0@c0) ; lookup(p1@c1) ; lookup(p2@c2)] | probe 235 batch 21";
      "asr bw(0,3) full/(0,1,2,4) on T0.A1.A2.A3 [lookup(p2@c4) ; lookup(p1@c2) ; lookup(p0@c1)] | probe 480 batch 24";
      "asr fw(1,2) full/(0,1,2,4) on T0.A1.A2.A3 [lookup(p1@c1) ; lookup(p2@c2)] | probe 246 batch 3 (nav)";
      "asr bw(1,2) full/(0,1,2,4) on T0.A1.A2.A3 [scan(p2@c3) ; lookup(p1@c2)] | probe 1315 batch 18";
      "asr fw(1,3) full/(0,1,2,4) on T0.A1.A2.A3 [lookup(p1@c1) ; lookup(p2@c2)] | probe 246 batch 17";
      "asr bw(1,3) full/(0,1,2,4) on T0.A1.A2.A3 [lookup(p2@c4) ; lookup(p1@c2)] | probe 367 batch 18";
      "asr fw(2,3) full/(0,1,2,4) on T0.A1.A2.A3 [scan(p2@c3)] | probe 1170 batch 3 (nav)";
      "asr bw(2,3) full/(0,1,2,4) on T0.A1.A2.A3 [lookup(p2@c4)] | probe 260 batch 13";
      "asr fw(0,1) full/(0,1,3,4) on T0.A1.A2.A3 [lookup(p0@c0)] | probe 86 batch 1 (nav)";
      "asr bw(0,1) full/(0,1,3,4) on T0.A1.A2.A3 [lookup(p0@c1)] | probe 128 batch 6";
      "asr fw(0,2) full/(0,1,3,4) on T0.A1.A2.A3 [lookup(p0@c0) ; lookup(p1@c1)] | probe 168 batch 4 (nav)";
      "asr bw(0,2) full/(0,1,3,4) on T0.A1.A2.A3 [lookup(p1@c3) ; lookup(p0@c1)] | probe 354 batch 21";
      "asr fw(0,3) full/(0,1,3,4) on T0.A1.A2.A3 [lookup(p0@c0) ; lookup(p1@c1) ; lookup(p2@c3)] | probe 264 batch 7 (nav)";
      "asr bw(0,3) full/(0,1,3,4) on T0.A1.A2.A3 [lookup(p2@c4) ; lookup(p1@c3) ; lookup(p0@c1)] | probe 515 batch 28";
      "asr fw(1,2) full/(0,1,3,4) on T0.A1.A2.A3 [lookup(p1@c1)] | probe 135 batch 3 (nav)";
      "asr bw(1,2) full/(0,1,3,4) on T0.A1.A2.A3 [lookup(p1@c3)] | probe 200 batch 15";
      "asr fw(1,3) full/(0,1,3,4) on T0.A1.A2.A3 [lookup(p1@c1) ; lookup(p2@c3)] | probe 284 batch 6 (nav)";
      "asr bw(1,3) full/(0,1,3,4) on T0.A1.A2.A3 [lookup(p2@c4) ; lookup(p1@c3)] | probe 402 batch 22";
      "asr fw(2,3) full/(0,1,3,4) on T0.A1.A2.A3 [lookup(p2@c3)] | probe 190 batch 3 (nav)";
      "asr bw(2,3) full/(0,1,3,4) on T0.A1.A2.A3 [lookup(p2@c4)] | probe 249 batch 7";
      "asr fw(0,1) full/(0,2,3,4) on T0.A1.A2.A3 [lookup(p0@c0)] | probe 87 batch 1 (nav)";
      "asr bw(0,1) full/(0,2,3,4) on T0.A1.A2.A3 [scan(p0@c1)] | probe 420 batch 7";
      "asr fw(0,2) full/(0,2,3,4) on T0.A1.A2.A3 [lookup(p0@c0) ; lookup(p1@c2)] | probe 159 batch 14";
      "asr bw(0,2) full/(0,2,3,4) on T0.A1.A2.A3 [lookup(p1@c3) ; lookup(p0@c2)] | probe 358 batch 18";
      "asr fw(0,3) full/(0,2,3,4) on T0.A1.A2.A3 [lookup(p0@c0) ; lookup(p1@c2) ; lookup(p2@c3)] | probe 255 batch 20";
      "asr bw(0,3) full/(0,2,3,4) on T0.A1.A2.A3 [lookup(p2@c4) ; lookup(p1@c3) ; lookup(p0@c2)] | probe 517 batch 25";
      "asr fw(1,2) full/(0,2,3,4) on T0.A1.A2.A3 [scan(p0@c1) ; lookup(p1@c2)] | probe 534 batch 3 (nav)";
      "asr bw(1,2) full/(0,2,3,4) on T0.A1.A2.A3 [lookup(p1@c3) ; lookup(p0@c2)] | probe 358 batch 18";
      "asr fw(1,3) full/(0,2,3,4) on T0.A1.A2.A3 [scan(p0@c1) ; lookup(p1@c2) ; lookup(p2@c3)] | probe 683 batch 6 (nav)";
      "asr bw(1,3) full/(0,2,3,4) on T0.A1.A2.A3 [lookup(p2@c4) ; lookup(p1@c3) ; lookup(p0@c2)] | probe 517 batch 25";
      "asr fw(2,3) full/(0,2,3,4) on T0.A1.A2.A3 [lookup(p2@c3)] | probe 190 batch 3 (nav)";
      "asr bw(2,3) full/(0,2,3,4) on T0.A1.A2.A3 [lookup(p2@c4)] | probe 249 batch 7";
      "asr fw(0,1) full/(0,1,2,3,4) on T0.A1.A2.A3 [lookup(p0@c0)] | probe 86 batch 1 (nav)";
      "asr bw(0,1) full/(0,1,2,3,4) on T0.A1.A2.A3 [lookup(p0@c1)] | probe 128 batch 6";
      "asr fw(0,2) full/(0,1,2,3,4) on T0.A1.A2.A3 [lookup(p0@c0) ; lookup(p1@c1) ; lookup(p2@c2)] | probe 235 batch 4 (nav)";
      "asr bw(0,2) full/(0,1,2,3,4) on T0.A1.A2.A3 [lookup(p2@c3) ; lookup(p1@c2) ; lookup(p0@c1)] | probe 494 batch 21";
      "asr fw(0,3) full/(0,1,2,3,4) on T0.A1.A2.A3 [lookup(p0@c0) ; lookup(p1@c1) ; lookup(p2@c2) ; lookup(p3@c3)] | probe 331 batch 7 (nav)";
      "asr bw(0,3) full/(0,1,2,3,4) on T0.A1.A2.A3 [lookup(p3@c4) ; lookup(p2@c3) ; lookup(p1@c2) ; lookup(p0@c1)] | probe 615 batch 28";
      "asr fw(1,2) full/(0,1,2,3,4) on T0.A1.A2.A3 [lookup(p1@c1) ; lookup(p2@c2)] | probe 241 batch 3 (nav)";
      "asr bw(1,2) full/(0,1,2,3,4) on T0.A1.A2.A3 [lookup(p2@c3) ; lookup(p1@c2)] | probe 340 batch 15";
      "asr fw(1,3) full/(0,1,2,3,4) on T0.A1.A2.A3 [lookup(p1@c1) ; lookup(p2@c2) ; lookup(p3@c3)] | probe 390 batch 6 (nav)";
      "asr bw(1,3) full/(0,1,2,3,4) on T0.A1.A2.A3 [lookup(p3@c4) ; lookup(p2@c3) ; lookup(p1@c2)] | probe 502 batch 22";
      "asr fw(2,3) full/(0,1,2,3,4) on T0.A1.A2.A3 [lookup(p3@c3)] | probe 190 batch 3 (nav)";
      "asr bw(2,3) full/(0,1,2,3,4) on T0.A1.A2.A3 [lookup(p3@c4)] | probe 249 batch 7";
    ]

let test_stitch_golden () =
  let got = String.concat "\n" (stitch_golden_lines ()) in
  Alcotest.(check string) "stitch plans and pages" stitch_golden got

(* ---------------- profiles kept from events ---------------- *)

(* One random mutation of any store, decoded from three small ints so
   that QCheck shrinks a stream op by op: set insert and remove,
   attribute reassignment (a set-valued attribute may be pointed at
   another holder's set, so two holders share it), attributes set to
   NULL, creation, and deletion of any object, holders, set instances
   and targets alike.  Elementary values are drawn from three per type,
   so holders share targets there too. *)
let mutate store (kind, a, b) =
  let schema = Gom.Store.schema store in
  let objs =
    Array.of_list
      (Gom.Store.fold_objects store ~init:[] ~f:(fun acc i -> Gom.Instance.oid i :: acc))
  in
  let pick arr k = arr.(k mod Array.length arr) in
  let filter f = Array.of_list (List.filter f (Array.to_list objs)) in
  let is_collection o = Gom.Schema.element_type schema (Gom.Store.type_of store o) <> None in
  let collections = filter is_collection in
  let tuples =
    filter (fun o ->
        (not (is_collection o)) && Gom.Schema.attrs schema (Gom.Store.type_of store o) <> [])
  in
  let value decl k =
    match Gom.Schema.atomic_of schema decl with
    | Some Gom.Schema.A_string -> Some (V.Str (Printf.sprintf "v%d" (k mod 3)))
    | Some Gom.Schema.A_int -> Some (V.Int (k mod 3))
    | Some Gom.Schema.A_dec -> Some (V.Dec (float_of_int (k mod 3)))
    | Some Gom.Schema.A_bool -> Some (V.Bool (k mod 2 = 0))
    | Some Gom.Schema.A_char -> Some (V.Char (Char.chr (97 + (k mod 3))))
    | None -> (
      match Array.of_list (Gom.Store.extent ~deep:true store decl) with
      | [||] -> None
      | targets -> Some (V.Ref (pick targets k)))
  in
  let attr_of o k =
    let attrs = Array.of_list (Gom.Schema.attrs schema (Gom.Store.type_of store o)) in
    pick attrs k
  in
  match kind with
  | 0 | 1 | 2 when collections <> [||] ->
    let s = pick collections a in
    let elem = Option.get (Gom.Schema.element_type schema (Gom.Store.type_of store s)) in
    Option.iter (Gom.Store.insert_elem store s) (value elem b)
  | 3 | 4 when collections <> [||] -> (
    let s = pick collections a in
    match Array.of_list (Gom.Store.elements store s) with
    | [||] -> ()
    | elems -> Gom.Store.remove_elem store s (pick elems b))
  | 5 | 6 when tuples <> [||] ->
    let o = pick tuples a in
    let attr, decl = attr_of o b in
    Option.iter (Gom.Store.set_attr store o attr) (value decl (a + b))
  | 7 when tuples <> [||] ->
    let o = pick tuples a in
    Gom.Store.set_attr store o (fst (attr_of o b)) V.Null
  | 8 ->
    let types =
      List.filter
        (fun ty -> not (Gom.Schema.is_atomic schema ty))
        (Gom.Schema.type_names schema)
      |> Array.of_list
    in
    ignore (Gom.Store.new_object store (pick types (a + b)))
  | 9 when objs <> [||] -> Gom.Store.delete store (pick objs a)
  | _ -> ()

(* A small schema with subtypes on both sides of a set-valued and a
   single-valued step, and a list-valued step: deep extents, inherited
   attributes, and list elements that repeat. *)
let subtype_base () =
  let s = Gom.Schema.empty in
  let s = Gom.Schema.define_tuple s "Item" [ ("Label", "STRING") ] in
  let s = Gom.Schema.define_tuple s "Gadget" ~supertypes:[ "Item" ] [ ("Weight", "INTEGER") ] in
  let s = Gom.Schema.define_set s "ItemSET" "Item" in
  let s = Gom.Schema.define_list s "ItemLIST" "Item" in
  let s =
    Gom.Schema.define_tuple s "Box"
      [ ("Contents", "ItemSET"); ("Queue", "ItemLIST"); ("Main", "Item") ]
  in
  let s = Gom.Schema.define_tuple s "Crate" ~supertypes:[ "Box" ] [ ("Tag", "STRING") ] in
  let store = Gom.Store.create s in
  let items =
    List.init 6 (fun k ->
        let o = Gom.Store.new_object store (if k mod 2 = 0 then "Item" else "Gadget") in
        Gom.Store.set_attr store o "Label" (V.Str (Printf.sprintf "v%d" (k mod 3)));
        o)
  in
  List.iteri
    (fun k ty ->
      let box = Gom.Store.new_object store ty in
      let set = Gom.Store.new_object store "ItemSET" in
      let list = Gom.Store.new_object store "ItemLIST" in
      List.iteri
        (fun j it ->
          if (j + k) mod 2 = 0 then Gom.Store.insert_elem store set (V.Ref it);
          if (j + k) mod 3 = 0 then Gom.Store.insert_elem store list (V.Ref it))
        items;
      Gom.Store.set_attr store box "Contents" (V.Ref set);
      Gom.Store.set_attr store box "Queue" (V.Ref list);
      Gom.Store.set_attr store box "Main" (V.Ref (List.nth items k)))
    [ "Box"; "Crate"; "Box"; "Crate" ];
  let path = Gom.Path.parse s in
  (store, [ path "Box.Contents.Label"; path "Box.Queue.Label"; path "Box.Main.Label" ])

(* Three bases: the generator's (set-valued and single-valued steps, and
   the same path with its atomic last step Tag), the paper's Company
   schema, and the subtype schema above. *)
let profile_bases () =
  let spec =
    Workload.Generator.spec ~seed:3 ~set_valued:[ true; false; true ] ~counts:[ 4; 6; 8; 10 ]
      ~defined:[ 3; 5; 7 ] ~fan:[ 2; 1; 2 ] ()
  in
  let gstore, gpath = Workload.Generator.build spec in
  let gschema = Gom.Store.schema gstore in
  let company = (Workload.Schemas.Company.base ()).Workload.Schemas.Company.store in
  let cschema = Gom.Store.schema company in
  [
    (gstore, [ gpath; Gom.Path.make gschema "T0" [ "A1"; "A2"; "A3"; "Tag" ] ]);
    ( company,
      [
        Gom.Path.parse cschema "Division.Manufactures.Composition.Name";
        Gom.Path.parse cschema "Product.Composition.Price";
      ] );
    subtype_base ();
  ]

let prop_profiles_kept_exact =
  QCheck.Test.make ~name:"event-kept profile = measure_profile after random mutations"
    ~count:(Qc.iters_env "ASR_PROFILE_COUNT" 100)
    QCheck.(list_of_size Gen.(1 -- 40) (triple (int_bound 9) small_nat small_nat))
    (fun ops ->
      List.for_all
        (fun (store, paths) ->
          let engine = Engine.create (env_of store) in
          let exact () =
            List.for_all
              (fun p -> Engine.profile engine p = Engine.measure_profile store p)
              paths
          in
          exact ()
          && List.for_all
               (fun op ->
                 mutate store op;
                 exact ())
               ops)
        (profile_bases ()))

let test_pinned_profile_wins () =
  let store, path, env = gen_base () in
  let engine = Engine.create env in
  ignore (Engine.profile engine path);
  pin_expensive_nav engine path;
  let pinned = Engine.profile engine path in
  check "pinned differs from the base" true (pinned <> Engine.measure_profile store path);
  List.iter (mutate store) (List.init 30 (fun k -> (k mod 10, 7 * k, 3 * k)));
  check "pinned survives mutations" true (Engine.profile engine path == pinned)

(* Planning on behalf of a frozen reader measures the snapshot; that
   measurement must never stand in for the live base's profile. *)
let test_snapshot_profile_stays_out () =
  let spec =
    Workload.Generator.spec ~seed:42 ~counts:[ 25; 50; 100; 200 ] ~defined:[ 22; 45; 90 ]
      ~fan:[ 2; 2; 2 ] ()
  in
  let store, path = Workload.Generator.build spec in
  let heap = Storage.Heap.create ~size_of:(Workload.Generator.size_of spec) store in
  let engine = Engine.create (E.make store heap) in
  let frozen = Gom.Store_view.frozen (Gom.Frozen.of_store store) in
  (* Two more T1 elements in every T0's A1 set. *)
  List.iter
    (fun o ->
      match Gom.Store.get_attr store o "A1" with
      | V.Ref set ->
        let fresh =
          List.filter
            (fun t -> not (List.mem (V.Ref t) (Gom.Store.elements store set)))
            (Gom.Store.extent store "T1")
        in
        List.iter
          (fun t -> Gom.Store.insert_elem store set (V.Ref t))
          (List.filteri (fun d _ -> d < 2) fresh)
      | _ -> ())
    (Gom.Store.extent store "T0");
  let n = Gom.Path.length path in
  ignore
    (Engine.candidates ~env:(E.make_view frozen heap) engine path ~i:0 ~j:n
       ~dir:Engine.Plan.Fwd);
  check "live profile is the live base's" true
    (Engine.profile engine path = Engine.measure_profile store path);
  check "the writes moved the profile" true
    (Engine.measure_profile_view frozen path <> Engine.measure_profile store path)

let test_no_walks_after_planning () =
  let store, path, env = gen_base () in
  let a = Core.Asr.create store path Core.Extension.Full (D.binary ~m:(Gom.Path.arity path - 1)) in
  let engine = Engine.create env in
  Engine.register engine a;
  let mgr = Core.Maintenance.create env in
  Core.Maintenance.register mgr a;
  let n = Gom.Path.length path in
  check_int "register walks nothing" 0 (Engine.cache_info engine).Engine.profile_walks;
  ignore (Engine.choose engine path ~i:0 ~j:n ~dir:Engine.Plan.Bwd);
  let walks = (Engine.cache_info engine).Engine.profile_walks in
  check_int "one walk on the first request" 1 walks;
  let holders = Array.of_list (Gom.Store.extent store "T2") in
  let targets = Array.of_list (Gom.Store.extent store "T3") in
  for k = 0 to 199 do
    (match Gom.Store.get_attr store holders.(k mod Array.length holders) "A3" with
    | V.Ref set ->
      let t = V.Ref targets.(k * 7 mod Array.length targets) in
      if List.mem t (Gom.Store.elements store set) then Gom.Store.remove_elem store set t
      else Gom.Store.insert_elem store set t
    | _ -> ());
    let target = V.Ref targets.(k mod Array.length targets) in
    check "answer" true
      (oset (Engine.backward engine path ~i:0 ~j:n ~target)
       = oset (E.backward_scan env path ~i:0 ~j:n ~target))
  done;
  check_int "no further walks" walks (Engine.cache_info engine).Engine.profile_walks

(* ---------------- explain ---------------- *)

let test_explain () =
  let store, path, env = gen_base () in
  let a =
    Core.Asr.create store path Core.Extension.Full
      (D.binary ~m:(Gom.Path.arity path - 1))
  in
  let engine = Engine.create env in
  Engine.register engine a;
  let n = Gom.Path.length path in
  let x1 = Engine.explain engine path ~i:0 ~j:n ~dir:Engine.Plan.Bwd in
  check "first explain is a miss" false x1.Engine.x_cached;
  let x2 = Engine.explain engine path ~i:0 ~j:n ~dir:Engine.Plan.Bwd in
  check "second explain is cached" true x2.Engine.x_cached;
  check "candidates priced cheapest-first" true
    (let costs =
       List.map (fun (c : Engine.candidate) -> c.Engine.est_cost)
         x1.Engine.x_choice.Engine.candidates
     in
     costs = List.sort compare costs);
  check "chosen is the head candidate" true
    (match x1.Engine.x_choice.Engine.candidates with
    | { Engine.est_cost; _ } :: _ ->
      est_cost = x1.Engine.x_choice.Engine.est_cost
    | [] -> false);
  let s = Engine.explanation_to_string x2 in
  check "rendering mentions the plan" true
    (let has sub =
       let ls = String.length s and lsub = String.length sub in
       let rec go k = k + lsub <= ls && (String.sub s k lsub = sub || go (k + 1)) in
       go 0
     in
     has "plan" && has "cost" && has "cache : hit")

(* A closed engine and a closed maintenance manager no longer follow
   the store: a set insert moves neither the generation nor the ASR. *)
let test_close_detaches () =
  let spec =
    Workload.Generator.spec ~seed:8 ~counts:[ 6; 12; 18; 24 ] ~defined:[ 6; 10; 16 ]
      ~fan:[ 2; 2; 2 ] ()
  in
  let store, path = Workload.Generator.build spec in
  let env = env_of store in
  let engine = Engine.create env in
  let mgr = Core.Maintenance.create env in
  let a =
    Core.Asr.create store path Core.Extension.Full
      (Core.Decomposition.binary ~m:(Gom.Path.arity path - 1))
  in
  Core.Maintenance.register mgr a;
  Engine.register engine a;
  ignore (Engine.profile engine path);
  (* One T1 missing from some T0's A1 set per call. *)
  let insert () =
    let t1s = Gom.Store.extent store "T1" in
    let slot =
      List.find_map
        (fun o ->
          match Gom.Store.get_attr store o "A1" with
          | V.Ref set ->
            List.find_map
              (fun t ->
                if List.mem (V.Ref t) (Gom.Store.elements store set) then None
                else Some (set, t))
              t1s
          | _ -> None)
        (Gom.Store.extent store "T0")
    in
    match slot with
    | Some (set, t) -> Gom.Store.insert_elem store set (V.Ref t)
    | None -> Alcotest.fail "no free slot in any A1 set"
  in
  let observe () = (Engine.generation engine, Core.Asr.extension_relation a) in
  let gen0, ext0 = observe () in
  insert ();
  let gen1, ext1 = observe () in
  check "open: the insert bumps the generation" true (gen1 > gen0);
  check "open: the insert changes the extension" false (Relation.equal ext0 ext1);
  Engine.close engine;
  Core.Maintenance.close mgr;
  Engine.close engine;
  Core.Maintenance.close mgr;
  insert ();
  let gen2, ext2 = observe () in
  check_int "closed: generation unchanged" gen1 gen2;
  check "closed: extension unchanged" true (Relation.equal ext1 ext2)

let suite =
  [
    Qc.to_alcotest prop_engine_agrees_oracle;
    Qc.to_alcotest prop_batch_agrees_oracle;
    Alcotest.test_case "plan cache hits" `Quick test_plan_cache_hits;
    Alcotest.test_case "plan cache invalidation" `Quick test_plan_cache_invalidation;
    Alcotest.test_case "foreign index rejected" `Quick test_register_other_store_rejected;
    Alcotest.test_case "batched probes save pages" `Quick test_batch_saves_pages;
    Alcotest.test_case "explain" `Quick test_explain;
    Alcotest.test_case "stitch walk golden" `Quick test_stitch_golden;
    Qc.to_alcotest prop_profiles_kept_exact;
    Alcotest.test_case "pinned profile wins over tracked" `Quick test_pinned_profile_wins;
    Alcotest.test_case "snapshot profile stays out of live planning" `Quick
      test_snapshot_profile_stays_out;
    Alcotest.test_case "no profile walks after planning" `Quick test_no_walks_after_planning;
    Alcotest.test_case "close detaches engine and maintenance" `Quick test_close_detaches;
  ]
