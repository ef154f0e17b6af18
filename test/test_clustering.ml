(* Oracle suites for the buffer pool and traversal-aware reclustering.

   Two invariants carry the whole optimisation story:

   - a buffer pool is invisible to semantics AND to logical accounting:
     for any base, any query mix and any capacity (including 0), the
     answers and the cumulative logical page counts are identical to the
     unbuffered run — only the physical counts may shrink;

   - reclustering moves placements, never objects: after repacking hot
     traversal neighbourhoods onto shared pages, every query answer is
     byte-identical to the pre-recluster layout's.

   And one measured payoff: on a skewed traversal mix, the recluster at
   least halves the physical reads of a warm pass. *)

module E = Core.Exec
module D = Core.Decomposition
module V = Gom.Value
module S = Storage.Stats
module H = Storage.Heap

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let spec_gen =
  QCheck.Gen.(
    let* nn = int_range 1 3 in
    let* counts = list_repeat (nn + 1) (int_range 2 8) in
    let* defined =
      flatten_l
        (List.map (fun c -> int_range 1 c) (List.filteri (fun i _ -> i < nn) counts))
    in
    let* fan = list_repeat nn (int_range 1 3) in
    let* sv = flatten_l (List.map (fun f -> if f > 1 then return true else bool) fan) in
    let* seed = int_range 0 10000 in
    return (Workload.Generator.spec ~seed ~set_valued:sv ~counts ~defined ~fan ()))

let all_ranges n =
  List.concat_map
    (fun i ->
      List.filter_map (fun j -> if i < j then Some (i, j) else None)
        (List.init (n + 1) Fun.id))
    (List.init n Fun.id)

(* Evaluate every (i, j) range of [path], forward and backward, batched
   and probe-at-a-time, against a fresh engine+ASR whose environment has
   a [cap]-page buffer pool (0 = unbuffered).  Returns the transcript of
   answers plus the environment's cumulative read counts.  The planner
   is left free: with a pool attached, warmth-aware pricing may pick
   different plans than the cold run — answers must not care. *)
let run_workload ~cap ~kind_idx ~pick store path =
  let heap = H.create ~size_of:(fun _ -> 100) store in
  let env = E.make ~buffer_pages:cap store heap in
  let kind = List.nth Core.Extension.all kind_idx in
  let m = Gom.Path.arity path - 1 in
  let decs = D.all ~m in
  let dec = List.nth decs (pick mod List.length decs) in
  let a = Core.Asr.create store path kind dec in
  let engine = Engine.create env in
  Engine.register engine a;
  let n = Gom.Path.length path in
  let answers =
    List.concat_map
      (fun (i, j) ->
        let sources = Gom.Store.extent ~deep:true store (Gom.Path.type_at path i) in
        let targets =
          Gom.Store.extent ~deep:true store (Gom.Path.type_at path j)
          |> List.map (fun o -> V.Ref o)
        in
        let fwd = Engine.forward_batch ~env engine path ~i ~j sources in
        let bwd = Engine.backward_batch ~env engine path ~i ~j ~targets in
        let singles =
          List.map (fun src -> Engine.forward ~env engine path ~i ~j src) sources
        in
        [ (fwd, bwd, singles) ])
      (all_ranges n)
  in
  (answers, S.logical_reads env.E.stats, S.total_reads env.E.stats)

let prop_buffered_eq_unbuffered =
  QCheck.Test.make
    ~name:"buffered = unbuffered: engine answers, any capacity" ~count:30
    QCheck.(
      pair (make ~print:(fun _ -> "<spec>") spec_gen) (pair (int_bound 3) small_int))
    (fun (spec, (kind_idx, pick)) ->
      let store, path = Workload.Generator.build spec in
      let reference, ref_logical, ref_physical =
        run_workload ~cap:0 ~kind_idx ~pick store path
      in
      (* Unbuffered: physical = logical by construction. *)
      if ref_physical <> ref_logical then false
      else
        List.for_all
          (fun cap ->
            let answers, _, _ = run_workload ~cap ~kind_idx ~pick store path in
            answers = reference)
          [ 1; 4; 64 ])

(* Logical accounting is a pure function of the evaluation, so holding
   the evaluation fixed — direct ASR probes, partition scans and heap
   extent scans, no planner in the loop — the cumulative logical read
   count must be bit-identical across capacities, while physical reads
   can only shrink. *)
let prop_logical_counts_buffer_invariant =
  QCheck.Test.make
    ~name:"buffered = unbuffered: logical reads on a fixed evaluation" ~count:30
    QCheck.(
      pair (make ~print:(fun _ -> "<spec>") spec_gen) (pair (int_bound 3) small_int))
    (fun (spec, (kind_idx, pick)) ->
      let store, path = Workload.Generator.build spec in
      let kind = List.nth Core.Extension.all kind_idx in
      let m = Gom.Path.arity path - 1 in
      let decs = D.all ~m in
      let dec = List.nth decs (pick mod List.length decs) in
      let n = Gom.Path.length path in
      let sources =
        Gom.Store.extent ~deep:true store (Gom.Path.type_at path 0)
        |> List.map (fun o -> V.Ref o)
      in
      let run cap =
        (* Fresh ASR and heap per run: lazy first-access work (tree
           builds, flushes) must be charged identically everywhere. *)
        let a = Core.Asr.create store path kind dec in
        let heap = H.create ~size_of:(fun _ -> 100) store in
        let st =
          if cap > 0 then S.create ~buffer_capacity:cap () else S.create ()
        in
        (* Two passes so a warm pool has something to hit. *)
        for _ = 1 to 2 do
          S.begin_op st;
          List.iter
            (fun src ->
              ignore (Core.Asr.lookup ~stats:st a 0 ~fwd:true [ src ] src);
              match src with
              | V.Ref o -> H.read_object heap st o
              | _ -> ())
            sources;
          S.begin_op st;
          ignore (Core.Asr.lookup ~stats:st a 0 ~fwd:true sources : V.t -> _);
          ignore (Core.Asr.scan_partition ~stats:st a 0);
          H.scan_extent heap st (Gom.Path.type_at path n)
        done;
        (S.logical_reads st, S.total_reads st)
      in
      let ref_logical, ref_physical = run 0 in
      ref_logical = ref_physical
      && List.for_all
           (fun cap ->
             let logical, physical = run cap in
             logical = ref_logical && physical <= ref_physical)
           [ 1; 4; 64 ])

(* Drive real traversals through the engine with the affinity tracer
   attached, mine the co-access graph, recluster, and demand identical
   answers from the repacked layout. *)
let prop_recluster_preserves_answers =
  QCheck.Test.make ~name:"recluster = identity on query answers" ~count:30
    QCheck.(
      pair (make ~print:(fun _ -> "<spec>") spec_gen) (pair (int_bound 3) small_int))
    (fun (spec, (kind_idx, pick)) ->
      let store, path = Workload.Generator.build spec in
      let sizes _ = 100 in
      let heap = H.create ~size_of:sizes store in
      let env = E.make store heap in
      let kind = List.nth Core.Extension.all kind_idx in
      let m = Gom.Path.arity path - 1 in
      let decs = D.all ~m in
      let dec = List.nth decs (pick mod List.length decs) in
      let a = Core.Asr.create store path kind dec in
      let engine = Engine.create env in
      Engine.register engine a;
      let n = Gom.Path.length path in
      let transcript () =
        List.map
          (fun (i, j) ->
            let sources =
              Gom.Store.extent ~deep:true store (Gom.Path.type_at path i)
            in
            let targets =
              Gom.Store.extent ~deep:true store (Gom.Path.type_at path j)
              |> List.map (fun o -> V.Ref o)
            in
            ( Engine.forward_batch ~env engine path ~i ~j sources,
              Engine.backward_batch ~env engine path ~i ~j ~targets ))
          (all_ranges n)
      in
      (* Trace a pass of the workload to build the affinity graph. *)
      let tracer = Storage.Affinity.create ~window:8 () in
      H.set_tracer heap (Some tracer);
      let before = transcript () in
      H.set_tracer heap None;
      let page_size = (Storage.Config.default).Storage.Config.page_size in
      let plan =
        Storage.Affinity.clusters tracer
          ~size_of:(fun oid -> sizes (H.placement heap oid).H.ty)
          ~page_size
      in
      let (_ : H.recluster_outcome) = H.recluster heap ~plan in
      let after = transcript () in
      after = before)

(* Deterministic end-to-end check that a recluster driven by a real
   traversal trace actually reduces cold physical I/O: interleave two
   parents' children, recluster, and the traversal's page count drops to
   the packed bound. *)
let test_recluster_reduces_traversal_io () =
  let s = Gom.Schema.empty in
  let s = Gom.Schema.define_tuple s "Obj" [ ("x", "INT") ] in
  let store = Gom.Store.create s in
  let heap = H.create ~size_of:(fun _ -> 500) store in
  (* 8 objects fit a 4056-byte page; 16 objects over 2 pages. *)
  let objs = Array.init 16 (fun _ -> Gom.Store.new_object store "Obj") in
  (* The hot neighbourhood strides across both pages: objects 0, 8, 1,
     9, ... so every window pairs an object from each page. *)
  let traversal =
    List.init 16 (fun k -> objs.((k mod 2 * 8) + (k / 2)))
  in
  let tracer = Storage.Affinity.create ~window:2 () in
  H.set_tracer heap (Some tracer);
  let st = S.create () in
  let charge () =
    S.begin_op st;
    List.iter (H.read_object heap st) traversal;
    S.op_reads st
  in
  let cold_before = charge () in
  check_int "striding traversal touches both pages" 2 cold_before;
  H.set_tracer heap None;
  let plan =
    Storage.Affinity.clusters tracer
      ~size_of:(fun _ -> 500)
      ~page_size:(Storage.Config.default).Storage.Config.page_size
  in
  check "tracer mined at least one hot cluster" true (plan <> []);
  let outcome = H.recluster heap ~plan in
  check "some objects moved" true (outcome.H.rc_moved > 0);
  let cold_after = charge () in
  check "repacked traversal reads no more pages" true (cold_after <= cold_before)

(* A zipfian forward traversal mix over a creation-order base pays about
   one physical page fault per hop through a 16-page pool.  Mining the
   same trace into an affinity graph and reclustering the hot
   neighbourhoods onto shared pages must cut the warm pass's physical
   reads at least 2x, while the answers stay byte-identical across every
   layout and pool and the logical count of the buffered pass equals the
   unbuffered one.  A second probe warms the segment that the cold plan
   does not read: the planner's buffer-aware pricing must flip between
   navigation and the ASR. *)
let test_recluster_halves_skewed_traversal_reads () =
  let spec =
    Workload.Generator.spec ~seed:11 ~counts:[ 400; 400; 400; 400 ]
      ~defined:[ 400; 400; 400 ] ~fan:[ 1; 1; 1 ] ()
  in
  let store, path = Workload.Generator.build spec in
  let sizes = Workload.Generator.size_of spec in
  let heap = H.create ~size_of:sizes store in
  let n = Gom.Path.length path in
  let anchors = Array.of_list (Gom.Store.extent store "T0") in
  let k = Array.length anchors in
  (* Zipf(1) anchor ranks: cumulative 1/r mass, fixed seed. *)
  let cum = Array.make k 0. in
  Array.iteri (fun i _ -> cum.(i) <- (if i = 0 then 0. else cum.(i - 1)) +. (1. /. float_of_int (i + 1))) cum;
  let rng = Random.State.make [| 0xC1; 11 |] in
  let zipf _ =
    let u = Random.State.float rng cum.(k - 1) in
    let rec bisect lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cum.(mid) < u then bisect (mid + 1) hi else bisect lo mid
    in
    anchors.(bisect 0 (k - 1))
  in
  let anchor_seq = List.init 800 zipf in
  let run_pass ?(each = ignore) stats =
    let env = E.make ~stats store heap in
    List.map
      (fun o ->
        S.begin_op stats;
        each ();
        E.forward_scan env path ~i:0 ~j:n o)
      anchor_seq
  in
  let ref_stats = S.create () in
  let reference = run_pass ref_stats in
  (* The cold creation-order pass through the pool, traced. *)
  let tracer = Storage.Affinity.create ~window:(n + 1) () in
  H.set_tracer heap (Some tracer);
  let base_stats = S.create ~buffer_capacity:16 () in
  let base_answers = run_pass ~each:(fun () -> Storage.Affinity.break_run tracer) base_stats in
  H.set_tracer heap None;
  check "buffered logical reads = unbuffered" true
    (S.logical_reads base_stats = S.logical_reads ref_stats);
  let plan =
    Storage.Affinity.clusters tracer
      ~size_of:(fun oid -> sizes (H.placement heap oid).H.ty)
      ~page_size:(H.config heap).Storage.Config.page_size
  in
  ignore (H.recluster heap ~plan : H.recluster_outcome);
  (* One cold warming pass over the new layout, then the measured warm
     pass through the same pool. *)
  let post_stats = S.create ~buffer_capacity:16 () in
  let post_cold_answers = run_pass post_stats in
  let post_cold = S.total_reads post_stats in
  let warm_answers = run_pass post_stats in
  let warm = S.total_reads post_stats - post_cold in
  let unbuffered_answers = run_pass (S.create ()) in
  check "answers identical across layouts and pools" true
    (List.for_all (( = ) reference)
       [ base_answers; post_cold_answers; warm_answers; unbuffered_answers ]);
  let reduction = float_of_int (S.total_reads base_stats) /. float_of_int (max 1 warm) in
  check (Printf.sprintf "physical reads %.1fx fewer after recluster (>= 2)" reduction) true
    (reduction >= 2.0);
  let stats = S.create ~buffer_capacity:256 () in
  let env = E.make ~stats store heap in
  let engine = Engine.create ~sizes env in
  let index = Core.Asr.create store path Core.Extension.Full (D.binary ~m:(Gom.Path.arity path - 1)) in
  Engine.register engine index;
  let uses_asr () =
    match (Engine.choose engine path ~i:0 ~j:n ~dir:Engine.Plan.Fwd).Engine.chosen with
    | Engine.Plan.Stitch _ -> true
    | Engine.Plan.Nav _ | Engine.Plan.Extent_scan _ -> false
  in
  let cold_asr = uses_asr () in
  let key = V.Ref anchors.(0) in
  for _ = 1 to 40 do
    S.begin_op stats;
    if cold_asr then ignore (E.forward_scan env path ~i:0 ~j:n anchors.(0))
    else ignore (Core.Asr.lookup ~stats index 0 ~fwd:true [ key ] key)
  done;
  check "warm pricing flips the plan between navigation and the ASR" true
    (uses_asr () <> cold_asr)

let suite =
  [
    Qc.to_alcotest prop_buffered_eq_unbuffered;
    Qc.to_alcotest prop_logical_counts_buffer_invariant;
    Qc.to_alcotest prop_recluster_preserves_answers;
    Alcotest.test_case "recluster reduces traversal I/O" `Quick
      test_recluster_reduces_traversal_io;
    Alcotest.test_case "recluster halves a skewed traversal's reads" `Quick
      test_recluster_halves_skewed_traversal_reads;
  ]
