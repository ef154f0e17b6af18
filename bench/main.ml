(* Benchmark harness: the system-level sections that nothing else
   covers, each selected by a flag and each writing one JSON report to
   the current directory (--quick runs a section on a smaller base):

     --parallel            snapshot-serving scaling across domains
     --maintenance-batch   deferred batched index maintenance
     --serving             overload-resilient serving
     --replication         hot-standby WAL shipping
     --failover-smoke      mid-churn kill and promotion
     --sharded             scatter-gather across shards
     --clustering          buffer pool and traversal clustering

   With no section flag every section except replication and failover
   runs in turn.  The paper's figures are not here: they are
   Workload.Experiments, printed by `asr_cli experiment` and pinned
   under results/ by `dune runtest`.  End-to-end timing split by layer
   is perfbench/. *)

(* ------------------------------------------------------------------ *)
(* Part 1: parallel snapshot serving scaling (BENCH_parallel_scaling)  *)
(* ------------------------------------------------------------------ *)

(* Wall-clock throughput of one mixed probe-batch workload served by
   [Parallel.Server] at 1/2/4/8 domains, same snapshot, same queries.
   The answers must be byte-identical across job counts (deterministic
   merge) — that is asserted, not just reported.  Speedup is honest
   wall clock: on a single-core container every job count degenerates
   to ~1x, so CI gates its scaling assertion on the visible core count
   (recorded in the JSON as [cores]). *)
let bench_parallel ~quick () =
  let spec =
    if quick then
      Workload.Generator.spec ~seed:11
        ~counts:[ 100; 200; 400; 800 ]
        ~defined:[ 90; 180; 360 ] ~fan:[ 2; 2; 2 ] ()
    else
      Workload.Generator.spec ~seed:11
        ~counts:[ 400; 800; 1600; 3200 ]
        ~defined:[ 370; 730; 1450 ] ~fan:[ 2; 2; 2 ] ()
  in
  let store, path = Workload.Generator.build spec in
  let sizes = Workload.Generator.size_of spec in
  let n = Gom.Path.length path in
  let m = Gom.Path.arity path - 1 in
  let specs =
    [
      {
        Parallel.Snapshot.sp_path = path;
        sp_kind = Core.Extension.Full;
        sp_decomposition = Core.Decomposition.binary ~m;
      };
    ]
  in
  (* Mixed workload: forward batches over T0 slices, backward batches
     over T[n] slices, interleaved. *)
  let slice k xs =
    let rec go acc cur cnt = function
      | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
      | x :: rest ->
        if cnt = k then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (cnt + 1) rest
    in
    go [] [] 0 xs
  in
  let probe_sz = if quick then 16 else 64 in
  let fw_batches = slice probe_sz (Gom.Store.extent store "T0") in
  let bw_batches =
    slice probe_sz
      (List.map (fun o -> Gom.Value.Ref o)
         (Gom.Store.extent store (Printf.sprintf "T%d" n)))
  in
  let rec interleave a b =
    match (a, b) with
    | [], rest | rest, [] ->
      List.map
        (fun q ->
          match q with
          | `F srcs -> Parallel.Server.Forward { q_path = path; q_i = 0; q_j = n; q_sources = srcs }
          | `B tgts -> Parallel.Server.Backward { q_path = path; q_i = 0; q_j = n; q_targets = tgts })
        rest
    | f :: fs, b :: bs ->
      Parallel.Server.Forward { q_path = path; q_i = 0; q_j = n; q_sources = (match f with `F s -> s | _ -> assert false) }
      :: Parallel.Server.Backward { q_path = path; q_i = 0; q_j = n; q_targets = (match b with `B t -> t | _ -> assert false) }
      :: interleave fs bs
  in
  let queries =
    interleave (List.map (fun s -> `F s) fw_batches) (List.map (fun t -> `B t) bw_batches)
  in
  let rounds = if quick then 3 else 10 in
  let run jobs =
    let server = Parallel.Server.create ~jobs ~sizes ~specs store in
    let answers = Parallel.Server.serve server queries in
    (* warm serve above also primes the snapshot's plan cache *)
    let t0 = Unix.gettimeofday () in
    for _ = 1 to rounds do
      ignore (Parallel.Server.serve server queries)
    done;
    let dt = Unix.gettimeofday () -. t0 in
    Parallel.Server.shutdown server;
    (dt, answers)
  in
  let job_counts = [ 1; 2; 4; 8 ] in
  let results = List.map (fun j -> (j, run j)) job_counts in
  let _, (dt1, reference) = List.hd results in
  List.iter
    (fun (j, (_, answers)) ->
      if answers <> reference then begin
        Format.printf "  FAIL: answers at %d job(s) differ from 1 job@." j;
        exit 1
      end)
    results;
  let cores = Domain.recommended_domain_count () in
  let served = List.length queries * rounds in
  Format.printf "parallel snapshot serving: %d quer(ies)/round x %d round(s), %d core(s) visible@."
    (List.length queries) rounds cores;
  Format.printf "  %-6s %10s %12s %9s@." "jobs" "elapsed" "queries/s" "speedup";
  let rows =
    List.map
      (fun (j, (dt, _)) ->
        let qps = float_of_int served /. Float.max dt 1e-9 in
        let speedup = dt1 /. Float.max dt 1e-9 in
        (* A speedup measured with more worker domains than visible
           cores is timesharing, not scaling — flag it so consumers
           (and the CI gate) never read it as a scaling claim. *)
        let valid = j <= cores in
        Format.printf "  %-6d %9.3fs %12.1f %8.2fx%s@." j dt qps speedup
          (if valid then "" else "  (oversubscribed)");
        Printf.sprintf
          {|{"jobs": %d, "elapsed_s": %.6f, "queries_per_s": %.1f, "speedup_vs_1": %.3f, "speedup_valid": %b}|}
          j dt qps speedup valid)
      results
  in
  Format.printf "  deterministic : answers identical across all job counts@.";
  (* Epoch-publish latency versus store size: publication advances the
     previous epoch's CoW image by the event suffix and shares every
     registered ASR by reference (tree versions pinned, nothing
     rebuilt), so its latency must stay flat as the base grows.  This
     is the series the CI flatness gate reads.  The initial capture at
     server creation is still O(n) — it is deliberately excluded: the
     claim is about steady-state publication, not cold start. *)
  let publish_sizes = if quick then [ 10_000; 50_000 ] else [ 10_000; 100_000; 1_000_000 ] in
  let publish_series =
    List.map
      (fun size ->
        let half = size / 2 in
        let pspec =
          Workload.Generator.spec ~seed:7 ~counts:[ half; half ]
            ~defined:[ max 1 (half * 9 / 10) ]
            ~fan:[ 1 ] ()
        in
        let pstore, ppath = Workload.Generator.build pspec in
        let pm = Gom.Path.arity ppath - 1 in
        let pspecs =
          [
            {
              Parallel.Snapshot.sp_path = ppath;
              sp_kind = Core.Extension.Full;
              sp_decomposition = Core.Decomposition.binary ~m:pm;
            };
          ]
        in
        let server = Parallel.Server.create ~jobs:1 ~specs:pspecs pstore in
        let o = List.hd (Gom.Store.extent pstore "T0") in
        let attr = (Gom.Path.step ppath 1).Gom.Path.attr in
        let before = Parallel.Server.publish_info server in
        let pubs = 5 in
        for _ = 1 to pubs do
          Parallel.Server.update server (fun st ->
              let v = Gom.Store.get_attr st o attr in
              Gom.Store.set_attr st o attr Gom.Value.Null;
              Gom.Store.set_attr st o attr v)
        done;
        let after = Parallel.Server.publish_info server in
        Parallel.Server.shutdown server;
        let mean_ms =
          (after.Parallel.Server.total_latency_s
          -. before.Parallel.Server.total_latency_s)
          /. float_of_int
               (after.Parallel.Server.publishes - before.Parallel.Server.publishes)
          *. 1000.
        in
        ( size,
          mean_ms,
          after.Parallel.Server.last_copied,
          after.Parallel.Server.last_shared ))
      publish_sizes
  in
  Format.printf "  epoch-publish latency (CoW advance, per publication):@.";
  Format.printf "  %-10s %16s %10s %10s@." "objects" "publish-mean" "copied" "shared";
  let publish_rows =
    List.map
      (fun (size, mean_ms, copied, shared) ->
        Format.printf "  %-10d %14.4fms %10d %10d@." size mean_ms copied shared;
        Printf.sprintf
          {|{"objects": %d, "mean_publish_ms": %.6f, "copied": %d, "shared": %d}|}
          size mean_ms copied shared)
      publish_series
  in
  let json =
    Printf.sprintf
      {|{"bench": "parallel-snapshot-serving", "quick": %b, "cores": %d, "queries_per_round": %d, "rounds": %d, "series": [%s], "publish_latency": [%s]}|}
      quick cores (List.length queries) rounds
      (String.concat ", " rows)
      (String.concat ", " publish_rows)
  in
  let file = "BENCH_parallel_scaling.json" in
  try
    let oc = open_out file in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (json ^ "\n"));
    Format.printf "  written       : %s@." file
  with Sys_error e -> Format.printf "  (could not write %s: %s)@." file e

(* ------------------------------------------------------------------ *)
(* Part 2: deferred batched maintenance (BENCH_maintenance_batch)      *)
(* ------------------------------------------------------------------ *)

(* The write-path headline: pages written per store event under
   immediate maintenance vs deferred delta buffers drained by batched
   flushes.  The workload is update-heavy membership churn — mostly
   transient insert/remove rotations (which annihilate in the buffers
   before ever touching a page) plus a fraction of lasting toggles (net
   deltas that the flush applies as [adjust]s in one operation, each
   touched page charged once).  Both runs replay the identical
   deterministic event sequence; the batched run pays for its final
   flush before the clock stops. *)
let bench_maintenance_batch ~quick () =
  let spec =
    if quick then
      Workload.Generator.spec ~seed:13
        ~counts:[ 100; 200; 400; 800 ]
        ~defined:[ 90; 180; 360 ] ~fan:[ 2; 2; 2 ] ()
    else
      Workload.Generator.spec ~seed:13
        ~counts:[ 400; 800; 1600; 3200 ]
        ~defined:[ 370; 730; 1450 ] ~fan:[ 2; 2; 2 ] ()
  in
  let events_target = if quick then 600 else 3000 in
  let run policy =
    let store, path = Workload.Generator.build spec in
    let heap = Storage.Heap.create ~size_of:(Workload.Generator.size_of spec) store in
    let env = Core.Exec.make store heap in
    let stats = env.Core.Exec.stats in
    let m = Gom.Path.arity path - 1 in
    let a =
      Core.Asr.create store path Core.Extension.Full (Core.Decomposition.binary ~m)
    in
    let mgr = Core.Maintenance.create env in
    Core.Maintenance.register mgr a;
    Core.Maintenance.set_policy mgr policy;
    let sources = Array.of_list (Gom.Store.extent store "T0") in
    let movers = Array.of_list (Gom.Store.extent store "T1") in
    let lasting = Hashtbl.create 64 in
    let w0 = (Storage.Stats.snapshot stats).Storage.Stats.s_total_writes in
    let t0 = Unix.gettimeofday () in
    let events = ref 0 in
    let i = ref 0 in
    while !events < events_target do
      let src = sources.(!i mod Array.length sources) in
      let tgt = movers.(!i mod Array.length movers) in
      (match Gom.Store.get_attr store src "A1" with
      | Gom.Value.Ref set ->
        if !i mod 8 = 7 then begin
          (* Lasting toggle: a net membership change that must reach
             the partition trees (eventually). *)
          let key = (set, tgt) in
          if Hashtbl.mem lasting key then begin
            Hashtbl.remove lasting key;
            Gom.Store.remove_elem store set (Gom.Value.Ref tgt)
          end
          else begin
            Hashtbl.replace lasting key ();
            Gom.Store.insert_elem store set (Gom.Value.Ref tgt)
          end;
          incr events
        end
        else if not (Hashtbl.mem lasting (set, tgt)) then begin
          (* Transient rotation: inserted and removed again — under a
             deferred policy the pair annihilates in the buffer. *)
          Gom.Store.insert_elem store set (Gom.Value.Ref tgt);
          Gom.Store.remove_elem store set (Gom.Value.Ref tgt);
          events := !events + 2
        end
      | _ -> ());
      incr i
    done;
    ignore (Core.Maintenance.flush_all mgr);
    let dt = Unix.gettimeofday () -. t0 in
    let s = Storage.Stats.snapshot stats in
    (!events, s.Storage.Stats.s_total_writes - w0, dt, s)
  in
  let series =
    List.map
      (fun p -> (p, run p))
      [
        Core.Maintenance.Immediate;
        Core.Maintenance.Every_k_events 64;
        Core.Maintenance.On_query;
      ]
  in
  let per_event (events, writes, _, _) =
    float_of_int writes /. Float.max 1. (float_of_int events)
  in
  let _, immediate = List.hd series in
  Format.printf "deferred batched maintenance: update-heavy churn, %d event(s)@."
    (match immediate with e, _, _, _ -> e);
  Format.printf "  %-12s %14s %16s %10s %12s@." "policy" "pages written"
    "pages/event" "elapsed" "events/s";
  let rows =
    List.map
      (fun (p, ((events, writes, dt, s) as r)) ->
        let name = Core.Maintenance.policy_to_string p in
        let eps = float_of_int events /. Float.max dt 1e-9 in
        Format.printf "  %-12s %14d %16.3f %9.3fs %12.1f@." name writes
          (per_event r) dt eps;
        Printf.sprintf
          {|{"policy": %S, "events": %d, "pages_written": %d, "pages_per_event": %.4f, "elapsed_s": %.6f, "events_per_s": %.1f, "deltas_buffered": %d, "deltas_merged": %d, "deltas_annihilated": %d, "deltas_flushed": %d}|}
          name events writes (per_event r) dt eps
          Storage.Stats.(summary_count s Deltas_buffered)
          Storage.Stats.(summary_count s Deltas_merged)
          Storage.Stats.(summary_count s Deltas_annihilated)
          Storage.Stats.(summary_count s Deltas_flushed))
      series
  in
  let _, batched = List.nth series 1 in
  let ratio = per_event immediate /. Float.max 1e-9 (per_event batched) in
  Format.printf "  immediate/batched pages-per-event ratio: %.2fx@." ratio;
  let json =
    Printf.sprintf
      {|{"bench": "maintenance-batch", "quick": %b, "events": %d, "ratio_pages_per_event": %.3f, "series": [%s]}|}
      quick
      (match immediate with e, _, _, _ -> e)
      ratio
      (String.concat ", " rows)
  in
  let file = "BENCH_maintenance_batch.json" in
  (try
     let oc = open_out file in
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () -> output_string oc (json ^ "\n"));
     Format.printf "  written       : %s@." file
   with Sys_error e -> Format.printf "  (could not write %s: %s)@." file e);
  if ratio < 3.0 then
    Format.printf "  WARNING: batched flush below the 3x page-savings target@."

(* ------------------------------------------------------------------ *)
(* Part 3: overload-resilient serving (BENCH_serving.json)             *)
(* ------------------------------------------------------------------ *)

(* Drive the admission-controlled front past saturation and measure
   what resilience buys: a closed-loop calibration pins the server's
   saturation throughput and uncontended latency tail, then open-loop
   phases offer 0.5x/1x/2x/4x that rate with paced arrivals.  Per
   phase: latency percentiles of the admitted queries, shed and timeout
   counts, goodput — and the accounting identity

     offered = answered + shed + timed_out + failed,  failed = 0

   is asserted, not just reported.  The heaviest phase interleaves
   writes so brownout (deferred publication, stale-epoch serving) is
   exercised too.  Every front and the server shut down cleanly at the
   end; completing at all is the no-wedged-domain check CI gates on. *)
let bench_serving ~quick () =
  let spec =
    if quick then
      Workload.Generator.spec ~seed:23
        ~counts:[ 60; 120; 240; 480 ]
        ~defined:[ 55; 110; 220 ] ~fan:[ 2; 2; 2 ] ()
    else
      Workload.Generator.spec ~seed:23
        ~counts:[ 200; 400; 800; 1600 ]
        ~defined:[ 185; 365; 730 ] ~fan:[ 2; 2; 2 ] ()
  in
  let store, path = Workload.Generator.build spec in
  let sizes = Workload.Generator.size_of spec in
  let n = Gom.Path.length path in
  let m = Gom.Path.arity path - 1 in
  let specs =
    [
      {
        Parallel.Snapshot.sp_path = path;
        sp_kind = Core.Extension.Full;
        sp_decomposition = Core.Decomposition.binary ~m;
      };
    ]
  in
  let slice k xs =
    let rec go acc cur cnt = function
      | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
      | x :: rest ->
        if cnt = k then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (cnt + 1) rest
    in
    go [] [] 0 xs
  in
  let probe_sz = if quick then 8 else 16 in
  let fw =
    List.map
      (fun srcs ->
        Parallel.Server.Forward { q_path = path; q_i = 0; q_j = n; q_sources = srcs })
      (slice probe_sz (Gom.Store.extent store "T0"))
  in
  let bw =
    List.map
      (fun tgts ->
        Parallel.Server.Backward { q_path = path; q_i = 0; q_j = n; q_targets = tgts })
      (slice probe_sz
         (List.map (fun o -> Gom.Value.Ref o)
            (Gom.Store.extent store (Printf.sprintf "T%d" n))))
  in
  let pool = fw @ bw in
  let nth_query i = List.nth pool (i mod List.length pool) in
  let jobs = max 2 (min 4 (Domain.recommended_domain_count () - 1)) in
  let server = Parallel.Server.create ~jobs ~sizes ~specs store in
  (* Closed-loop calibration: one query in flight at a time gives the
     uncontended latency tail; back-to-back batches give the saturation
     throughput the open-loop phases are scaled against. *)
  ignore (Parallel.Server.serve server pool) (* warm plans *);
  let unc =
    List.map
      (fun q ->
        let t0 = Unix.gettimeofday () in
        ignore (Parallel.Server.serve server [ q ]);
        Unix.gettimeofday () -. t0)
      pool
  in
  let percentile sorted p =
    let len = Array.length sorted in
    sorted.(min (len - 1) (int_of_float (p *. float_of_int (len - 1) +. 0.5)))
  in
  let unc_sorted = Array.of_list (List.sort Float.compare unc) in
  let p99_unc = percentile unc_sorted 0.99 in
  let rounds = if quick then 3 else 5 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to rounds do
    ignore (Parallel.Server.serve server pool)
  done;
  let sat_qps =
    float_of_int (rounds * List.length pool) /. Float.max (Unix.gettimeofday () -. t0) 1e-9
  in
  (* The budget must absorb one dispatch round's granularity (a query
     resolves when its whole batch returns), so floor it well above a
     batch's serve time; 4x the uncontended tail dominates on slower
     bases. *)
  let deadline_s = Float.max (4.0 *. p99_unc) 0.010 in
  Format.printf
    "overload serving: %d jobs, %d pooled quer(ies), saturation %.0f q/s, p99 \
     uncontended %.3f ms, deadline %.3f ms@."
    jobs (List.length pool) sat_qps (1e3 *. p99_unc) (1e3 *. deadline_s);
  let n_offered = if quick then 300 else 1500 in
  let accounting_ok = ref true in
  let run_phase mult =
    let config =
      {
        Resilience.Front.max_queue = 64;
        high_watermark = 48;
        low_watermark = 16;
        shed_policy = Resilience.Front.Deadline_aware;
        deadline_s = Some deadline_s;
        rate_limit = None;
        batch = 8;
      }
    in
    let front = Resilience.Front.create ~config ~spawn:true server in
    let interval = 1.0 /. (mult *. sat_qps) in
    let t0 = Unix.gettimeofday () in
    let tickets =
      List.init n_offered (fun i ->
          let due = t0 +. (float_of_int i *. interval) in
          (* Paced open-loop arrivals: sleep the bulk of the gap (so the
             pacing thread doesn't steal a core from the executors) and
             spin only the last sliver. *)
          let rec pace () =
            let gap = due -. Unix.gettimeofday () in
            if gap > 0.0005 then begin
              Unix.sleepf (gap -. 0.0003);
              pace ()
            end
            else if gap > 0.0 then begin
              Domain.cpu_relax ();
              pace ()
            end
          in
          pace ();
          (* Past saturation, interleave writes so brownout — deferred
             publication, stale-but-exact serving — is on the path. *)
          if mult >= 4.0 && i mod 64 = 0 then
            ignore (Resilience.Front.update front (fun st -> Gom.Store.new_object st "T0"));
          Resilience.Front.submit front (nth_query i))
    in
    let outcomes = List.map (fun t -> (t, Resilience.Front.await front t)) tickets in
    let elapsed = Unix.gettimeofday () -. t0 in
    let c = Resilience.Front.counters front in
    let stale =
      Storage.Stats.(summary_count (Resilience.Front.stats front) Stale_epoch_served)
    in
    Resilience.Front.shutdown front;
    let admitted_lat =
      List.filter_map
        (fun (t, o) ->
          match o with
          | Resilience.Front.Answer _ -> Resilience.Front.latency_s t
          | _ -> None)
        outcomes
      |> List.sort Float.compare |> Array.of_list
    in
    let p q = if Array.length admitted_lat = 0 then 0.0 else percentile admitted_lat q in
    let p50 = p 0.50 and p99 = p 0.99 and p999 = p 0.999 in
    let goodput = float_of_int c.Resilience.Front.answered /. Float.max elapsed 1e-9 in
    let balanced =
      c.Resilience.Front.offered = n_offered
      && c.Resilience.Front.offered = c.answered + c.shed + c.timed_out + c.failed
      && c.failed = 0
    in
    if not balanced then accounting_ok := false;
    Format.printf
      "  %4.1fx offered %4d: answered %4d shed %4d timed-out %4d | goodput %7.0f q/s \
       | p50 %6.2f ms p99 %6.2f ms p999 %6.2f ms | stale %d%s@."
      mult c.Resilience.Front.offered c.answered c.shed c.timed_out goodput
      (1e3 *. p50) (1e3 *. p99) (1e3 *. p999) stale
      (if balanced then "" else "  ACCOUNTING VIOLATION");
    Printf.sprintf
      {|{"load_x": %.1f, "offered": %d, "answered": %d, "shed": %d, "timed_out": %d, "failed": %d, "goodput_qps": %.1f, "p50_s": %.6f, "p99_s": %.6f, "p999_s": %.6f, "stale_epoch_served": %d, "accounting_ok": %b}|}
      mult c.Resilience.Front.offered c.answered c.shed c.timed_out c.failed goodput
      p50 p99 p999 stale balanced
  in
  let phase_rows = List.map run_phase [ 0.5; 1.0; 2.0; 4.0 ] in
  Parallel.Server.shutdown server;
  (* Reaching this line means every front and the pool joined: nothing
     wedged.  A wedged domain would hang the driver and trip CI's
     timeout instead. *)
  let json =
    Printf.sprintf
      {|{"bench": "overload-serving", "quick": %b, "cores": %d, "jobs": %d, "sat_qps": %.1f, "p99_uncontended_s": %.6f, "deadline_s": %.6f, "offered_per_phase": %d, "phases": [%s], "accounting_ok": %b, "wedged": false}|}
      quick
      (Domain.recommended_domain_count ())
      jobs sat_qps p99_unc deadline_s n_offered
      (String.concat ", " phase_rows)
      !accounting_ok
  in
  let file = "BENCH_serving.json" in
  (try
     let oc = open_out file in
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () -> output_string oc (json ^ "\n"));
     Format.printf "  written       : %s@." file
   with Sys_error e -> Format.printf "  (could not write %s: %s)@." file e);
  if not !accounting_ok then begin
    Format.printf "  FAIL: shed accounting does not balance@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Part 4: hot-standby replication (BENCH_replication.json)            *)
(* ------------------------------------------------------------------ *)

let replication_dirs = ref []

let fresh_repl_dir tag =
  let d = Filename.temp_file ("asr-bench-" ^ tag) "" in
  Sys.remove d;
  Sys.mkdir d 0o700;
  replication_dirs := d :: !replication_dirs;
  d

let cleanup_repl_dirs () =
  List.iter
    (fun dir ->
      if Sys.file_exists dir && Sys.is_directory dir then begin
        Array.iter
          (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Sys.rmdir dir with Sys_error _ -> ()
      end)
    !replication_dirs;
  replication_dirs := []

(* A replicated durable base over a generated T0-A1-T1 chain: every
   mutation is one transaction flipping a T0 object's A1 edge, so the
   primary's event rate is directly controllable. *)
let repl_setup ~tag ~objects =
  let half = objects / 2 in
  let spec =
    Workload.Generator.spec ~seed:11 ~counts:[ half; half ]
      ~defined:[ max 1 (half * 9 / 10) ]
      ~fan:[ 1 ] ()
  in
  let store, path = Workload.Generator.build spec in
  let pdir = fresh_repl_dir (tag ^ "-p") and rdir = fresh_repl_dir (tag ^ "-r") in
  let db = Durability.Db.create ~dir:pdir store in
  ignore
    (Durability.Db.register_asr db ~path:(Gom.Path.to_string path)
       ~kind:Core.Extension.Full ());
  (db, path, pdir, rdir)

let repl_churn db path rng n =
  let store = Durability.Db.store db in
  let sources = Array.of_list (Gom.Store.extent store "T0") in
  let attr = (Gom.Path.step path 1).Gom.Path.attr in
  for _ = 1 to n do
    let o = sources.(Random.State.int rng (Array.length sources)) in
    match
      Gom.Txn.with_txn store (fun () ->
          let v = Gom.Store.get_attr store o attr in
          Gom.Store.set_attr store o attr Gom.Value.Null;
          match v with
          | Gom.Value.Null -> ()
          | v -> Gom.Store.set_attr store o attr v)
    with
    | Ok () -> ()
    | Error e -> raise e
  done

let bench_replication ~quick () =
  Format.printf
    "replication: WAL shipping, apply throughput, lag, promotion latency@.@.";
  Fun.protect ~finally:cleanup_repl_dirs @@ fun () ->
  (* A. apply throughput and lag distribution: churn the primary in
     batches, one pump round per batch (so the replica is always one
     shipping round behind), sampling the lag after each round; then
     drain and measure the apply side's sustained events/s. *)
  let objects = if quick then 2_000 else 20_000 in
  let batches = if quick then [ 1; 8; 32 ] else [ 1; 8; 64 ] in
  let rounds = if quick then 30 else 100 in
  (* One churn/pump run.  A clean channel catches up every round (the
     lag samples are all zero — the bound the replica promises), so the
     lag distribution is measured on a chaos channel, where drops and
     partitions open real transient gaps the pump must close. *)
  let run ~batch ~chaos =
    let db, path, _pdir, rdir = repl_setup ~tag:"thr" ~objects in
    let stats = Storage.Stats.create () in
    let fault =
      if chaos then
        Some
          (Durability.Fault.faulty_channel
             (Replication.Channel.chaos ~seed:(401 + batch) ~upto:1_000_000))
      else None
    in
    let channel = Replication.Channel.create ?fault ~stats () in
    let primary = Replication.Primary.create ~frame_bytes:1024 db in
    let replica = Replication.Replica.create ~stats ~dir:rdir () in
    let session =
      Replication.Session.create ~seed:(7 * batch) ~stats ~primary ~channel
        ~replica ()
    in
    let rng = Random.State.make [| 23; batch |] in
    let lags = ref [] in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to rounds do
      repl_churn db path rng batch;
      ignore (Replication.Session.step session);
      lags := float_of_int (Replication.Replica.lag_bytes replica) :: !lags
    done;
    ignore (Replication.Session.drain session);
    let dt = Unix.gettimeofday () -. t0 in
    let applied = Replication.Replica.applied_records replica in
    let s = Storage.Stats.snapshot stats in
    assert (
      Storage.Stats.(
        summary_count s Frames_shipped
        = summary_count s Frames_applied + summary_count s Frames_dropped
          + summary_count s Frames_retried));
    assert (Replication.Replica.lag_bytes replica = 0);
    Replication.Replica.close replica;
    Durability.Db.close db;
    (float_of_int applied /. dt, !lags, Storage.Stats.(summary_count s Frames_shipped))
  in
  let series =
    List.map
      (fun batch ->
        let events_s, _, shipped = run ~batch ~chaos:false in
        let _, lags, _ = run ~batch ~chaos:true in
        let sorted = Array.of_list (List.sort Float.compare lags) in
        let percentile p =
          let len = Array.length sorted in
          sorted.(min (len - 1) (int_of_float (p *. float_of_int (len - 1) +. 0.5)))
        in
        let p50 = percentile 0.50 and p99 = percentile 0.99 in
        Format.printf
          "  batch %-4d %9.0f applied-records/s   chaos lag p50 %7.0fB p99 %7.0fB@."
          batch events_s p50 p99;
        Printf.sprintf
          {|{"batch": %d, "applied_records_per_s": %.1f, "chaos_lag_p50_bytes": %.0f, "chaos_lag_p99_bytes": %.0f, "frames_shipped": %d}|}
          batch events_s p50 p99 shipped)
      batches
  in
  (* B. promotion latency versus base size: full catch-up, kill, then
     time [Failover.promote] end to end — crash recovery, ASR rebuild
     and verification, scrubbing, and the against-primary digest
     comparison included. *)
  let sizes = if quick then [ 2_000; 10_000 ] else [ 10_000; 100_000; 1_000_000 ] in
  Format.printf "@.  promotion latency (recovery + verify + digest compare):@.";
  let promo_rows =
    List.map
      (fun size ->
        let db, path, pdir, rdir = repl_setup ~tag:"promo" ~objects:size in
        let stats = Storage.Stats.create () in
        let channel = Replication.Channel.create ~stats () in
        let primary = Replication.Primary.create db in
        let replica = Replication.Replica.create ~stats ~dir:rdir () in
        let session =
          Replication.Session.create ~stats ~primary ~channel ~replica ()
        in
        let rng = Random.State.make [| 29; size |] in
        repl_churn db path rng (if quick then 20 else 50);
        ignore (Replication.Session.drain session);
        ignore (Replication.Session.kill session);
        Replication.Replica.close replica;
        Durability.Db.close db;
        let t0 = Unix.gettimeofday () in
        (match Replication.Failover.promote ~primary_dir:pdir ~dir:rdir () with
        | Ok (ndb, report) ->
          assert (Replication.Failover.promoted report);
          Durability.Db.close ndb
        | Error report ->
          failwith (Replication.Failover.report_to_string report));
        let dt = Unix.gettimeofday () -. t0 in
        Format.printf "  %-10d objects   %8.1fms@." size (dt *. 1000.);
        Printf.sprintf {|{"objects": %d, "promote_ms": %.3f}|} size (dt *. 1000.))
      sizes
  in
  let json =
    Printf.sprintf
      {|{"bench": "replication", "quick": %b, "objects": %d, "rounds": %d, "series": [%s], "promotion": [%s]}|}
      quick objects rounds
      (String.concat ", " series)
      (String.concat ", " promo_rows)
  in
  let file = "BENCH_replication.json" in
  (try
     let oc = open_out file in
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () -> output_string oc (json ^ "\n"));
     Format.printf "@.  written       : %s@." file
   with Sys_error e -> Format.printf "  (could not write %s: %s)@." file e)

(* The CI failover gate: kill the primary mid-churn at a random frame
   over a chaos channel, promote the replica against the dead
   primary's files, and record everything the workflow asserts on —
   zero divergences, balanced frame counters, bounded final lag. *)
let bench_failover_smoke () =
  let seed =
    match Sys.getenv_opt "FAILOVER_SEED" with
    | Some s -> int_of_string s
    | None ->
      Random.self_init ();
      Random.int 0x3FFFFFF
  in
  Format.printf "failover smoke: seed %d (reproduce with FAILOVER_SEED=%d)@."
    seed seed;
  Fun.protect ~finally:cleanup_repl_dirs @@ fun () ->
  let rng = Random.State.make [| seed |] in
  let kill_after = 5 + Random.State.int rng 40 in
  let db, path, pdir, rdir = repl_setup ~tag:"smoke" ~objects:600 in
  let stats = Storage.Stats.create () in
  let fault =
    Durability.Fault.faulty_channel
      (Replication.Channel.chaos ~seed ~upto:10_000)
  in
  let channel = Replication.Channel.create ~fault ~stats () in
  let primary = Replication.Primary.create ~frame_bytes:256 ~digest_every:4 db in
  let replica = Replication.Replica.create ~stats ~dir:rdir () in
  let session =
    Replication.Session.create ~stats ~seed ~stop_after_sends:kill_after
      ~primary ~channel ~replica ()
  in
  for _ = 1 to 12 do
    repl_churn db path rng (1 + Random.State.int rng 6);
    ignore (Replication.Session.step session)
  done;
  let lost = Replication.Session.kill session in
  ignore (Replication.Session.drain session);
  let diverged = Replication.Replica.diverged replica in
  let applied_bytes = Replication.Replica.applied_bytes replica in
  let committed = Replication.Primary.committed_bytes primary in
  Replication.Replica.close replica;
  Durability.Db.close db;
  Format.printf
    "killed after %d frames (%d in flight lost); replica %d/%d bytes@."
    kill_after lost applied_bytes committed;
  let outcome =
    match diverged with
    | Some what -> `Diverged what
    | None -> (
      match Replication.Failover.promote ~primary_dir:pdir ~dir:rdir () with
      | Ok (ndb, report) ->
        Durability.Db.close ndb;
        `Promoted report
      | Error report -> `Refused report
      | exception Replication.Replica.Replica_error _ when applied_bytes = 0 ->
        (* The kill can land before the seeding Reset ever delivers; an
           unseeded directory is rightly unpromotable — the operator
           re-seeds from backup — and not a gate failure. *)
        `Never_seeded)
  in
  let s = Storage.Stats.snapshot stats in
  let frames c = Storage.Stats.summary_count s c in
  let balanced =
    Storage.Stats.(
      frames Frames_shipped
      = frames Frames_applied + frames Frames_dropped + frames Frames_retried)
  in
  let promoted, never_seeded, divergences, promote_json =
    match outcome with
    | `Promoted report ->
      (true, false, 0, Replication.Failover.report_to_json report)
    | `Never_seeded ->
      Format.printf "replica never seeded; promotion not applicable@.";
      (false, true, 0, "null")
    | `Refused report ->
      Format.printf "PROMOTION REFUSED: %s@."
        (Replication.Failover.report_to_string report);
      ( false,
        false,
        List.length report.Replication.Failover.f_divergences,
        Replication.Failover.report_to_json report )
    | `Diverged what ->
      Format.printf "REPLICA DIVERGED: %s@." what;
      (false, false, 1, "null")
  in
  let json =
    Printf.sprintf
      {|{"bench": "failover-smoke", "seed": %d, "kill_after_frames": %d, "frames_lost_in_flight": %d, "frames_shipped": %d, "frames_applied": %d, "frames_dropped": %d, "frames_retried": %d, "balanced": %b, "applied_bytes": %d, "primary_committed_bytes": %d, "final_lag_bytes": %d, "promoted": %b, "never_seeded": %b, "divergences": %d, "promotion": %s}|}
      seed kill_after lost
      (frames Storage.Stats.Frames_shipped)
      (frames Storage.Stats.Frames_applied)
      (frames Storage.Stats.Frames_dropped)
      (frames Storage.Stats.Frames_retried)
      balanced applied_bytes committed
      (committed - applied_bytes) promoted never_seeded divergences
      promote_json
  in
  let file = "FAILOVER_smoke.json" in
  (try
     let oc = open_out file in
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () -> output_string oc (json ^ "\n"));
     Format.printf "written: %s@." file
   with Sys_error e -> Format.printf "(could not write %s: %s)@." file e);
  Format.printf "promoted %b, balanced counters %b, final lag %d bytes@."
    promoted balanced (committed - applied_bytes);
  if not (promoted || never_seeded) then exit 1

(* ------------------------------------------------------------------ *)
(* Part 5: horizontal sharding scatter-gather (BENCH_sharded.json)     *)
(* ------------------------------------------------------------------ *)

(* Wall-clock throughput of one probe workload served by the shard
   group's scatter-gather router at 1/2/4/8 shards.  The workload is
   dominated by origin-anchored forward batches — the grouped-routing
   case, where each probe travels to its owner shard alone and the
   per-shard fragments are ~1/N of the unsharded trees — with a slice
   of backward batches exercising the scatter path.  Answers must be
   byte-identical across every shard count (that is asserted, not just
   reported); speedup is honest wall clock, so CI gates its scaling
   assertion on the visible core count (recorded as [cores]). *)
let bench_sharded ~quick () =
  let spec =
    if quick then
      Workload.Generator.spec ~seed:31
        ~counts:[ 120; 240; 480; 960 ]
        ~defined:[ 110; 220; 440 ] ~fan:[ 2; 2; 2 ] ()
    else
      Workload.Generator.spec ~seed:31
        ~counts:[ 800; 1600; 3200; 6400 ]
        ~defined:[ 740; 1480; 2960 ] ~fan:[ 2; 2; 2 ] ()
  in
  let probe_sz = if quick then 16 else 64 in
  let rounds = if quick then 3 else 10 in
  let slice k xs =
    let rec go acc cur cnt = function
      | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
      | x :: rest ->
        if cnt = k then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (cnt + 1) rest
    in
    go [] [] 0 xs
  in
  let run shards =
    (* Each variant rebuilds the (identical) base from the seed: shard
       stores are clones of the build, so variants never share state. *)
    let store, path = Workload.Generator.build spec in
    let n = Gom.Path.length path in
    let m = Gom.Path.arity path - 1 in
    let grp =
      Shard.Group.create ~jobs:shards
        ~size_of:(Workload.Generator.size_of spec)
        ~placement:(Shard.Placement.make shards)
        store
    in
    Shard.Group.register grp ~path ~kind:Core.Extension.Full
      ~dec:(Core.Decomposition.binary ~m);
    let fw_batches = slice probe_sz (Gom.Store.extent store "T0") in
    let bw_batches =
      (* One backward batch per eight forward ones: scatter stays on
         the path without dominating the grouped workload. *)
      slice probe_sz
        (List.map (fun o -> Gom.Value.Ref o)
           (Gom.Store.extent store (Printf.sprintf "T%d" n)))
      |> List.filteri (fun i _ -> i mod 8 = 0)
    in
    let serve () =
      let fwd =
        List.map (fun srcs -> Shard.Group.forward_batch grp path ~i:0 ~j:n srcs)
          fw_batches
      in
      let bwd =
        List.map
          (fun tgts -> Shard.Group.backward_batch grp path ~i:0 ~j:n ~targets:tgts)
          bw_batches
      in
      (fwd, bwd)
    in
    let answers = serve () in
    (* the warm serve above primed every shard's plan cache *)
    let t0 = Unix.gettimeofday () in
    for _ = 1 to rounds do
      ignore (serve ())
    done;
    let dt = Unix.gettimeofday () -. t0 in
    let pages = Shard.Group.total_pages grp in
    let summary = Shard.Group.stats_summary grp in
    let probes =
      List.fold_left (fun a b -> a + List.length b) 0 fw_batches
      + List.fold_left (fun a b -> a + List.length b) 0 bw_batches
    in
    Shard.Group.close grp;
    (dt, answers, pages, summary, probes)
  in
  let shard_counts = [ 1; 2; 4; 8 ] in
  let results = List.map (fun s -> (s, run s)) shard_counts in
  let _, (dt1, reference, _, _, probes) = List.hd results in
  List.iter
    (fun (s, (_, answers, _, _, _)) ->
      if answers <> reference then begin
        Format.printf "  FAIL: answers at %d shard(s) differ from 1 shard@." s;
        exit 1
      end)
    results;
  let cores = Domain.recommended_domain_count () in
  Format.printf
    "sharded scatter-gather: %d probe(s)/round x %d round(s), %d core(s) visible@."
    probes rounds cores;
  Format.printf "  %-7s %10s %12s %9s  %s@." "shards" "elapsed" "probes/s" "speedup"
    "pages/shard";
  let rows =
    List.map
      (fun (s, (dt, _, pages, summary, _)) ->
        let served = probes * rounds in
        let pps = float_of_int served /. Float.max dt 1e-9 in
        let speedup = dt1 /. Float.max dt 1e-9 in
        let pages_s =
          String.concat ","
            (List.map string_of_int (Array.to_list pages))
        in
        let valid = s <= cores in
        Format.printf "  %-7d %9.3fs %12.1f %8.2fx  [%s]%s@." s dt pps speedup pages_s
          (if valid then "" else "  (oversubscribed)");
        Printf.sprintf
          {|{"shards": %d, "jobs": %d, "elapsed_s": %.6f, "probes_per_s": %.1f, "speedup_vs_1": %.3f, "speedup_valid": %b, "grouped_batches": %d, "scatter_batches": %d, "pages_per_shard": [%s]}|}
          s s dt pps speedup valid
          summary.Storage.Stats.s_shard_grouped
          summary.Storage.Stats.s_shard_scatter pages_s)
      results
  in
  Format.printf "  deterministic : answers identical across all shard counts@.";
  let json =
    Printf.sprintf
      {|{"bench": "sharded-scatter-gather", "quick": %b, "cores": %d, "probes_per_round": %d, "rounds": %d, "series": [%s]}|}
      quick cores probes rounds (String.concat ", " rows)
  in
  let file = "BENCH_sharded.json" in
  (try
     let oc = open_out file in
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () -> output_string oc (json ^ "\n"));
     Format.printf "written: %s@." file
   with Sys_error e -> Format.printf "(could not write %s: %s)@." file e)

(* ------------------------------------------------------------------ *)
(* Part 6: buffer pool + traversal clustering (BENCH_clustering.json)  *)
(* ------------------------------------------------------------------ *)

(* The perf headline of the buffered storage layer: a zipfian forward
   traversal mix over a creation-order (type-clustered) base pays ~1
   physical page fault per hop; mining the same trace into an affinity
   graph and reclustering the hot neighbourhoods onto shared pages, then
   re-running warm, must cut physical reads by >= 2x while every answer
   stays byte-identical.  A second probe shows the planner's
   buffer-aware pricing flipping a nav<->ASR choice between cold and
   warm segment profiles.  CI gates on reduction, answer identity and
   the flip. *)
let bench_clustering ?(buffer_pages = 16) ~quick () =
  let c = if quick then 400 else 600 in
  let spec =
    Workload.Generator.spec ~seed:11 ~counts:[ c; c; c; c ] ~defined:[ c; c; c ]
      ~fan:[ 1; 1; 1 ] ()
  in
  let store, path = Workload.Generator.build spec in
  let sizes = Workload.Generator.size_of spec in
  let heap = Storage.Heap.create ~size_of:sizes store in
  let page_size = (Storage.Heap.config heap).Storage.Config.page_size in
  let n = Gom.Path.length path in
  let anchors = Array.of_list (Gom.Store.extent store "T0") in
  let k = Array.length anchors in
  (* Zipf(1) anchor ranks: cumulative 1/r mass, fixed seed. *)
  let cum = Array.make k 0. in
  let () =
    let acc = ref 0. in
    Array.iteri
      (fun i _ ->
        acc := !acc +. (1. /. float_of_int (i + 1));
        cum.(i) <- !acc)
      cum
  in
  let rng = Random.State.make [| 0xC1; 11 |] in
  let zipf () =
    let u = Random.State.float rng cum.(k - 1) in
    let rec bisect lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cum.(mid) < u then bisect (mid + 1) hi else bisect lo mid
    in
    anchors.(bisect 0 (k - 1))
  in
  let traversals = if quick then 800 else 2000 in
  let anchor_seq = Array.init traversals (fun _ -> zipf ()) in
  let buffer_pages = max 1 buffer_pages in
  (* One full pass of the traversal mix against [stats]; answers are the
     oracle (must never change across buffering or reclustering). *)
  let run_pass stats =
    let env = Core.Exec.make ~stats store heap in
    Array.to_list
      (Array.map
         (fun o ->
           Storage.Stats.begin_op stats;
           Core.Exec.forward_scan env path ~i:0 ~j:n o)
         anchor_seq)
  in
  (* Reference: unbuffered, creation-order layout. *)
  let ref_stats = Storage.Stats.create () in
  let reference = run_pass ref_stats in
  let ref_logical = Storage.Stats.logical_reads ref_stats in
  (* Baseline: cold buffer over the creation-order layout, with the
     affinity tracer mining the very same trace. *)
  let tracer = Storage.Affinity.create ~window:(n + 1) () in
  Storage.Heap.set_tracer heap (Some tracer);
  let base_stats = Storage.Stats.create ~buffer_capacity:buffer_pages () in
  let base_answers =
    let env = Core.Exec.make ~stats:base_stats store heap in
    Array.to_list
      (Array.map
         (fun o ->
           Storage.Stats.begin_op base_stats;
           Storage.Affinity.break_run tracer;
           Core.Exec.forward_scan env path ~i:0 ~j:n o)
         anchor_seq)
  in
  Storage.Heap.set_tracer heap None;
  let base_phys = Storage.Stats.total_reads base_stats in
  let base_logical = Storage.Stats.logical_reads base_stats in
  (* Recluster the mined neighbourhoods. *)
  let plan =
    Storage.Affinity.clusters tracer
      ~size_of:(fun oid -> sizes (Storage.Heap.placement heap oid).Storage.Heap.ty)
      ~page_size
  in
  let outcome = Storage.Heap.recluster heap ~plan in
  (* Post-recluster: one cold warming pass, then the measured warm
     pass over the same pool. *)
  let post_stats = Storage.Stats.create ~buffer_capacity:buffer_pages () in
  let post_cold_answers = run_pass post_stats in
  let post_cold_phys = Storage.Stats.total_reads post_stats in
  let warm_answers = run_pass post_stats in
  let warm_phys = Storage.Stats.total_reads post_stats - post_cold_phys in
  let post_unbuffered = Storage.Stats.create () in
  let post_unbuffered_answers = run_pass post_unbuffered in
  let answers_identical =
    base_answers = reference
    && post_cold_answers = reference
    && warm_answers = reference
    && post_unbuffered_answers = reference
  in
  let logical_identical = base_logical = ref_logical in
  let reduction = float_of_int base_phys /. float_of_int (max 1 warm_phys) in
  Format.printf "buffer + clustering: %d traversal(s), %d anchor(s), %d-page pool@."
    traversals k buffer_pages;
  Format.printf "  creation-order cold : %6d physical read(s) (%d logical)@." base_phys
    base_logical;
  Format.printf "  recluster           : %d/%d object(s) moved onto %d page(s)@."
    outcome.Storage.Heap.rc_moved outcome.Storage.Heap.rc_considered
    outcome.Storage.Heap.rc_target_pages;
  Format.printf "  reclustered cold    : %6d physical read(s)@." post_cold_phys;
  Format.printf "  reclustered warm    : %6d physical read(s)  (%.1fx fewer)@." warm_phys
    reduction;
  Format.printf "  answers             : %s@."
    (if answers_identical then "byte-identical across all layouts/pools" else "DIVERGED");
  (* Planner probe: cold choice, then warm the losing side's segment and
     re-choose — the buffer-aware pricing must flip the plan kind. *)
  let flip_stats = Storage.Stats.create ~buffer_capacity:256 () in
  let env_flip = Core.Exec.make ~stats:flip_stats store heap in
  let engine = Engine.create ~sizes env_flip in
  let index =
    Core.Asr.create store path Core.Extension.Full
      (Core.Decomposition.binary ~m:(Gom.Path.arity path - 1))
  in
  Engine.register engine index;
  let kind_of (ch : Engine.choice) =
    match ch.Engine.chosen with
    | Engine.Plan.Stitch _ -> "asr"
    | Engine.Plan.Nav _ -> "nav"
    | Engine.Plan.Extent_scan _ -> "extent"
  in
  let cold_choice = Engine.choose engine path ~i:0 ~j:n ~dir:Engine.Plan.Fwd in
  let cold_kind = kind_of cold_choice in
  (* Warm whichever segment the cold loser would read. *)
  (if cold_kind = "asr" then begin
     let o = anchors.(0) in
     for _ = 1 to 40 do
       Storage.Stats.begin_op flip_stats;
       ignore (Core.Exec.forward_scan env_flip path ~i:0 ~j:n o)
     done
   end
   else begin
     let key = Gom.Value.Ref anchors.(0) in
     for _ = 1 to 40 do
       Storage.Stats.begin_op flip_stats;
       ignore (Core.Asr.lookup ~stats:flip_stats index 0 ~fwd:true [ key ] key)
     done
   end);
  let warm_choice = Engine.choose engine path ~i:0 ~j:n ~dir:Engine.Plan.Fwd in
  let warm_kind = kind_of warm_choice in
  let planner_flip = cold_kind <> warm_kind in
  Format.printf
    "  planner             : cold=%s (%.2f) -> warm=%s (%.2f)%s@." cold_kind
    cold_choice.Engine.est_cost warm_kind warm_choice.Engine.est_cost
    (if planner_flip then "  [flip]" else "  [NO FLIP]");
  let json =
    Printf.sprintf
      {|{"bench": "clustering", "quick": %b, "traversals": %d, "anchors": %d, "buffer_pages": %d, "baseline_physical_reads": %d, "baseline_logical_reads": %d, "reference_logical_reads": %d, "recluster_considered": %d, "recluster_moved": %d, "recluster_target_pages": %d, "post_cold_physical_reads": %d, "post_warm_physical_reads": %d, "physical_reduction_x": %.3f, "answers_identical": %b, "logical_identical": %b, "cold_choice": "%s", "warm_choice": "%s", "cold_cost": %.4f, "warm_cost": %.4f, "planner_flip": %b}|}
      quick traversals k buffer_pages base_phys base_logical ref_logical
      outcome.Storage.Heap.rc_considered outcome.Storage.Heap.rc_moved
      outcome.Storage.Heap.rc_target_pages post_cold_phys warm_phys reduction
      answers_identical logical_identical cold_kind warm_kind
      cold_choice.Engine.est_cost warm_choice.Engine.est_cost planner_flip
  in
  let file = "BENCH_clustering.json" in
  (try
     let oc = open_out file in
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () -> output_string oc (json ^ "\n"));
     Format.printf "  written       : %s@." file
   with Sys_error e -> Format.printf "  (could not write %s: %s)@." file e)

let () =
  let quick = Array.exists (String.equal "--quick") Sys.argv in
  let parallel = Array.exists (String.equal "--parallel") Sys.argv in
  let maintenance = Array.exists (String.equal "--maintenance-batch") Sys.argv in
  let serving = Array.exists (String.equal "--serving") Sys.argv in
  let replication = Array.exists (String.equal "--replication") Sys.argv in
  let failover = Array.exists (String.equal "--failover-smoke") Sys.argv in
  let sharded = Array.exists (String.equal "--sharded") Sys.argv in
  let clustering = Array.exists (String.equal "--clustering") Sys.argv in
  (* --buffer-pages N overrides the clustering benchmark's pool size. *)
  let buffer_pages =
    let v = ref 16 in
    Array.iteri
      (fun i a ->
        if String.equal a "--buffer-pages" && i + 1 < Array.length Sys.argv then
          match int_of_string_opt Sys.argv.(i + 1) with
          | Some n when n > 0 -> v := n
          | Some _ | None -> ())
      Sys.argv;
    !v
  in
  if clustering then begin
    Format.printf "=== clustering mode: buffer pool + dynamic clustering benchmark ===@.@.";
    bench_clustering ~buffer_pages ~quick ()
  end
  else if sharded then begin
    Format.printf "=== sharded mode: scatter-gather scaling benchmark ===@.@.";
    bench_sharded ~quick ()
  end
  else if failover then begin
    Format.printf "=== failover mode: mid-churn kill + promotion smoke ===@.@.";
    bench_failover_smoke ()
  end
  else if replication then begin
    Format.printf "=== replication mode: hot-standby shipping benchmark ===@.@.";
    bench_replication ~quick ()
  end
  else if serving then begin
    Format.printf "=== serving mode: overload-resilience benchmark ===@.@.";
    bench_serving ~quick ()
  end
  else if maintenance then begin
    Format.printf "=== maintenance mode: deferred batched maintenance benchmark ===@.@.";
    bench_maintenance_batch ~quick ()
  end
  else if parallel then begin
    Format.printf "=== parallel mode: snapshot-serving scaling benchmark ===@.@.";
    bench_parallel ~quick ()
  end
  else begin
    Format.printf "===============================================================@.";
    Format.printf " Parallel snapshot serving@.";
    Format.printf "===============================================================@.@.";
    bench_parallel ~quick ();
    Format.printf "@.===============================================================@.";
    Format.printf " Deferred batched maintenance@.";
    Format.printf "===============================================================@.@.";
    bench_maintenance_batch ~quick ();
    Format.printf "@.===============================================================@.";
    Format.printf " Overload-resilient serving@.";
    Format.printf "===============================================================@.@.";
    bench_serving ~quick ();
    Format.printf "@.===============================================================@.";
    Format.printf " Sharded scatter-gather execution@.";
    Format.printf "===============================================================@.@.";
    bench_sharded ~quick ();
    Format.printf "@.===============================================================@.";
    Format.printf " Buffer pool + traversal-aware clustering@.";
    Format.printf "===============================================================@.@.";
    bench_clustering ~quick ()
  end
