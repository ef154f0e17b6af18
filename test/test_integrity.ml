(* Tests for the integrity subsystem: the scrubber's typed divergence
   reports, quarantine-driven degraded planning, incremental background
   repair under live mutations, read-side fault injection with bounded
   retry, and a crash-point sweep across the scrub -> quarantine ->
   rebuild cycle.

   The acceptance property mirrors the engine suite's oracle check: for
   random schemas, decompositions, extensions and injected corruptions,
   every query over a quarantined index must equal the forced scan
   oracle (degradation, never wrong answers), and after a repair the
   scrub is clean and the planner routes through the index again. *)

module E = Core.Exec
module D = Core.Decomposition
module V = Gom.Value
module C = Workload.Schemas.Company
module Db = Durability.Db
module Fault = Durability.Fault
module Scrub = Integrity.Scrub
module Quarantine = Integrity.Quarantine
module Repair = Integrity.Repair

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

(* A profile whose fan-out makes navigation explode multiplicatively:
   over a coarse decomposition the planner must stitch through the
   index whenever it is healthy. *)
let pin_expensive_nav engine path =
  let n = Gom.Path.length path in
  Engine.set_profile engine path
    (Costmodel.Profile.make
       ~c:(List.init (n + 1) (fun _ -> 10_000.))
       ~d:(List.init n (fun _ -> 10_000.))
       ~fan:(List.init n (fun _ -> 8.))
       ())

let contains s sub =
  let n = String.length sub and len = String.length s in
  let rec go i = i + n <= len && (String.sub s i n = sub || go (i + 1)) in
  go 0

let uses_stitch = function
  | Engine.Plan.Stitch _ -> true
  | Engine.Plan.Nav _ | Engine.Plan.Extent_scan _ -> false

(* Engine answers must equal the forced scan oracle over every range,
   both directions. *)
let agrees_oracle engine env path =
  let n = Gom.Path.length path in
  let store = E.live_store_exn env in
  List.for_all
    (fun (i, j) ->
      let sources = Gom.Store.extent ~deep:true store (Gom.Path.type_at path i) in
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
    (all_ranges n)

(* A small company base with one canonical ASR under binary
   decomposition — every partition exclusively owned, no NULLs in the
   extension, so phantom and null-marker classification are exact. *)
let company_asr kind =
  let b = C.base () in
  let store = b.C.store in
  let path = C.name_path store in
  let m = Gom.Path.arity path - 1 in
  let a = Core.Asr.create store path kind (D.binary ~m) in
  (store, path, a)

(* The same base with the relation kept in one partition: the whole
   range (0, n) is a single key lookup, so with {!pin_expensive_nav}
   the healthy planner provably prefers the stitch — the right fixture
   for routing and plan-cache assertions. *)
let company_asr_single kind =
  let b = C.base () in
  let store = b.C.store in
  let path = C.name_path store in
  let m = Gom.Path.arity path - 1 in
  let a =
    Core.Asr.create store path kind (D.of_string ~m (Printf.sprintf "0,%d" m))
  in
  (store, path, a)

(* ---------------- scrub classification ---------------- *)

let scrub_clean_on_healthy () =
  let _, _, a = company_asr Core.Extension.Full in
  let r = Scrub.run a in
  check "healthy index scrubs clean" true (Scrub.clean r);
  check_int "no divergences" 0 (List.length r.Scrub.r_divergences);
  check "report prints" true (contains (Scrub.report_to_string r) "clean")

let scrub_detects_drop () =
  let _, _, a = company_asr Core.Extension.Full in
  let part = 0 in
  let victim = List.hd (Core.Asr.scan_partition a part) in
  Core.Asr.damage_partition a part [ Core.Asr.Drop victim ];
  let r = Scrub.run a in
  check "drop detected" true (not (Scrub.clean r));
  check "missing divergence in the damaged partition" true
    (List.exists
       (function
         | Scrub.Missing { part = p; proj; _ } ->
           p = part && Relation.Tuple.equal proj victim
         | _ -> false)
       r.Scrub.r_divergences);
  check "json mentions missing" true (contains (Scrub.report_to_json r) "missing")

let scrub_detects_phantom () =
  let _, _, a = company_asr Core.Extension.Full in
  let part = 1 in
  check "partition exclusively owned" true (not (Core.Asr.partition_shared a part));
  let width = Relation.Tuple.width (List.hd (Core.Asr.scan_partition a part)) in
  let ghost = Array.init width (fun c -> V.Ref (Gom.Oid.of_int (999990 + c))) in
  Core.Asr.damage_partition a part [ Core.Asr.Phantom ghost ];
  let r = Scrub.run a in
  check "phantom detected" true
    (List.exists
       (function
         | Scrub.Phantom { part = p; proj; _ } ->
           p = part && Relation.Tuple.equal proj ghost
         | _ -> false)
       r.Scrub.r_divergences)

let scrub_classifies_null_marker () =
  let _, _, a = company_asr Core.Extension.Canonical in
  let part = 0 in
  let victim = List.hd (Core.Asr.scan_partition a part) in
  (* The stored tuple records the wrong maximal partial path: the true
     projection lost its last column to NULL. *)
  let mismarked = Array.mapi (fun c v -> if c = Relation.Tuple.width victim - 1 then V.Null else v) victim in
  Core.Asr.damage_partition a part
    [ Core.Asr.Drop victim; Core.Asr.Phantom mismarked ];
  let r = Scrub.run a in
  check "classified as a wrong NULL marker" true
    (List.exists
       (function
         | Scrub.Null_marker { part = p; expected; actual; _ } ->
           p = part
           && Relation.Tuple.equal expected victim
           && Relation.Tuple.equal actual mismarked
         | _ -> false)
       r.Scrub.r_divergences)

let scrub_sampled_and_bad_args () =
  let _, _, a = company_asr Core.Extension.Full in
  let r1 = Scrub.run ~sample:1 a in
  check "1-in-1 sample of a healthy index is clean" true (Scrub.clean r1);
  check "sample recorded in the report" true (r1.Scrub.r_sample = Some 1);
  let part = 0 in
  let victim = List.hd (Core.Asr.scan_partition a part) in
  Core.Asr.damage_partition a part [ Core.Asr.Drop victim ];
  let r2 = Scrub.run ~sample:1 a in
  check "1-in-1 sample still sees the dropped tuple" true (not (Scrub.clean r2));
  check "sample:0 rejected" true
    (match Scrub.run ~sample:0 a with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------------- quarantine and degraded planning ---------------- *)

let quarantine_forces_replanning () =
  let store, path, a = company_asr_single Core.Extension.Full in
  let env = env_of store in
  let engine = Engine.create env in
  Engine.register engine a;
  pin_expensive_nav engine path;
  let registry = Quarantine.create () in
  Quarantine.attach registry engine;
  let n = Gom.Path.length path in
  let healthy_choice = Engine.choose engine path ~i:0 ~j:n ~dir:Engine.Plan.Fwd in
  check "healthy planner stitches through the index" true
    (uses_stitch healthy_choice.Engine.chosen);
  Quarantine.quarantine ~reason:"test" ~part:0 registry a;
  check "partition reported quarantined" true (Quarantine.is_quarantined registry a ~part:0);
  check "relation reported quarantined" true (Quarantine.asr_quarantined registry a);
  let degraded_choice = Engine.choose engine path ~i:0 ~j:n ~dir:Engine.Plan.Fwd in
  check "degraded planner avoids the quarantined index" true
    (not (uses_stitch degraded_choice.Engine.chosen));
  check "fallback counted" true (Storage.Stats.(count env.E.stats Fallbacks) > 0);
  Quarantine.lift registry a;
  check "lift clears every entry" true (not (Quarantine.asr_quarantined registry a));
  let restored_choice = Engine.choose engine path ~i:0 ~j:n ~dir:Engine.Plan.Fwd in
  check "planner routes through the index again" true
    (uses_stitch restored_choice.Engine.chosen)

let quarantined_damaged_index_still_answers () =
  let store, path, a = company_asr Core.Extension.Full in
  let env = env_of store in
  let engine = Engine.create env in
  Engine.register engine a;
  pin_expensive_nav engine path;
  let registry = Quarantine.create () in
  Quarantine.attach registry engine;
  (* Physically corrupt the index, then quarantine exactly what the
     scrub found: answers must stay oracle-equal throughout. *)
  let part = 0 in
  let victim = List.hd (Core.Asr.scan_partition a part) in
  Core.Asr.damage_partition a part [ Core.Asr.Drop victim ];
  let report = Scrub.run a in
  let parts = Quarantine.apply_report registry a report in
  check "scrub-driven quarantine hits the damaged partition" true (parts = [ part ]);
  check "degraded queries equal the oracle" true (agrees_oracle engine env path)

let cache_eviction_on_unregister () =
  let store, path, a = company_asr_single Core.Extension.Full in
  let env = env_of store in
  let engine = Engine.create env in
  Engine.register engine a;
  pin_expensive_nav engine path;
  let n = Gom.Path.length path in
  let choice = Engine.choose engine path ~i:0 ~j:n ~dir:Engine.Plan.Fwd in
  check "plan cached over the index" true (uses_stitch choice.Engine.chosen);
  let before = Engine.cache_info engine in
  check "entry present" true (before.Engine.entries > 0);
  Engine.unregister engine a;
  let after = Engine.cache_info engine in
  check "stale entries evicted eagerly" true (after.Engine.entries < before.Engine.entries);
  check "eviction counted as invalidation" true
    (after.Engine.invalidations > before.Engine.invalidations);
  (* The dropped index can never execute from a stale cached plan: the
     replanned query falls back and still equals the oracle. *)
  let choice' = Engine.choose engine path ~i:0 ~j:n ~dir:Engine.Plan.Fwd in
  check "replanned without the index" true (not (uses_stitch choice'.Engine.chosen));
  check "fallback answers equal the oracle" true (agrees_oracle engine env path)

let stale_cached_plan_never_executes () =
  let store, path, a = company_asr_single Core.Extension.Full in
  let env = env_of store in
  let engine = Engine.create env in
  Engine.register engine a;
  pin_expensive_nav engine path;
  let n = Gom.Path.length path in
  let stale = (Engine.choose engine path ~i:0 ~j:n ~dir:Engine.Plan.Fwd).Engine.chosen in
  check "captured plan stitches" true (uses_stitch stale);
  Engine.unregister engine a;
  (* Even a plan captured before the unregister is refused at the
     execution layer. *)
  let src = List.hd (Gom.Store.extent ~deep:true store (Gom.Path.type_at path 0)) in
  check "executing the stale plan is refused" true
    (match Engine.run_forward engine stale src with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------------- repair ---------------- *)

let repair_restores_and_lifts () =
  let store, path, a = company_asr_single Core.Extension.Full in
  let env = env_of store in
  let mgr = Core.Maintenance.create env in
  Core.Maintenance.register mgr a;
  let engine = Engine.create env in
  Engine.register engine a;
  pin_expensive_nav engine path;
  let registry = Quarantine.create () in
  Quarantine.attach registry engine;
  let part = 0 in
  let victim = List.hd (Core.Asr.scan_partition a part) in
  let ghost = Array.map (fun _ -> V.Ref (Gom.Oid.of_int 999999)) victim in
  Core.Asr.damage_partition a part [ Core.Asr.Drop victim; Core.Asr.Phantom ghost ];
  ignore (Quarantine.apply_report registry a (Scrub.run a));
  check "quarantined before repair" true (Quarantine.asr_quarantined registry a);
  let outcome = Repair.run ~slice:2 ~registry ~maintenance:mgr a in
  (match outcome with
  | Repair.Repaired { fixes; _ } -> check "some projections reconciled" true (fixes > 0)
  | Repair.Failed _ -> Alcotest.fail "repair failed on a repairable corruption");
  check "post-repair scrub is clean" true (Scrub.clean (Scrub.run a));
  check "quarantine lifted" true (not (Quarantine.asr_quarantined registry a));
  let n = Gom.Path.length path in
  check "planner routes through the index again" true
    (uses_stitch (Engine.choose engine path ~i:0 ~j:n ~dir:Engine.Plan.Fwd).Engine.chosen);
  check "repaired queries equal the oracle" true (agrees_oracle engine env path)

let repair_replays_live_mutations () =
  let b = C.base () in
  let store = b.C.store in
  let path = C.name_path store in
  let m = Gom.Path.arity path - 1 in
  let a = Core.Asr.create store path Core.Extension.Full (D.binary ~m) in
  let env = env_of store in
  let mgr = Core.Maintenance.create env in
  Core.Maintenance.register mgr a;
  let registry = Quarantine.create () in
  let part = 0 in
  let victim = List.hd (Core.Asr.scan_partition a part) in
  Core.Asr.damage_partition a part [ Core.Asr.Drop victim ];
  Quarantine.quarantine ~reason:"test" registry a;
  let job = Repair.start ~slice:1 ~registry ~maintenance:mgr a in
  (* Mutate the base mid-rebuild: ordinary maintenance is suspended for
     this relation, so the repair's reconciliation must take the event
     in. *)
  Gom.Store.set_attr store b.C.pepper "Name" (V.Str "PepperMill");
  let rec drive () =
    match Repair.step job with `More -> drive () | `Done o -> o
  in
  (match drive () with
  | Repair.Repaired { caught_up; _ } ->
    check "live event caught up" true (caught_up >= 1)
  | Repair.Failed _ -> Alcotest.fail "repair failed under live mutation");
  check "extension caught up with the mutation" true
    (Relation.equal
       (Core.Asr.extension_relation a)
       (Core.Extension.compute store path Core.Extension.Full));
  check "post-repair scrub is clean" true (Scrub.clean (Scrub.run a));
  check "maintenance resumed" true (not (Core.Maintenance.is_suspended mgr a))

(* A relation drawing its partitions from a sharing pool, repaired while
   the base loses edges: its co-sharer keeps being maintained through
   the rebuild, so the shared trees must end up carrying exactly both
   relations' references, not the repaired one's stale ones. *)
let repair_pooled_under_deletes () =
  let b = C.base () in
  let store = b.C.store in
  let path = C.name_path store in
  let m = Gom.Path.arity path - 1 in
  let pool = Core.Asr.make_pool store in
  let a = Core.Asr.create ~pool store path Core.Extension.Full (D.binary ~m) in
  let peer = Core.Asr.create ~pool store path Core.Extension.Full (D.binary ~m) in
  let mgr = Core.Maintenance.create (env_of store) in
  Core.Maintenance.register mgr a;
  Core.Maintenance.register mgr peer;
  check_int "fully pooled" (Core.Asr.partition_count a) (Core.Asr.shared_partition_count a);
  let registry = Quarantine.create () in
  Core.Asr.damage_partition a 1 [ Core.Asr.Phantom (List.hd (Core.Asr.scan_partition a 1)) ];
  Quarantine.quarantine ~reason:"test" registry a;
  let job = Repair.start ~slice:1 ~registry ~maintenance:mgr a in
  let sec_parts = V.oid_exn (Gom.Store.get_attr store b.C.sec560 "Composition") in
  Gom.Store.remove_elem store sec_parts (V.Ref b.C.door);
  Gom.Store.delete store b.C.pepper;
  let rec drive () = match Repair.step job with `More -> drive () | `Done o -> o in
  (match drive () with
  | Repair.Repaired _ -> ()
  | Repair.Failed _ -> Alcotest.fail "repair failed under live deletes");
  let truth () = Core.Extension.compute store path Core.Extension.Full in
  check "repaired relation equals the base" true
    (Relation.equal (truth ()) (Core.Asr.extension_relation a));
  check "co-sharer equals the base" true
    (Relation.equal (truth ()) (Core.Asr.extension_relation peer));
  check "shared trees carry exactly both relations" true
    (Test_maintenance.trees_exact_all [ a; peer ]);
  Gom.Store.delete store b.C.sec560;
  check "both maintained exactly afterwards" true
    (Relation.equal (truth ()) (Core.Asr.extension_relation a)
    && Test_maintenance.trees_exact_all [ a; peer ])

let abort_keeps_quarantine () =
  let b = C.base () in
  let store = b.C.store in
  let path = C.name_path store in
  let m = Gom.Path.arity path - 1 in
  let a = Core.Asr.create store path Core.Extension.Full (D.binary ~m) in
  (* Mutations applied before any maintenance is attached leave the
     logical extension stale, so the rebuild work list spans several
     slices — the job is genuinely mid-flight when aborted. *)
  Gom.Store.set_attr store b.C.pepper "Name" (V.Str "Zanzibar");
  Gom.Store.set_attr store b.C.door "Name" (V.Str "Gate");
  Gom.Store.set_attr store b.C.sausage "Name" (V.Str "Wurst");
  let env = env_of store in
  let mgr = Core.Maintenance.create env in
  Core.Maintenance.register mgr a;
  let registry = Quarantine.create () in
  Quarantine.quarantine ~reason:"test" registry a;
  let job = Repair.start ~slice:1 ~registry ~maintenance:mgr a in
  check "job still mid-flight after one slice" true (Repair.step job = `More);
  Repair.abort job;
  check "abort leaves the quarantine in place" true (Quarantine.asr_quarantined registry a);
  check "abort resumes maintenance" true (not (Core.Maintenance.is_suspended mgr a))

(* ---------------- fault injection ---------------- *)

let retry_backoff_deterministic () =
  let f = Fault.faulty_reads { Fault.fail_at_read = 1; fault = Fault.Transient 2 } in
  Fault.with_retry f (fun () -> Fault.observe_read f);
  check_int "two retries absorbed" 2 (Fault.retries f);
  check_int "backoff 2^0 + 2^1" 3 (Fault.backoff_ticks f);
  (* A transient outlasting the attempt budget escapes as Retryable. *)
  let g = Fault.faulty_reads { Fault.fail_at_read = 1; fault = Fault.Transient 5 } in
  check "persistent transient escapes" true
    (match Fault.with_retry g (fun () -> Fault.observe_read g) with
    | exception Fault.Retryable _ -> true
    | _ -> false);
  (* Determinism: the same plan yields the same counters. *)
  let h = Fault.faulty_reads { Fault.fail_at_read = 1; fault = Fault.Transient 2 } in
  Fault.with_retry h (fun () -> Fault.observe_read h);
  check_int "retries reproducible" (Fault.retries f) (Fault.retries h);
  check_int "backoff reproducible" (Fault.backoff_ticks f) (Fault.backoff_ticks h)

let scrub_absorbs_transient () =
  let _, _, a = company_asr Core.Extension.Full in
  let stats = Storage.Stats.create () in
  let f = Fault.faulty_reads { Fault.fail_at_read = 1; fault = Fault.Transient 2 } in
  let r = Scrub.run ~fault:f ~stats a in
  check "scrub clean despite transient faults" true (Scrub.clean r);
  check_int "retries surfaced in the counters" 2 Storage.Stats.(count stats Retries);
  check "scrubbed partitions counted" true
    (Storage.Stats.(count stats Scrubs) >= Core.Asr.partition_count a)

(* ---------------- durable snapshot loads under read faults -------- *)

let fresh_dir () =
  let d = Filename.temp_file "asr-integrity" "" in
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

let snapshot_read_faults () =
  with_dir (fun dir ->
      let b = C.base () in
      let db = Db.create ~dir b.C.store in
      Db.close db;
      let expect_corrupt name fault =
        match
          Db.open_ ~fault:(Fault.faulty_reads { Fault.fail_at_read = 1; fault }) ~dir ()
        with
        | _ -> Alcotest.failf "%s: corrupt snapshot accepted" name
        | exception Db.Recovery_error m ->
          check (name ^ " names the snapshot") true (contains m "snapshot");
          check (name ^ " locates the damage") true (contains m "byte")
      in
      expect_corrupt "flipped tail" (Fault.Flip_tail 4);
      expect_corrupt "truncated tail" (Fault.Drop_tail 4);
      (* A transient is absorbed by the bounded retry and recovery
         completes normally. *)
      let f = Fault.faulty_reads { Fault.fail_at_read = 1; fault = Fault.Transient 2 } in
      let db = Db.open_ ~fault:f ~dir () in
      check_int "transient absorbed by retry" 2 (Fault.retries f);
      check "recovered despite the transient" true
        (match Db.last_recovery db with Some r -> Db.verified r | None -> false);
      Db.close db)

(* ---------------- crash-during-repair sweep ---------------- *)

(* A deterministic setup with a corrupted partition, rebuilt from
   scratch for every crash point. *)
let sweep_setup () =
  let spec =
    Workload.Generator.spec ~seed:7 ~counts:[ 6; 8; 10 ] ~defined:[ 6; 7 ]
      ~fan:[ 2; 2 ] ()
  in
  let store, path = Workload.Generator.build spec in
  let env = env_of store in
  let m = Gom.Path.arity path - 1 in
  let a = Core.Asr.create store path Core.Extension.Full (D.binary ~m) in
  let mgr = Core.Maintenance.create env in
  Core.Maintenance.register mgr a;
  let engine = Engine.create env in
  Engine.register engine a;
  pin_expensive_nav engine path;
  let registry = Quarantine.create () in
  Quarantine.attach registry engine;
  let part = 0 in
  (match Core.Asr.scan_partition a part with
  | victim :: _ ->
    let ghost = Array.map (fun _ -> V.Ref (Gom.Oid.of_int 999999)) victim in
    Core.Asr.damage_partition a part [ Core.Asr.Drop victim; Core.Asr.Phantom ghost ]
  | [] -> Alcotest.fail "sweep base produced an empty partition");
  ignore (Quarantine.apply_report registry a (Scrub.run a));
  (env, path, a, mgr, engine, registry)

let crash_sweep_repair () =
  (* Size the sweep from a crash-free reference run through a counting
     fault environment that never fires. *)
  let total_reads =
    let env, _, a, mgr, _, registry = sweep_setup () in
    ignore env;
    let f =
      Fault.faulty_reads { Fault.fail_at_read = max_int; fault = Fault.Crash_read }
    in
    (match Repair.run ~slice:3 ~fault:f ~registry ~maintenance:mgr a with
    | Repair.Repaired _ -> ()
    | Repair.Failed _ -> Alcotest.fail "reference repair failed");
    Fault.reads f
  in
  check "reference run exercises several crash points" true (total_reads >= 3);
  for k = 1 to total_reads do
    let env, path, a, mgr, engine, registry = sweep_setup () in
    let f = Fault.faulty_reads { Fault.fail_at_read = k; fault = Fault.Crash_read } in
    (match Repair.run ~slice:3 ~fault:f ~registry ~maintenance:mgr a with
    | _ -> Alcotest.failf "crash point %d never fired" k
    | exception Fault.Crash -> ());
    (* The invariant: a crash anywhere in the cycle leaves the relation
       fully quarantined and queries degrading correctly — never a
       half-repaired index serving answers. *)
    check
      (Printf.sprintf "crash at read %d leaves the quarantine in place" k)
      true
      (Quarantine.asr_quarantined registry a);
    check
      (Printf.sprintf "crash at read %d: maintenance resumed" k)
      true
      (not (Core.Maintenance.is_suspended mgr a));
    check
      (Printf.sprintf "crash at read %d: degraded queries equal the oracle" k)
      true (agrees_oracle engine env path);
    (* Recovery: a clean second repair always lands fully repaired. *)
    (match Repair.run ~slice:3 ~registry ~maintenance:mgr a with
    | Repair.Repaired _ -> ()
    | Repair.Failed _ -> Alcotest.failf "post-crash repair failed at read %d" k);
    check
      (Printf.sprintf "crash at read %d: post-repair scrub clean" k)
      true
      (Scrub.clean (Scrub.run a));
    check
      (Printf.sprintf "crash at read %d: quarantine lifted after repair" k)
      true
      (not (Quarantine.asr_quarantined registry a))
  done

(* ---------------- stats surfacing ---------------- *)

let counters_in_json_summary () =
  let stats = Storage.Stats.create () in
  Storage.Stats.(incr stats Scrubs);
  Storage.Stats.(incr stats Fallbacks);
  Storage.Stats.(incr stats Retries);
  Storage.Stats.(incr stats Retries);
  let s = Storage.Stats.snapshot stats in
  check_int "scrub counter" 1 Storage.Stats.(summary_count s Scrubs);
  check_int "fallback counter" 1 Storage.Stats.(summary_count s Fallbacks);
  check_int "retry counter" 2 Storage.Stats.(summary_count s Retries);
  let json = Storage.Stats.summary_to_json s in
  check "json has scrubs" true (contains json "\"scrubs\": 1");
  check "json has fallbacks" true (contains json "\"fallbacks\": 1");
  check "json has retries" true (contains json "\"retries\": 2");
  Storage.Stats.reset stats;
  check_int "reset zeroes scrubs" 0 Storage.Stats.(count stats Scrubs)

(* ---------------- the acceptance property ---------------- *)

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

(* Corrupt one partition (a dropped real projection when one exists,
   plus a phantom when the trees are exclusively owned), scrub,
   quarantine, check oracle equality under degradation, repair, and
   check the index is clean, trusted and routed-through again. *)
let prop_corrupt_quarantine_repair =
  QCheck.Test.make
    ~name:"corrupt -> quarantine = oracle; repair -> clean scrub + ASR routing"
    ~count:50
    QCheck.(
      pair (make ~print:(fun _ -> "<spec>") spec_gen)
        (pair (int_bound 3) (pair small_int small_int)))
    (fun (spec, (kind_idx, (pick, dmg_pick))) ->
      let store, path = Workload.Generator.build spec in
      let env = env_of store in
      let kind = List.nth Core.Extension.all kind_idx in
      let m = Gom.Path.arity path - 1 in
      let decs = D.all ~m in
      let dec = List.nth decs (pick mod List.length decs) in
      let a = Core.Asr.create store path kind dec in
      let mgr = Core.Maintenance.create env in
      Core.Maintenance.register mgr a;
      let engine = Engine.create env in
      Engine.register engine a;
      pin_expensive_nav engine path;
      let registry = Quarantine.create () in
      Quarantine.attach registry engine;
      let parts = Core.Asr.partition_count a in
      let part = dmg_pick mod parts in
      let damaged =
        match Core.Asr.scan_partition a part with
        | victim :: _ ->
          let ghost = Array.map (fun _ -> V.Ref (Gom.Oid.of_int 999999)) victim in
          let ds =
            if Core.Asr.partition_shared a part then [ Core.Asr.Drop victim ]
            else [ Core.Asr.Drop victim; Core.Asr.Phantom ghost ]
          in
          Core.Asr.damage_partition a part ds;
          true
        | [] -> false
      in
      let report = Scrub.run a in
      let quarantined = Quarantine.apply_report registry a report in
      let detected = (not damaged) || quarantined <> [] in
      let degraded_ok = agrees_oracle engine env path in
      let repaired =
        match Repair.run ~slice:3 ~registry ~maintenance:mgr a with
        | Repair.Repaired _ -> true
        | Repair.Failed _ -> false
      in
      let clean_after = Scrub.clean (Scrub.run a) in
      let trusted_after = not (Quarantine.asr_quarantined registry a) in
      let restored_ok = agrees_oracle engine env path in
      detected && degraded_ok && repaired && clean_after && trusted_after
      && restored_ok)

let suite =
  [
    Alcotest.test_case "scrub: clean on a healthy index" `Quick scrub_clean_on_healthy;
    Alcotest.test_case "scrub: detects a dropped projection" `Quick scrub_detects_drop;
    Alcotest.test_case "scrub: detects a phantom projection" `Quick scrub_detects_phantom;
    Alcotest.test_case "scrub: classifies wrong NULL markers" `Quick
      scrub_classifies_null_marker;
    Alcotest.test_case "scrub: sampling and argument validation" `Quick
      scrub_sampled_and_bad_args;
    Alcotest.test_case "quarantine: forces replanning away and back" `Quick
      quarantine_forces_replanning;
    Alcotest.test_case "quarantine: damaged index still answers via oracle" `Quick
      quarantined_damaged_index_still_answers;
    Alcotest.test_case "engine: unregister evicts cached plans" `Quick
      cache_eviction_on_unregister;
    Alcotest.test_case "engine: stale cached plan can never execute" `Quick
      stale_cached_plan_never_executes;
    Alcotest.test_case "repair: restores, verifies, lifts quarantine" `Quick
      repair_restores_and_lifts;
    Alcotest.test_case "repair: buffers and replays live mutations" `Quick
      repair_replays_live_mutations;
    Alcotest.test_case "repair: pooled relation under live deletes" `Quick
      repair_pooled_under_deletes;
    Alcotest.test_case "repair: abort keeps the quarantine" `Quick abort_keeps_quarantine;
    Alcotest.test_case "fault: bounded retry with deterministic backoff" `Quick
      retry_backoff_deterministic;
    Alcotest.test_case "fault: scrub absorbs transient read faults" `Quick
      scrub_absorbs_transient;
    Alcotest.test_case "fault: snapshot loads under read faults" `Quick
      snapshot_read_faults;
    Alcotest.test_case "fault: crash sweep across the repair cycle" `Slow
      crash_sweep_repair;
    Alcotest.test_case "stats: integrity counters in the JSON summary" `Quick
      counters_in_json_summary;
    Qc.to_alcotest prop_corrupt_quarantine_repair;
  ]
