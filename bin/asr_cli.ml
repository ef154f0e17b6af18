(* Command-line interface to the access-support-relation reproduction:

     asr_cli list                          enumerate experiments
     asr_cli experiment fig6 [--csv]       regenerate one figure (or "all")
     asr_cli advise --profile storage ...  rank physical designs for a mix
     asr_cli query --base company "select ..." [--index full[:0,3,5]]
*)

let exit_usage msg =
  prerr_endline msg;
  exit 2

(* Runtime/data failures (corrupt images, failed recovery, divergent
   indexes) exit 1; usage errors exit 2; unexpected exceptions exit 125
   via the top-level net.  Success is always 0. *)
let exit_data msg =
  prerr_endline msg;
  exit 1

(* ---------------- experiment commands ---------------- *)

let list_cmd () =
  Format.printf "%-8s %-10s %s@." "id" "section" "title";
  Format.printf "%s@." (String.make 56 '-');
  List.iter
    (fun (e : Workload.Experiments.t) ->
      Format.printf "%-8s %-10s %s@." e.Workload.Experiments.id
        e.Workload.Experiments.section e.Workload.Experiments.title)
    Workload.Experiments.all;
  0

let experiment_cmd id csv =
  let run_one (e : Workload.Experiments.t) =
    if csv then
      List.iter
        (fun t -> print_string (Workload.Table.to_csv t))
        (e.Workload.Experiments.run ())
    else Workload.Experiments.run_and_render Format.std_formatter e
  in
  match id with
  | "all" ->
    List.iter run_one Workload.Experiments.all;
    0
  | id -> (
    match Workload.Experiments.find id with
    | Some e ->
      run_one e;
      0
    | None ->
      exit_usage
        (Printf.sprintf "unknown experiment %S; try `asr_cli list'" id))

(* ---------------- advisor command ---------------- *)

let profiles =
  [ ("storage", Workload.Experiments.profile_storage);
    ("query", Workload.Experiments.profile_query) ]

let parse_query_spec s =
  (* "i,j,bw,0.5" or "i,j,fw,0.5" *)
  match String.split_on_char ',' s with
  | [ i; j; kind; w ] -> (
    try Costmodel.Opmix.query ~kind (int_of_string i) (int_of_string j) (float_of_string w)
    with _ -> exit_usage (Printf.sprintf "bad query spec %S (want i,j,fw|bw,w)" s))
  | _ -> exit_usage (Printf.sprintf "bad query spec %S (want i,j,fw|bw,w)" s)

let parse_ins_spec s =
  match String.split_on_char ',' s with
  | [ pos; w ] -> (
    try Costmodel.Opmix.ins (int_of_string pos) (float_of_string w)
    with _ -> exit_usage (Printf.sprintf "bad update spec %S (want pos,w)" s))
  | _ -> exit_usage (Printf.sprintf "bad update spec %S (want pos,w)" s)

let advise_cmd profile p_up queries updates top =
  let prof =
    match List.assoc_opt profile profiles with
    | Some p -> p
    | None ->
      exit_usage
        (Printf.sprintf "unknown profile %S (available: %s)" profile
           (String.concat ", " (List.map fst profiles)))
  in
  let n = Costmodel.Profile.n prof in
  let queries =
    match queries with [] -> [ Costmodel.Opmix.query 0 n 1.0 ] | qs -> List.map parse_query_spec qs
  in
  let updates =
    match updates with [] -> [ Costmodel.Opmix.ins (n - 1) 1.0 ] | us -> List.map parse_ins_spec us
  in
  let mix =
    try Costmodel.Opmix.make ~queries ~updates
    with Invalid_argument m -> exit_usage m
  in
  let ranked = Costmodel.Advisor.rank prof mix ~p_up in
  let shown = List.filteri (fun i _ -> i < top) ranked in
  Format.printf "profile %s, P_up = %.3f, %d designs considered@.@." profile p_up
    (List.length ranked);
  Costmodel.Advisor.pp_ranked Format.std_formatter shown;
  Format.printf "@.";
  0

(* ---------------- query command ---------------- *)

let bases = [ "robots"; "company" ]

let make_env ?(buffer_pages = 0) base =
  match base with
  | "robots" ->
    let b = Workload.Schemas.Robot.base () in
    let store = b.Workload.Schemas.Robot.store in
    let heap = Storage.Heap.create ~size_of:(fun _ -> 100) store in
    (store, (Core.Exec.make ~buffer_pages store heap),
     Some (Workload.Schemas.Robot.location_path store))
  | "company" ->
    let b = Workload.Schemas.Company.base () in
    let store = b.Workload.Schemas.Company.store in
    let heap = Storage.Heap.create ~size_of:(fun _ -> 100) store in
    (store, (Core.Exec.make ~buffer_pages store heap),
     Some (Workload.Schemas.Company.name_path store))
  | other ->
    exit_usage
      (Printf.sprintf "unknown base %S (available: %s)" other (String.concat ", " bases))

let parse_index_spec path spec =
  (* "full" or "full:0,3,5" over the demo base's canonical path. *)
  let kind_s, dec_s =
    match String.index_opt spec ':' with
    | Some i ->
      (String.sub spec 0 i, Some (String.sub spec (i + 1) (String.length spec - i - 1)))
    | None -> (spec, None)
  in
  let kind =
    match Core.Extension.of_name kind_s with
    | Some k -> k
    | None -> exit_usage (Printf.sprintf "unknown extension %S" kind_s)
  in
  let m = Gom.Path.arity path - 1 in
  let dec =
    match dec_s with
    | None -> Core.Decomposition.binary ~m
    | Some s -> (
      try Core.Decomposition.of_string ~m s
      with Invalid_argument msg -> exit_usage msg)
  in
  (kind, dec)

let parse_index store path spec =
  let kind, dec = parse_index_spec path spec in
  Core.Asr.create store path kind dec

let parse_flush_policy s =
  match Core.Maintenance.policy_of_string s with
  | Some p -> p
  | None ->
    exit_usage
      (Printf.sprintf
         "bad flush policy %S (want immediate, every:K, bytes:N or onquery)" s)

(* Wire a maintenance manager over the engine's registered indexes when
   a deferred flush policy was requested; [None] keeps the pre-deferred
   behaviour (no manager, relations frozen as built). *)
let wire_maintenance engine = function
  | None -> None
  | Some s ->
    let p = parse_flush_policy s in
    let m = Core.Maintenance.create (Engine.env engine) in
    List.iter (Core.Maintenance.register m) (Engine.indexes engine);
    Core.Maintenance.set_policy m p;
    Some m

let dump_cmd base file =
  let store, _, _ = make_env base in
  Gom.Serial.save store file;
  Format.printf "wrote %s (%d objects)@." file
    (Gom.Store.fold_objects store ~init:0 ~f:(fun acc _ -> acc + 1));
  0

(* Shared setup for query/explain: store + resolved index path. *)
let make_base ?(buffer_pages = 0) base file path_spec =
  let store, env, index_path =
    match file with
    | None -> make_env ~buffer_pages base
    | Some f -> (
      match Gom.Serial.load f with
      | exception Gom.Serial.Corrupt m -> exit_data ("corrupt base file: " ^ m)
      | exception Sys_error m -> exit_usage m
      | store ->
        let heap = Storage.Heap.create ~size_of:(fun _ -> 100) store in
        (store, Core.Exec.make ~buffer_pages store heap, None))
  in
  let index_path =
    match path_spec with
    | Some s -> (
      try Some (Gom.Path.parse (Gom.Store.schema store) s)
      with Gom.Path.Path_error m -> exit_usage m)
    | None -> index_path
  in
  (store, env, index_path)

let make_engine ?buffer_pages base file path_spec index_spec =
  let store, env, index_path = make_base ?buffer_pages base file path_spec in
  let indexes =
    match (index_spec, index_path) with
    | None, _ -> []
    | Some spec, Some p -> [ parse_index store p spec ]
    | Some _, None -> exit_usage "--index over a file base requires --path"
  in
  let engine = Engine.create env in
  List.iter (Engine.register engine) indexes;
  (store, engine)

let print_cache_line engine =
  let info = Engine.cache_info engine in
  Format.printf "plan cache: %d hit(s), %d miss(es), %d invalidation(s); %d profile walk(s)@."
    info.Engine.hits info.Engine.misses info.Engine.invalidations info.Engine.profile_walks

let stats_json engine =
  let env = Engine.env engine in
  let info = Engine.cache_info engine in
  Storage.Stats.summary_to_json
    ~extra:
      [
        ("plan_cache_hits", string_of_int info.Engine.hits);
        ("plan_cache_misses", string_of_int info.Engine.misses);
        ("plan_cache_invalidations", string_of_int info.Engine.invalidations);
        ("profile_walks", string_of_int info.Engine.profile_walks);
      ]
    (Storage.Stats.snapshot env.Core.Exec.stats)

let print_query_results batch results =
  List.iter
    (fun (r : Gql.Eval.result) ->
      if batch then
        Format.printf "%4d pages  %4d row(s)  %s@." r.Gql.Eval.pages
          (List.length r.Gql.Eval.rows)
          (Gql.Eval.plan_to_string r.Gql.Eval.plan)
      else begin
        Format.printf "plan:  %s@." (Gql.Eval.plan_to_string r.Gql.Eval.plan);
        Format.printf "pages: %d@." r.Gql.Eval.pages;
        Format.printf "rows  (%d):@." (List.length r.Gql.Eval.rows);
        List.iter
          (fun row ->
            Format.printf "  %s@."
              (String.concat ", " (List.map Gom.Value.to_string row)))
          r.Gql.Eval.rows
      end)
    results

let compile_queries store texts =
  (* Parse/type errors are usage errors: surface them before any worker
     domain starts, so a typo exits 2 cleanly instead of mid-fan-out. *)
  List.map
    (fun text ->
      match Gql.Parser.parse text with
      | exception Gql.Parser.Parse_error m -> exit_usage ("parse error: " ^ m)
      | ast -> (
        match Gql.Typecheck.check store ast with
        | exception Gql.Typecheck.Check_error m -> exit_usage ("type error: " ^ m)
        | q -> q))
    texts

(* Sharded execution: the base is split into a shard group (shard 0
   wraps the loaded store, the others are replicas carrying fragment
   indexes), every query is evaluated on every shard's engine and the
   per-shard row sets merge back into the unsharded answer. *)
let query_sharded base file path_spec index_spec flush_policy batch jobs shards texts =
  let store, _env, index_path = make_base base file path_spec in
  let grp =
    Shard.Group.create ~jobs:(max jobs shards)
      ~placement:(Shard.Placement.make shards) store
  in
  Fun.protect
    ~finally:(fun () -> Shard.Group.close grp)
    (fun () ->
      (match (index_spec, index_path) with
      | None, _ -> ()
      | Some spec, Some p ->
        let kind, dec = parse_index_spec p spec in
        Shard.Group.register grp ~path:p ~kind ~dec
      | Some _, None -> exit_usage "--index over a file base requires --path");
      (match flush_policy with
      | Some s -> Shard.Group.set_policy grp (parse_flush_policy s)
      | None -> ());
      let compiled = compile_queries store texts in
      let results =
        List.map
          (fun q ->
            Gql.Eval.merge_results q
              (List.init shards (fun k ->
                   Gql.Eval.run ~engine:(Shard.Group.engine grp k) q)))
          compiled
      in
      print_query_results batch results;
      Format.printf "shards: %d (jobs %d), %d pending delta(s)@." shards
        (Shard.Group.jobs grp) (Shard.Group.pending grp);
      if batch then begin
        let total = Shard.Group.stats_summary grp in
        Array.iteri
          (fun k (s : Storage.Stats.summary) ->
            Format.printf "  shard %d: %d page(s) read, %d fallback(s), %d pages held@."
              k s.Storage.Stats.s_total_reads
              Storage.Stats.(summary_count s Fallbacks)
              (Shard.Group.total_pages grp).(k))
          (Shard.Group.shard_summaries grp);
        print_endline (Storage.Stats.summary_to_json total)
      end;
      0)

let query_cmd base file path_spec index_spec flush_policy batch jobs shards buffer_pages
    texts =
  if shards > 1 then
    query_sharded base file path_spec index_spec flush_policy batch jobs shards texts
  else begin
  let buffer_pages = max 0 buffer_pages in
  let store, engine = make_engine ~buffer_pages base file path_spec index_spec in
  let maintenance = wire_maintenance engine flush_policy in
  let jobs = max 1 jobs in
  let compiled = compile_queries store texts in
  let results =
    if jobs = 1 then List.map (fun q -> Gql.Eval.run ~engine q) compiled
    else begin
      (* One shared engine (lock-guarded plan cache: repeated shapes hit
         across domains), one private accounting sheaf per query; the
         sheaves are folded back into the engine's accountant so the
         --batch summary equals a sequential run's. *)
      let pool = Parallel.Pool.create ~jobs in
      let env0 = Engine.env engine in
      let out =
        Parallel.Pool.run_all pool
          (List.map
             (fun q () ->
               let env =
                 Core.Exec.make_view ~buffer_pages env0.Core.Exec.view
                   env0.Core.Exec.heap
               in
               let r = Gql.Eval.run ~env ~engine q in
               (r, Storage.Stats.snapshot env.Core.Exec.stats))
             compiled)
      in
      Parallel.Pool.shutdown pool;
      Storage.Stats.absorb env0.Core.Exec.stats
        (List.fold_left
           (fun acc (_, s) -> Storage.Stats.merge acc s)
           Storage.Stats.zero out);
      List.map fst out
    end
  in
  print_query_results batch results;
  (match maintenance with
  | Some m ->
    Format.printf "maintenance: %s policy, %d pending delta(s)@."
      (Core.Maintenance.policy_to_string (Core.Maintenance.policy m))
      (Core.Maintenance.pending m)
  | None -> ());
  if batch then begin
    print_cache_line engine;
    print_endline (stats_json engine)
  end;
  0
  end

(* ---------------- serve command ---------------- *)

(* Workload file: one probe batch per line, `fw I J K` or `bw I J K` —
   evaluate Q^(I,J) in the given direction over the first K objects of
   the relevant extent (K capped at the extent size; blank lines and
   #-comments skipped).  The whole file is served as one mixed batch
   fanned across the server's domain pool. *)
let parse_workload store env path file =
  let ic = try open_in file with Sys_error m -> exit_usage m in
  let lines = ref [] in
  (try
     let lineno = ref 0 in
     while true do
       let line = input_line ic in
       incr lineno;
       let line =
         match String.index_opt line '#' with
         | Some i -> String.sub line 0 i
         | None -> line
       in
       match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
       | [] -> ()
       | [ dir; i; j; k ] -> (
         match (dir, int_of_string_opt i, int_of_string_opt j, int_of_string_opt k) with
         | ("fw" | "bw"), Some i, Some j, Some k when 0 <= i && i < j && k >= 0 ->
           lines := (dir, i, j, k) :: !lines
         | _ ->
           exit_usage
             (Printf.sprintf "%s:%d: bad workload line (want `fw|bw I J K')" file !lineno)
         )
       | _ ->
         exit_usage
           (Printf.sprintf "%s:%d: bad workload line (want `fw|bw I J K')" file !lineno)
     done
   with End_of_file -> close_in ic);
  let n = Gom.Path.length path in
  List.rev_map
    (fun (dir, i, j, k) ->
      if j > n then
        exit_usage (Printf.sprintf "workload range (%d,%d) exceeds path length %d" i j n);
      let take k xs = List.filteri (fun idx _ -> idx < k) xs in
      match dir with
      | "fw" ->
        let sources = take k (Gom.Store.extent ~deep:true store (Gom.Path.type_at path i)) in
        Parallel.Server.Forward { q_path = path; q_i = i; q_j = j; q_sources = sources }
      | _ ->
        (* Position j of a path is usually an atomic value type with no
           extent of its own; fall back to the distinct values actually
           reachable over the path, so `bw` lines probe real targets. *)
        let targets =
          match Gom.Store.extent ~deep:true store (Gom.Path.type_at path j) with
          | _ :: _ as objs -> take k (List.map (fun o -> Gom.Value.Ref o) objs)
          | [] ->
            Gom.Store.extent ~deep:true store (Gom.Path.type_at path i)
            |> List.concat_map (fun o -> Core.Exec.forward_scan env path ~i ~j o)
            |> List.sort_uniq Gom.Value.compare
            |> take k
        in
        Parallel.Server.Backward { q_path = path; q_i = i; q_j = j; q_targets = targets })
    !lines

let serve_cmd base file path_spec index_spec flush_policy jobs buffer_pages workload
    repeat max_queue deadline_ms shed_policy =
  let jobs = max 1 jobs in
  let buffer_pages = max 0 buffer_pages in
  let store, env, index_path =
    match file with
    | None -> make_env base
    | Some f -> (
      match Gom.Serial.load f with
      | exception Gom.Serial.Corrupt m -> exit_data ("corrupt base file: " ^ m)
      | exception Sys_error m -> exit_usage m
      | store ->
        let heap = Storage.Heap.create ~size_of:(fun _ -> 100) store in
        (store, Core.Exec.make store heap, None))
  in
  let path =
    match path_spec with
    | Some s -> (
      try Gom.Path.parse (Gom.Store.schema store) s
      with Gom.Path.Path_error m -> exit_usage m)
    | None -> (
      match index_path with
      | Some p -> p
      | None -> exit_usage "--path is required for a file base")
  in
  let live_indexes =
    match index_spec with
    | None -> []
    | Some spec -> [ parse_index store path spec ]
  in
  let specs =
    List.map
      (fun a ->
        {
          Parallel.Snapshot.sp_path = Core.Asr.path a;
          sp_kind = Core.Asr.kind a;
          sp_decomposition = Core.Asr.decomposition a;
        })
      live_indexes
  in
  (* Under a deferred policy the live base's relations buffer their tree
     writes; the server flushes them before every snapshot publication,
     so served epochs stay delta-free. *)
  let maintenance =
    match flush_policy with
    | None -> None
    | Some s ->
      let p = parse_flush_policy s in
      let m = Core.Maintenance.create env in
      List.iter (Core.Maintenance.register m) live_indexes;
      Core.Maintenance.set_policy m p;
      Some m
  in
  let queries = parse_workload store env path workload in
  if queries = [] then exit_usage (Printf.sprintf "workload %s is empty" workload);
  let describe q =
    match q with
    | Parallel.Server.Forward { q_i; q_j; q_sources; _ } ->
      ("fw", q_i, q_j, List.length q_sources)
    | Parallel.Server.Backward { q_i; q_j; q_targets; _ } ->
      ("bw", q_i, q_j, List.length q_targets)
  in
  let answer_rows = function
    | Parallel.Server.Forward_answer ans ->
      List.fold_left (fun acc (_, vs) -> acc + List.length vs) 0 ans
    | Parallel.Server.Backward_answer ans ->
      List.fold_left (fun acc (_, os) -> acc + List.length os) 0 ans
  in
  let server = Parallel.Server.create ~jobs ~buffer_pages ?maintenance ~specs store in
  (* The server owns a pool of domains: whatever the serve path raises
     (a failed query, a corrupt workload assertion), the pool must be
     joined on the way out, never leaked. *)
  Fun.protect
    ~finally:(fun () -> Parallel.Server.shutdown server)
    (fun () ->
      match (max_queue, deadline_ms, shed_policy) with
      | None, None, None ->
        (* Unthrottled path: the whole workload as one mixed batch. *)
        let t0 = Unix.gettimeofday () in
        let answers = ref [] in
        for _ = 1 to max 1 repeat do
          answers := Parallel.Server.serve server queries
        done;
        let dt = Unix.gettimeofday () -. t0 in
        let served = List.length queries * max 1 repeat in
        List.iteri
          (fun k (q, a) ->
            let dir, i, j, probes = describe q in
            Format.printf "%3d  %s Q^(%d,%d)  %4d probe(s)  %5d result row(s)@." k dir
              i j probes (answer_rows a))
          (List.combine queries !answers);
        let summary = Parallel.Server.stats server in
        Format.printf
          "served %d quer(ies) over epoch %d with %d job(s) in %.3fs (%.1f q/s)@."
          served (Parallel.Server.epoch server) jobs dt
          (float_of_int served /. Float.max dt 1e-9);
        let p = Parallel.Server.publish_info server in
        Format.printf
          "published %d epoch(s); last publish %.3fms (%d object(s) copied, %d \
           shared)@."
          p.Parallel.Server.publishes
          (p.Parallel.Server.last_latency_s *. 1000.)
          p.Parallel.Server.last_copied p.Parallel.Server.last_shared;
        if buffer_pages > 0 then
          Format.printf
            "buffer: %d page(s)/worker; hit ratio %.1f%%; %d miss(es), %d \
             eviction(s), %d prefetched@."
            buffer_pages
            (100. *. Storage.Stats.summary_hit_ratio summary)
            summary.Storage.Stats.s_buffer_misses
            summary.Storage.Stats.s_buffer_evictions
            summary.Storage.Stats.s_prefetched;
        print_endline
          (Storage.Stats.summary_to_json
             ~extra:
               [
                 ("jobs", string_of_int jobs);
                 ("queries", string_of_int served);
                 ("elapsed_s", Printf.sprintf "%.6f" dt);
                 ("publishes", string_of_int p.Parallel.Server.publishes);
                 ( "last_publish_ms",
                   Printf.sprintf "%.6f" (p.Parallel.Server.last_latency_s *. 1000.) );
                 ("last_copied", string_of_int p.Parallel.Server.last_copied);
                 ("last_shared", string_of_int p.Parallel.Server.last_shared);
               ]
             summary);
        0
      | _ ->
        (* Overload-resilient path: admission-controlled front with a
           spawned dispatcher; every query resolves to a typed outcome. *)
        let policy =
          match shed_policy with
          | None -> Resilience.Front.Deadline_aware
          | Some s -> (
            match Resilience.Front.policy_of_string s with
            | Some p -> p
            | None ->
              exit_usage
                (Printf.sprintf
                   "unknown shed policy %s (want newest, oldest or deadline)" s))
        in
        let config =
          let d = Resilience.Front.default_config in
          let max_queue = max 1 (Option.value ~default:d.Resilience.Front.max_queue max_queue) in
          {
            d with
            Resilience.Front.max_queue;
            high_watermark = max 1 (max_queue * 3 / 4);
            low_watermark = max_queue / 4;
            shed_policy = policy;
            deadline_s = Option.map (fun ms -> ms /. 1000.) deadline_ms;
          }
        in
        let front = Resilience.Front.create ~config ~spawn:true server in
        Fun.protect
          ~finally:(fun () -> Resilience.Front.shutdown front)
          (fun () ->
            let t0 = Unix.gettimeofday () in
            let tickets =
              List.concat
                (List.init (max 1 repeat) (fun _ ->
                     List.map (fun q -> (q, Resilience.Front.submit front q)) queries))
            in
            let outcomes =
              List.map (fun (q, t) -> (q, Resilience.Front.await front t)) tickets
            in
            let dt = Unix.gettimeofday () -. t0 in
            List.iteri
              (fun k (q, o) ->
                let dir, i, j, probes = describe q in
                let verdict =
                  match o with
                  | Resilience.Front.Answer a ->
                    Printf.sprintf "%5d result row(s)" (answer_rows a)
                  | Resilience.Front.Shed Resilience.Front.Queue_full ->
                    "shed (queue full)"
                  | Resilience.Front.Shed Resilience.Front.Rate_limited ->
                    "shed (rate limited)"
                  | Resilience.Front.Timeout -> "timed out"
                  | Resilience.Front.Failed m -> "failed: " ^ m
                in
                Format.printf "%3d  %s Q^(%d,%d)  %4d probe(s)  %s@." k dir i j probes
                  verdict)
              outcomes;
            let c = Resilience.Front.counters front in
            let summary = Resilience.Front.stats front in
            Format.printf
              "offered %d: answered %d, shed %d, timed-out %d, failed %d — %d job(s), \
               %.3fs (%.1f admitted q/s)@."
              c.Resilience.Front.offered c.answered c.shed c.timed_out c.failed jobs dt
              (float_of_int c.answered /. Float.max dt 1e-9);
            let p = Parallel.Server.publish_info server in
            Format.printf
              "published %d epoch(s); last publish %.3fms (%d object(s) copied, %d \
               shared)@."
              p.Parallel.Server.publishes
              (p.Parallel.Server.last_latency_s *. 1000.)
              p.Parallel.Server.last_copied p.Parallel.Server.last_shared;
            print_endline
              (Storage.Stats.summary_to_json
                 ~extra:
                   [
                     ("jobs", string_of_int jobs);
                     ("offered", string_of_int c.Resilience.Front.offered);
                     ("answered", string_of_int c.answered);
                     ("elapsed_s", Printf.sprintf "%.6f" dt);
                   ]
                 summary);
            if c.failed > 0 then 1 else 0))

(* ---------------- explain command ---------------- *)

let explain_cmd base file path_spec index_spec text =
  let _store, engine = make_engine base file path_spec index_spec in
  match Gql.Eval.query ~engine text with
  | exception Gql.Parser.Parse_error m -> exit_usage ("parse error: " ^ m)
  | exception Gql.Typecheck.Check_error m -> exit_usage ("type error: " ^ m)
  | r ->
    (match r.Gql.Eval.plan with
    | Gql.Eval.Nested_loop ->
      Format.printf
        "plan      : nested-loop navigation (the query does not merge into a \
         single path expression)@."
    | Gql.Eval.Merged_backward { choice; path; residual; _ } ->
      Format.printf "query path: %s@." (Gom.Path.to_string path);
      Format.printf "plan      : %s@." (Engine.Plan.to_string choice.Engine.chosen);
      (match residual with
      | Gql.Typecheck.TTrue -> ()
      | _ -> Format.printf "            + residual filter on the anchor variable@.");
      Format.printf "estimated : %.1f page accesses@." choice.Engine.est_cost;
      (match choice.Engine.candidates with
      | [] | [ _ ] -> ()
      | _ :: rest ->
        Format.printf "also considered:@.";
        List.iter
          (fun (c : Engine.candidate) ->
            Format.printf "  est %8.1f  %s@." c.Engine.est_cost
              (Engine.Plan.to_string c.Engine.plan))
          rest));
    Format.printf "measured  : %d page accesses, %d row(s)@." r.Gql.Eval.pages
      (List.length r.Gql.Eval.rows);
    print_cache_line engine;
    0

(* ---------------- auto design ---------------- *)

let auto_cmd base file path_spec p_up queries updates =
  let store, _env, index_path =
    match file with
    | None -> make_env base
    | Some f -> (
      match Gom.Serial.load f with
      | exception Gom.Serial.Corrupt m -> exit_data ("corrupt base file: " ^ m)
      | exception Sys_error m -> exit_usage m
      | store ->
        let heap = Storage.Heap.create ~size_of:(fun _ -> 100) store in
        (store, (Core.Exec.make store heap), None))
  in
  let path =
    match path_spec with
    | Some s -> (
      try Gom.Path.parse (Gom.Store.schema store) s
      with Gom.Path.Path_error m -> exit_usage m)
    | None -> (
      match index_path with
      | Some p -> p
      | None -> exit_usage "--path is required for a file base")
  in
  let n = Gom.Path.length path in
  let queries =
    match queries with
    | [] -> [ Costmodel.Opmix.query 0 n 1.0 ]
    | qs -> List.map parse_query_spec qs
  in
  let updates =
    match updates with
    | [] -> [ Costmodel.Opmix.ins (n - 1) 1.0 ]
    | us -> List.map parse_ins_spec us
  in
  let mix =
    try Costmodel.Opmix.make ~queries ~updates with Invalid_argument m -> exit_usage m
  in
  let best, built = Workload.Autodesign.auto store path mix ~p_up in
  Format.printf "measured profile over %a:@.%a@.@." Gom.Path.pp path Costmodel.Profile.pp
    (Workload.Profiler.profile_of_base store path);
  Format.printf "winning design: %s (%.2f pages/op, %.4f vs no support)@."
    (Costmodel.Opmix.design_name best.Costmodel.Advisor.design)
    best.Costmodel.Advisor.expected_cost best.Costmodel.Advisor.normalized;
  (match built with
  | Some a ->
    Format.printf "materialised: %d tuples over %d partitions, %d pages@."
      (Core.Asr.cardinal a) (Core.Asr.partition_count a) (Core.Asr.total_pages a)
  | None -> Format.printf "no index materialised (no support wins)@.");
  0

(* ---------------- repl ---------------- *)

let repl_cmd base file path_spec index_spec =
  let store, env, index_path =
    match file with
    | None -> make_env base
    | Some f -> (
      match Gom.Serial.load f with
      | exception Gom.Serial.Corrupt m -> exit_data ("corrupt base file: " ^ m)
      | exception Sys_error m -> exit_usage m
      | store ->
        let heap = Storage.Heap.create ~size_of:(fun _ -> 100) store in
        (store, (Core.Exec.make store heap), None))
  in
  let index_path =
    match path_spec with
    | Some s -> (
      try Some (Gom.Path.parse (Gom.Store.schema store) s)
      with Gom.Path.Path_error m -> exit_usage m)
    | None -> index_path
  in
  let indexes =
    match (index_spec, index_path) with
    | None, _ -> []
    | Some spec, Some p -> [ parse_index store p spec ]
    | Some _, None -> exit_usage "--index requires --path on a file base"
  in
  let engine = Engine.create env in
  List.iter (Engine.register engine) indexes;
  Format.printf
    "GOM-SQL repl - one query per line; \\schema shows the schema, \\names the \
     roots, \\q quits.@.";
  (try
     while true do
       Format.printf "gom> %!";
       match input_line stdin with
       | exception End_of_file -> raise Exit
       | "\\q" | "\\quit" | "exit" -> raise Exit
       | "\\schema" -> Format.printf "%a%!" Gom.Schema.pp (Gom.Store.schema store)
       | "\\names" ->
         List.iter
           (fun (n, o) ->
             Format.printf "%s -> %s@." n (Gom.Value.to_string (Gom.Value.Ref o)))
           (Gom.Store.names store)
       | "" -> ()
       | line -> (
         match Gql.Eval.query ~engine line with
         | exception Gql.Parser.Parse_error m -> Format.printf "parse error: %s@." m
         | exception Gql.Typecheck.Check_error m -> Format.printf "type error: %s@." m
         | r ->
           Format.printf "-- %s (%d pages)@." (Gql.Eval.plan_to_string r.Gql.Eval.plan)
             r.Gql.Eval.pages;
           List.iter
             (fun row ->
               Format.printf "%s@."
                 (String.concat ", " (List.map Gom.Value.to_string row)))
             r.Gql.Eval.rows)
     done
   with Exit -> ());
  0

(* ---------------- durable base commands ---------------- *)

let print_recovery (r : Durability.Db.report) =
  Format.printf "recovered generation %d@." r.Durability.Db.generation;
  Format.printf "  log records: %d intact, %d replayed, %d uncommitted dropped@."
    r.Durability.Db.records_scanned r.Durability.Db.records_replayed
    r.Durability.Db.records_dropped;
  if r.Durability.Db.bytes_truncated > 0 then
    Format.printf "  torn/uncommitted tail truncated: %d bytes@."
      r.Durability.Db.bytes_truncated;
  Format.printf "  committed transactions replayed: %d@." r.Durability.Db.commits_replayed;
  if r.Durability.Db.flushes_replayed > 0 then
    Format.printf "  maintenance flush groups replayed: %d@."
      r.Durability.Db.flushes_replayed;
  List.iter
    (fun (spec, ok) ->
      Format.printf "  asr %-40s %s@." spec
        (if ok then "verified against from-scratch build" else "MISMATCH"))
    r.Durability.Db.asr_checks

let db_status db =
  let store = Durability.Db.store db in
  Format.printf "dir:        %s@." (Durability.Db.dir db);
  Format.printf "generation: %d@." (Durability.Db.generation db);
  Format.printf "objects:    %d@."
    (Gom.Store.fold_objects store ~init:0 ~f:(fun acc _ -> acc + 1));
  Format.printf "asrs:       %d@." (List.length (Durability.Db.asrs db));
  let mgr = Durability.Db.maintenance db in
  Format.printf "flush:      %s policy, %d pending delta(s)@."
    (Core.Maintenance.policy_to_string (Core.Maintenance.policy mgr))
    (Core.Maintenance.pending mgr);
  List.iter
    (fun a ->
      Format.printf "  %-40s %d pending delta(s)@."
        (Gom.Path.to_string (Core.Asr.path a))
        (Core.Asr.pending_deltas a))
    (Durability.Db.asrs db);
  let env = Durability.Db.env db in
  let st = env.Core.Exec.stats in
  (if Storage.Stats.has_buffer st then
     Format.printf "buffer:     %d page(s); hit ratio %s; %d miss(es), %d eviction(s)@."
       (Storage.Stats.buffer_capacity st)
       (match Storage.Stats.hit_ratio st with
       | Some r -> Printf.sprintf "%.1f%%" (100. *. r)
       | None -> "n/a (no traffic yet)")
       (Storage.Stats.buffer_misses st)
       (Storage.Stats.buffer_evictions st)
   else Format.printf "buffer:     none (unbuffered page accounting)@.");
  (match Storage.Heap.recluster_progress env.Core.Exec.heap with
  | Some (moved, planned) ->
    Format.printf "recluster:  %d/%d move(s) applied%s@." moved planned
      (if Storage.Heap.recluster_active env.Core.Exec.heap then " (running)"
       else " (complete)")
  | None -> Format.printf "recluster:  never run (creation-order layout)@.");
  (* What epoch publication costs against this base: the one-time O(n)
     image, then a CoW republication (no intervening writes here, so it
     copies nothing and shares every instance). *)
  let t0 = Unix.gettimeofday () in
  let image = Gom.Frozen.of_store store in
  let t1 = Unix.gettimeofday () in
  let next = Gom.Frozen.advance image [] in
  let t2 = Unix.gettimeofday () in
  Format.printf
    "snapshot:   initial image %.1fms; CoW republish %.3fms (%d object(s) copied, %d \
     shared)@."
    ((t1 -. t0) *. 1000.)
    ((t2 -. t1) *. 1000.)
    (Gom.Frozen.copied next) (Gom.Frozen.shared next)

let with_db dir f =
  match Durability.Db.open_ ~dir () with
  | exception Durability.Db.Recovery_error m -> exit_data ("recovery failed: " ^ m)
  | exception Durability.Db.Db_error m -> exit_data m
  | exception Gom.Serial.Corrupt m -> exit_data ("corrupt image: " ^ m)
  | db ->
    Fun.protect ~finally:(fun () -> Durability.Db.close db) (fun () -> f db)

(* Sharded durable base: the one Db's status, then the group's shape —
   placement, fragment specs, and each shard's pending deltas and
   fragment pages. *)
let db_shard_status dir =
  match Shard.Durable.open_ ~dir () with
  | exception Shard.Durable.Shard_error m -> exit_data m
  | exception Durability.Db.Recovery_error m -> exit_data ("recovery failed: " ^ m)
  | exception Gom.Serial.Corrupt m -> exit_data ("corrupt image: " ^ m)
  | d ->
    Fun.protect
      ~finally:(fun () -> Shard.Durable.close d)
      (fun () ->
        let grp = Shard.Durable.group d in
        let n = Shard.Group.shards grp in
        db_status (Shard.Durable.db d);
        Format.printf "shards:     %d (%s placement), replicas seeded from shard 0@." n
          (Shard.Placement.to_string (Shard.Group.placement grp));
        Format.printf "fragments:  %d spec(s), fragmented %d-way@."
          (List.length (Shard.Durable.specs d)) n;
        let pages = Shard.Group.total_pages grp in
        for k = 0 to n - 1 do
          Format.printf "  shard %d: %d pending delta(s), %d fragment page(s)@." k
            (Core.Maintenance.pending (Shard.Group.manager grp k))
            pages.(k)
        done;
        0)

let db_shard_init dir base shards =
  let store, _, index_path = make_env base in
  match
    Shard.Durable.create ~placement:(Shard.Placement.make shards) ~dir store
  with
  | exception Shard.Durable.Shard_error m -> exit_data m
  | d ->
    Fun.protect
      ~finally:(fun () -> Shard.Durable.close d)
      (fun () ->
        (* Fragment the demo base's canonical path out of the box, so a
           fresh sharded base demonstrates per-shard index balance
           without a separate registration step. *)
        (match index_path with
        | Some p ->
          Shard.Durable.register d ~path:(Gom.Path.to_string p)
            ~kind:Core.Extension.Full ()
        | None -> ());
        Format.printf
          "initialised sharded durable base (%d shard(s)) from demo base %S@."
          shards base;
        0)

let db_open_cmd dir base shards =
  if Sys.file_exists (Shard.Durable.shards_file dir) then db_shard_status dir
  else if
    (not (Sys.file_exists (Filename.concat dir "MANIFEST"))) && shards > 1
  then db_shard_init dir base shards
  else if Sys.file_exists (Filename.concat dir "MANIFEST") then
    with_db dir (fun db ->
        (match Durability.Db.last_recovery db with
        | Some r -> print_recovery r
        | None -> ());
        db_status db;
        0)
  else begin
    let store, _, _ = make_env base in
    match Durability.Db.create ~dir store with
    | exception Durability.Db.Db_error m -> exit_data m
    | db ->
      Fun.protect
        ~finally:(fun () -> Durability.Db.close db)
        (fun () ->
          Format.printf "initialised durable base from demo base %S@." base;
          db_status db;
          0)
  end

(* One mutation per argument, applied inside a single transaction:
     new TYPE | set OID ATTR VALUE | ins OID VALUE | rem OID VALUE
     | del OID | name NAME OID
   VALUE uses the persistence syntax: null, int:7, str:"x", ref:3, ... *)
let db_append_cmd dir ops =
  with_db dir (fun db ->
      let store = Durability.Db.store db in
      let parse_oid s =
        match int_of_string_opt s with
        | Some i -> Gom.Oid.of_int i
        | None -> exit_usage (Printf.sprintf "bad object id %S" s)
      in
      let parse_value s =
        try Gom.Serial.value_of_string ~line:0 s
        with Gom.Serial.Corrupt m -> exit_usage (Printf.sprintf "bad value %S: %s" s m)
      in
      (* Syntax (op shape, oids, values) is checked before the
         transaction starts: a typo must exit cleanly, not leave an
         uncommitted begin..tail in the write-ahead log. *)
      let compile op =
        match String.split_on_char ' ' op |> List.filter (fun s -> s <> "") with
        | [ "new"; ty ] ->
          fun () ->
            let oid = Gom.Store.new_object store ty in
            Format.printf "new %s -> %d@." ty (Gom.Oid.to_int oid)
        | "set" :: oid :: attr :: rest when rest <> [] ->
          let oid = parse_oid oid and v = parse_value (String.concat " " rest) in
          fun () -> Gom.Store.set_attr store oid attr v
        | "ins" :: oid :: rest when rest <> [] ->
          let oid = parse_oid oid and v = parse_value (String.concat " " rest) in
          fun () -> Gom.Store.insert_elem store oid v
        | "rem" :: oid :: rest when rest <> [] ->
          let oid = parse_oid oid and v = parse_value (String.concat " " rest) in
          fun () -> Gom.Store.remove_elem store oid v
        | [ "del"; oid ] ->
          let oid = parse_oid oid in
          fun () -> Gom.Store.delete store oid
        | [ "name"; name; oid ] ->
          let oid = parse_oid oid in
          fun () -> Durability.Db.bind_name db name oid
        | _ -> exit_usage (Printf.sprintf "bad operation %S" op)
      in
      let compiled = List.map compile ops in
      (match Gom.Txn.with_txn store (fun () -> List.iter (fun f -> f ()) compiled) with
      | Ok () -> Format.printf "committed %d operation(s)@." (List.length ops)
      | Error (Gom.Store.Type_error m) -> exit_data ("type error (rolled back): " ^ m)
      | Error e -> exit_data ("operation failed (rolled back): " ^ Printexc.to_string e));
      0)

let db_flush_cmd dir policy_s =
  with_db dir (fun db ->
      (match policy_s with
      | Some s -> Durability.Db.set_flush_policy db (parse_flush_policy s)
      | None -> ());
      let n = Durability.Db.flush_maintenance db in
      Format.printf "flushed %d net delta(s) (%s policy)@." n
        (Core.Maintenance.policy_to_string (Durability.Db.flush_policy db));
      0)

let db_status_cmd dir =
  if Sys.file_exists (Shard.Durable.shards_file dir) then db_shard_status dir
  else with_db dir (fun db ->
      db_status db;
      0)

let db_checkpoint_cmd dir =
  with_db dir (fun db ->
      Durability.Db.checkpoint db;
      Format.printf "checkpointed as generation %d@." (Durability.Db.generation db);
      0)

let db_recover_cmd dir =
  with_db dir (fun db ->
      (match Durability.Db.last_recovery db with
      | Some r ->
        print_recovery r;
        if not (Durability.Db.verified r) then
          exit_data "RECOVERY VERIFICATION FAILED"
      | None -> ());
      db_status db;
      0)

let db_index_cmd dir kind_s path dec =
  with_db dir (fun db ->
      let kind =
        match Core.Extension.of_name kind_s with
        | Some k -> k
        | None -> exit_usage (Printf.sprintf "unknown extension %S" kind_s)
      in
      match Durability.Db.register_asr db ~path ~kind ?dec () with
      | exception Durability.Db.Db_error m -> exit_usage m
      | a ->
        Format.printf "materialised %d tuples over %d partitions@."
          (Core.Asr.cardinal a) (Core.Asr.partition_count a);
        0)

(* ---------------- integrity commands ---------------- *)

let scrub_artifact db reports =
  let stats = Core.Maintenance.stats (Durability.Db.maintenance db) in
  Printf.sprintf
    "{\"dir\": %S, \"generation\": %d, \"clean\": %b, \"reports\": [%s], \"stats\": %s}"
    (Durability.Db.dir db)
    (Durability.Db.generation db)
    (List.for_all Integrity.Scrub.clean reports)
    (String.concat ", " (List.map Integrity.Scrub.report_to_json reports))
    (Storage.Stats.summary_to_json (Storage.Stats.snapshot stats))

let write_file file contents =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc contents;
      output_char oc '\n')

let db_doctor_cmd dir sample json =
  (match sample with
  | Some k when k < 1 -> exit_usage "--sample must be >= 1"
  | _ -> ());
  with_db dir (fun db ->
      let stats = Core.Maintenance.stats (Durability.Db.maintenance db) in
      let reports =
        List.map
          (fun a -> Integrity.Scrub.run ?sample ~stats a)
          (Durability.Db.asrs db)
      in
      if reports = [] then Format.printf "no access support relations registered@.";
      List.iter (fun r -> print_string (Integrity.Scrub.report_to_string r)) reports;
      (match json with
      | Some file ->
        write_file file (scrub_artifact db reports);
        Format.printf "wrote %s@." file
      | None -> ());
      if List.for_all Integrity.Scrub.clean reports then 0
      else exit_data "SCRUB FOUND DIVERGENCE - try `asr_cli db repair'")

let db_repair_cmd dir json =
  with_db dir (fun db ->
      let stats = Core.Maintenance.stats (Durability.Db.maintenance db) in
      let registry = Integrity.Quarantine.create () in
      let failed = ref [] in
      List.iter
        (fun a ->
          let name = Gom.Path.to_string (Core.Asr.path a) in
          let report = Integrity.Scrub.run ~stats a in
          if Integrity.Scrub.clean report then
            Format.printf "%-40s clean, nothing to repair@." name
          else begin
            let parts = Integrity.Quarantine.apply_report registry a report in
            Format.printf "%-40s quarantined partition(s) %s@." name
              (String.concat "," (List.map string_of_int parts));
            let outcome = Integrity.Repair.run ~registry ~stats a in
            Format.printf "%-40s %s@." name
              (Integrity.Repair.outcome_to_string outcome);
            match outcome with
            | Integrity.Repair.Repaired _ -> ()
            | Integrity.Repair.Failed _ -> failed := name :: !failed
          end)
        (Durability.Db.asrs db);
      (match json with
      | Some file ->
        let reports =
          List.map (fun a -> Integrity.Scrub.run ~stats a) (Durability.Db.asrs db)
        in
        write_file file (scrub_artifact db reports);
        Format.printf "wrote %s@." file
      | None -> ());
      if !failed = [] then 0
      else
        exit_data
          (Printf.sprintf "REPAIR FAILED for: %s (still quarantined)"
             (String.concat ", " (List.rev !failed))))

(* ---------------- replication commands ---------------- *)

let db_replica_cmd dir follow frame_bytes digest_every chaos kill_after =
  if frame_bytes < 1 then exit_usage "--frame-bytes must be >= 1";
  if not (Sys.file_exists (Filename.concat follow "MANIFEST")) then
    exit_usage (Printf.sprintf "%s holds no durable base to follow" follow);
  with_db follow (fun pdb ->
      let stats = Storage.Stats.create () in
      let fault =
        match chaos with
        | Some seed ->
          Format.printf "chaos seed %d (reproduce with --chaos %d)@." seed seed;
          Some
            (Durability.Fault.faulty_channel
               (Replication.Channel.chaos ~seed ~upto:100_000))
        | None -> None
      in
      let channel = Replication.Channel.create ?fault ~stats () in
      let primary = Replication.Primary.create ~frame_bytes ~digest_every pdb in
      let replica =
        match Replication.Replica.create ~stats ~dir () with
        | exception Replication.Replica.Replica_error m -> exit_data m
        | r -> r
      in
      Fun.protect
        ~finally:(fun () -> Replication.Replica.close replica)
        (fun () ->
          let session =
            Replication.Session.create ~stats ?stop_after_sends:kill_after
              ~primary ~channel ~replica ()
          in
          (match Replication.Session.drain session with
          | exception Replication.Session.Stalled m -> exit_data m
          | exception Replication.Primary.Replication_error m -> exit_data m
          | steps -> Format.printf "quiescent after %d pump round(s)@." steps);
          let s = Storage.Stats.snapshot stats in
          Format.printf
            "frames: %d shipped, %d applied, %d dropped, %d retried@."
            Storage.Stats.(summary_count s Frames_shipped)
            Storage.Stats.(summary_count s Frames_applied)
            Storage.Stats.(summary_count s Frames_dropped)
            Storage.Stats.(summary_count s Frames_retried);
          Format.printf
            "replica: generation %d, %d/%d bytes applied (lag %d), %d \
             record(s), %d epoch(s) published@."
            (Replication.Replica.generation replica)
            (Replication.Replica.applied_bytes replica)
            (Replication.Primary.committed_bytes primary)
            (Replication.Replica.lag_bytes replica)
            (Replication.Replica.applied_records replica)
            (Replication.Replica.epochs replica);
          (match kill_after with
          | Some k ->
            Format.printf
              "primary killed after frame %d; promote with: asr_cli db promote \
               %s --primary %s@."
              k dir follow
          | None -> ());
          match Replication.Replica.diverged replica with
          | Some what -> exit_data ("REPLICA DIVERGED - " ^ what)
          | None -> 0))

let db_promote_cmd dir primary json =
  let finish report code =
    print_string (Replication.Failover.report_to_string report);
    (match json with
    | Some file ->
      write_file file (Replication.Failover.report_to_json report);
      Format.printf "wrote %s@." file
    | None -> ());
    code
  in
  match Replication.Failover.promote ?primary_dir:primary ~dir () with
  | exception Replication.Replica.Replica_error m -> exit_usage m
  | exception Durability.Db.Recovery_error m -> exit_data ("recovery failed: " ^ m)
  | exception Gom.Serial.Corrupt m -> exit_data ("corrupt image: " ^ m)
  | Ok (db, report) ->
    Fun.protect
      ~finally:(fun () -> Durability.Db.close db)
      (fun () -> finish report 0)
  | Error report ->
    ignore (finish report 1);
    exit_data "PROMOTION REFUSED - divergence against the primary's history"

(* ---------------- cmdliner wiring ---------------- *)

open Cmdliner

let list_t = Term.(const list_cmd $ const ())

let experiment_t =
  let id =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Experiment id, or $(b,all).")
  in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of a table.") in
  Term.(const experiment_cmd $ id $ csv)

let advise_t =
  let profile =
    Arg.(value & opt string "storage" & info [ "profile" ] ~docv:"NAME"
           ~doc:"Application profile: $(b,storage) or $(b,query).")
  in
  let p_up =
    Arg.(value & opt float 0.2 & info [ "pup" ] ~docv:"P" ~doc:"Update probability.")
  in
  let queries =
    Arg.(value & opt_all string [] & info [ "query" ] ~docv:"I,J,KIND,W"
           ~doc:"Weighted query, e.g. $(b,0,4,bw,0.5); repeatable.")
  in
  let updates =
    Arg.(value & opt_all string [] & info [ "ins" ] ~docv:"POS,W"
           ~doc:"Weighted insert update, e.g. $(b,3,1.0); repeatable.")
  in
  let top =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"Designs to display.")
  in
  Term.(const advise_cmd $ profile $ p_up $ queries $ updates $ top)

let flush_policy_arg =
  Arg.(value & opt (some string) None & info [ "flush-policy" ] ~docv:"POLICY"
         ~doc:"Deferred index maintenance: buffer tree writes as deltas and \
               apply them in batched one-pass flushes.  $(docv) is \
               $(b,immediate), $(b,every:K) (flush each K store events), \
               $(b,bytes:N) (flush at N buffered bytes) or $(b,onquery) \
               (only the engine's freshness watermark catches up).  Answers \
               are exact under every policy.")

let query_t =
  let base =
    Arg.(value & opt string "company" & info [ "base" ] ~docv:"NAME"
           ~doc:"Demo base: $(b,robots) or $(b,company).")
  in
  let file =
    Arg.(value & opt (some string) None & info [ "file" ] ~docv:"FILE"
           ~doc:"Load the object base from a file written by $(b,dump) instead.")
  in
  let path =
    Arg.(value & opt (some string) None & info [ "path" ] ~docv:"T0.A1...."
           ~doc:"Path expression to index (defaults to the demo base's path).")
  in
  let index =
    Arg.(value & opt (some string) None & info [ "index" ] ~docv:"EXT[:DEC]"
           ~doc:"Create an access support relation over the path, e.g. \
                 $(b,full:0,3,5) or $(b,can).")
  in
  let batch =
    Arg.(value & flag & info [ "batch" ]
           ~doc:"Run all queries through one shared engine, print one line per \
                 query plus the plan-cache and page-access summary as JSON \
                 (repeated query shapes hit the plan cache).")
  in
  let jobs =
    Arg.(value & opt int 1 & info [ "jobs" ] ~docv:"N"
           ~doc:"Evaluate the queries on $(docv) domains through the shared \
                 engine (one private accounting sheaf per query, merged into \
                 the $(b,--batch) summary).  Results print in input order \
                 regardless of $(docv).")
  in
  let shards =
    Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N"
           ~doc:"Split the base into $(docv) shards (hash placement on the \
                 clustering column; any $(b,--index) materialises as one \
                 owner-filtered fragment per shard) and answer each query by \
                 scatter-gather: every shard evaluates it over its replica \
                 and the merged rows equal the unsharded answer exactly.")
  in
  let texts =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"QUERY"
           ~doc:"GOM-SQL text; repeatable.")
  in
  let buffer_pages =
    Arg.(value & opt int 0 & info [ "buffer-pages" ] ~docv:"N"
           ~doc:"Attach an $(docv)-page buffer pool between the executor \
                 and the pager: repeated page reads within the pool's \
                 capacity become cache hits (no physical I/O), and the \
                 report splits logical from physical page counts.  \
                 0 (the default) keeps the unbuffered accounting.")
  in
  Term.(
    const query_cmd $ base $ file $ path $ index $ flush_policy_arg $ batch $ jobs
    $ shards $ buffer_pages $ texts)

let serve_t =
  let base =
    Arg.(value & opt string "company" & info [ "base" ] ~docv:"NAME"
           ~doc:"Demo base: $(b,robots) or $(b,company).")
  in
  let file =
    Arg.(value & opt (some string) None & info [ "file" ] ~docv:"FILE"
           ~doc:"Load the object base from a file written by $(b,dump) instead.")
  in
  let path =
    Arg.(value & opt (some string) None & info [ "path" ] ~docv:"T0.A1...."
           ~doc:"Path expression the workload ranges over (defaults to the \
                 demo base's path).")
  in
  let index =
    Arg.(value & opt (some string) None & info [ "index" ] ~docv:"EXT[:DEC]"
           ~doc:"Rebuild this access support relation on every published \
                 snapshot, e.g. $(b,full:0,3,5) or $(b,can).")
  in
  let jobs =
    Arg.(value & opt int 1 & info [ "jobs" ] ~docv:"N"
           ~doc:"Executor domains in the server's pool.")
  in
  let repeat =
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"K"
           ~doc:"Serve the whole workload $(docv) times (throughput timing).")
  in
  let workload =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD"
           ~doc:"Workload file: one probe batch per line, $(b,fw I J K) or \
                 $(b,bw I J K) — evaluate Q^(I,J) over the first K extent \
                 members.  $(b,#) comments and blank lines are skipped.")
  in
  let max_queue =
    Arg.(value & opt (some int) None & info [ "max-queue" ] ~docv:"N"
           ~doc:"Admission-controlled serving: bound the dispatch queue at \
                 $(docv) entries; overflow is shed per $(b,--shed-policy). \
                 Setting any of the three overload flags enables the \
                 resilience front.")
  in
  let deadline_ms =
    Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Per-query cancellation budget: a query that exceeds $(docv) \
                 milliseconds (queued or running) resolves to a typed \
                 timeout, never a partial answer.")
  in
  let shed_policy =
    Arg.(value & opt (some string) None & info [ "shed-policy" ] ~docv:"POLICY"
           ~doc:"Overflow policy: $(b,newest), $(b,oldest) or $(b,deadline) \
                 (evict the entry with the least remaining budget).")
  in
  let buffer_pages =
    Arg.(value & opt int 0 & info [ "buffer-pages" ] ~docv:"N"
           ~doc:"Give every worker domain a private $(docv)-page buffer \
                 pool; the merged accounting then reports the cumulative \
                 hit ratio, misses and evictions across workers.  \
                 0 (the default) serves unbuffered.")
  in
  Term.(
    const serve_cmd $ base $ file $ path $ index $ flush_policy_arg $ jobs
    $ buffer_pages $ workload $ repeat $ max_queue $ deadline_ms $ shed_policy)

let explain_t =
  let base =
    Arg.(value & opt string "company" & info [ "base" ] ~docv:"NAME"
           ~doc:"Demo base: $(b,robots) or $(b,company).")
  in
  let file =
    Arg.(value & opt (some string) None & info [ "file" ] ~docv:"FILE"
           ~doc:"Load the object base from a file written by $(b,dump) instead.")
  in
  let path =
    Arg.(value & opt (some string) None & info [ "path" ] ~docv:"T0.A1...."
           ~doc:"Path expression to index (defaults to the demo base's path).")
  in
  let index =
    Arg.(value & opt (some string) None & info [ "index" ] ~docv:"EXT[:DEC]"
           ~doc:"Create an access support relation over the path, e.g. \
                 $(b,full:0,3,5) or $(b,can).")
  in
  let text =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc:"GOM-SQL text.")
  in
  Term.(const explain_cmd $ base $ file $ path $ index $ text)

let repl_t =
  let base =
    Arg.(value & opt string "company" & info [ "base" ] ~docv:"NAME"
           ~doc:"Demo base: $(b,robots) or $(b,company).")
  in
  let file =
    Arg.(value & opt (some string) None & info [ "file" ] ~docv:"FILE"
           ~doc:"Load the object base from a file written by $(b,dump) instead.")
  in
  let path =
    Arg.(value & opt (some string) None & info [ "path" ] ~docv:"T0.A1...."
           ~doc:"Path expression to index.")
  in
  let index =
    Arg.(value & opt (some string) None & info [ "index" ] ~docv:"EXT[:DEC]"
           ~doc:"Create an access support relation over the path.")
  in
  Term.(const repl_cmd $ base $ file $ path $ index)

let auto_t =
  let base =
    Arg.(value & opt string "company" & info [ "base" ] ~docv:"NAME"
           ~doc:"Demo base: $(b,robots) or $(b,company).")
  in
  let file =
    Arg.(value & opt (some string) None & info [ "file" ] ~docv:"FILE"
           ~doc:"Load the object base from a file instead.")
  in
  let path =
    Arg.(value & opt (some string) None & info [ "path" ] ~docv:"T0.A1...."
           ~doc:"Path expression to design for.")
  in
  let p_up =
    Arg.(value & opt float 0.2 & info [ "pup" ] ~docv:"P" ~doc:"Update probability.")
  in
  let queries =
    Arg.(value & opt_all string [] & info [ "query" ] ~docv:"I,J,KIND,W"
           ~doc:"Weighted query; repeatable.")
  in
  let updates =
    Arg.(value & opt_all string [] & info [ "ins" ] ~docv:"POS,W"
           ~doc:"Weighted insert update; repeatable.")
  in
  Term.(const auto_cmd $ base $ file $ path $ p_up $ queries $ updates)

let dump_t =
  let base =
    Arg.(value & opt string "company" & info [ "base" ] ~docv:"NAME"
           ~doc:"Demo base: $(b,robots) or $(b,company).")
  in
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Output file.")
  in
  Term.(const dump_cmd $ base $ file)

let db_dir =
  Arg.(required & opt (some string) None & info [ "dir" ] ~docv:"DIR"
         ~doc:"Directory of the durable base.")

let db_open_t =
  let base =
    Arg.(value & opt string "company" & info [ "base" ] ~docv:"NAME"
           ~doc:"Demo base to initialise from if $(docv) is empty.")
  in
  let shards =
    Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N"
           ~doc:"Initialise an empty directory as a $(docv)-shard durable \
                 base: one write-ahead-logged Db (shard 0) plus a cross-shard \
                 manifest; the other shards are in-memory replicas seeded \
                 from it at every open.  The other $(b,db) commands work on \
                 the Db directly.")
  in
  Term.(const db_open_cmd $ db_dir $ base $ shards)

let db_append_t =
  let ops =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"OP"
           ~doc:"Mutations, e.g. $(b,'new ROBOT'), $(b,'set 3 Name str:\"Z3\"'), \
                 $(b,'ins 5 ref:3'), $(b,'del 7'), $(b,'name Root 3'); all applied \
                 in one transaction.")
  in
  Term.(const db_append_cmd $ db_dir $ ops)

let db_flush_t =
  let policy =
    Arg.(value & opt (some string) None & info [ "set-policy" ] ~docv:"POLICY"
           ~doc:"Switch the maintenance flush policy first: $(b,immediate), \
                 $(b,every:K), $(b,bytes:N) or $(b,onquery).")
  in
  Term.(const db_flush_cmd $ db_dir $ policy)

let db_status_t = Term.(const db_status_cmd $ db_dir)
let db_checkpoint_t = Term.(const db_checkpoint_cmd $ db_dir)
let db_recover_t = Term.(const db_recover_cmd $ db_dir)

let db_index_t =
  let kind =
    Arg.(value & opt string "full" & info [ "kind" ] ~docv:"EXT"
           ~doc:"Extension: $(b,can), $(b,full), $(b,left) or $(b,right).")
  in
  let path =
    Arg.(required & opt (some string) None & info [ "path" ] ~docv:"T0.A1...."
           ~doc:"Path expression to index.")
  in
  let dec =
    Arg.(value & opt (some string) None & info [ "dec" ] ~docv:"B0,B1,..."
           ~doc:"Decomposition boundaries (default: binary).")
  in
  Term.(const db_index_cmd $ db_dir $ kind $ path $ dec)

let db_doctor_t =
  let sample =
    Arg.(value & opt (some int) None & info [ "sample" ] ~docv:"K"
           ~doc:"Audit a deterministic 1-in-$(docv) sample of source objects \
                 instead of the full extension.")
  in
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Write a machine-readable scrub report (reports + counters).")
  in
  Term.(const db_doctor_cmd $ db_dir $ sample $ json)

let db_repair_t =
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Write a machine-readable post-repair scrub report.")
  in
  Term.(const db_repair_cmd $ db_dir $ json)

let db_replica_t =
  let dir =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
           ~doc:"Replica directory (fresh, or resuming a previous follow).")
  in
  let follow =
    Arg.(required & opt (some string) None & info [ "follow" ] ~docv:"PRIMARY"
           ~doc:"Directory of the durable base to replicate.")
  in
  let frame_bytes =
    Arg.(value & opt int 4096 & info [ "frame-bytes" ] ~docv:"N"
           ~doc:"Cap each shipped log slice at $(docv) bytes.")
  in
  let digest_every =
    Arg.(value & opt int 8 & info [ "digest-every" ] ~docv:"K"
           ~doc:"Ship a store+relation digest frame every $(docv) data frames \
                 (0 disables catch-up digests).")
  in
  let chaos =
    Arg.(value & opt (some int) None & info [ "chaos" ] ~docv:"SEED"
           ~doc:"Inject seeded random channel faults (drops, duplicates, \
                 reorders, corruption, partitions); the run replays exactly \
                 from the printed seed.")
  in
  let kill_after =
    Arg.(value & opt (some int) None & info [ "kill-after-frames" ] ~docv:"K"
           ~doc:"Kill the primary after its $(docv)'th shipped frame — frames \
                 already in flight may still deliver — leaving the replica \
                 ready for $(b,db promote).")
  in
  Term.(
    const db_replica_cmd $ dir $ follow $ frame_bytes $ digest_every $ chaos
    $ kill_after)

let db_promote_t =
  let dir =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
           ~doc:"Replica directory to promote.")
  in
  let primary =
    Arg.(value & opt (some string) None & info [ "primary" ] ~docv:"DIR"
           ~doc:"The dead primary's directory: verify the replica's log is a \
                 byte prefix of its history and digest-compare the promoted \
                 store and every relation against its snapshot+prefix replay.")
  in
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the machine-readable promotion report.")
  in
  Term.(const db_promote_cmd $ dir $ primary $ json)

let db_cmd =
  Cmd.group
    (Cmd.info "db"
       ~doc:"Operate a durable object base (write-ahead log + snapshots + recovery).")
    [
      Cmd.v
        (Cmd.info "open"
           ~doc:"Open (recovering if needed) or initialise a durable base and show \
                 its status.")
        db_open_t;
      Cmd.v
        (Cmd.info "append"
           ~doc:"Apply mutations in one write-ahead-logged transaction.")
        db_append_t;
      Cmd.v
        (Cmd.info "flush"
           ~doc:"Drain every registered relation's deferred-maintenance deltas \
                 into its partition trees, framed in the write-ahead log as one \
                 atomic flush group.")
        db_flush_t;
      Cmd.v
        (Cmd.info "status"
           ~doc:"Print the base's generation, object/relation counts, flush \
                 policy and per-relation pending-delta depth.")
        db_status_t;
      Cmd.v
        (Cmd.info "checkpoint"
           ~doc:"Snapshot the base atomically and rotate the write-ahead log.")
        db_checkpoint_t;
      Cmd.v
        (Cmd.info "recover"
           ~doc:"Recover, print the recovery report, and verify every registered \
                 access support relation against a from-scratch build.")
        db_recover_t;
      Cmd.v
        (Cmd.info "index"
           ~doc:"Register a maintained, recovery-verified access support relation.")
        db_index_t;
      Cmd.v
        (Cmd.info "doctor"
           ~doc:"Scrub every registered access support relation against the object \
                 graph; exit 1 on any divergence.")
        db_doctor_t;
      Cmd.v
        (Cmd.info "repair"
           ~doc:"Scrub, quarantine diverged partitions, patch every partition to \
                 the object graph, re-verify and lift the quarantine.")
        db_repair_t;
      Cmd.v
        (Cmd.info "replica"
           ~doc:"Tail a primary's write-ahead log into a hot standby: catch up \
                 over a (optionally fault-injected) channel, verify shipped \
                 digests, and report lag and frame accounting.")
        db_replica_t;
      Cmd.v
        (Cmd.info "promote"
           ~doc:"Promote a replica to primary: recover its files like a crashed \
                 base, scrub every relation, and (with $(b,--primary)) fail on \
                 any byte- or digest-located divergence from the dead \
                 primary's history.")
        db_promote_t;
    ]

let cmds =
  [
    db_cmd;
    Cmd.v (Cmd.info "list" ~doc:"List the paper's experiments.") list_t;
    Cmd.v (Cmd.info "experiment" ~doc:"Regenerate a figure's data series.") experiment_t;
    Cmd.v (Cmd.info "advise" ~doc:"Rank physical designs for an operation mix.") advise_t;
    Cmd.v (Cmd.info "query" ~doc:"Run a GOM-SQL query against a demo or saved base.") query_t;
    Cmd.v
      (Cmd.info "serve"
         ~doc:"Serve a probe-batch workload from snapshot-isolated domains \
               and report throughput.")
      serve_t;
    Cmd.v
      (Cmd.info "explain"
         ~doc:"Show the engine's chosen physical plan, its cost estimate, every \
               considered alternative, and the measured page accesses.")
      explain_t;
    Cmd.v (Cmd.info "dump" ~doc:"Persist a demo base to a file.") dump_t;
    Cmd.v (Cmd.info "repl" ~doc:"Interactive GOM-SQL shell.") repl_t;
    Cmd.v
      (Cmd.info "auto"
         ~doc:"Measure a base's profile and materialise the advisor's winning design.")
      auto_t;
  ]

let () =
  let doc = "Access support relations for object bases (Kemper & Moerkotte, SIGMOD 1990)" in
  (* Last-resort exception net, for data failures that surface outside a
     [with_db] scope: known data errors exit 1 like everywhere else,
     anything truly unexpected exits 125 so scripts can tell a crash
     from a diagnosis. *)
  let code =
    (* A command line cmdliner cannot parse is a usage error: exit 2, not
       cmdliner's own 124. *)
    try
      match Cmd.eval' (Cmd.group (Cmd.info "asr_cli" ~doc) cmds) with
      | c when c = Cmd.Exit.cli_error -> 2
      | c -> c
    with
    | Durability.Db.Db_error m -> prerr_endline m; 1
    | Durability.Db.Recovery_error m ->
      prerr_endline ("recovery failed: " ^ m); 1
    | Gom.Serial.Corrupt m -> prerr_endline ("corrupt image: " ^ m); 1
    | Durability.Fault.Retryable m ->
      prerr_endline ("transient failure persisted: " ^ m); 1
    | e -> prerr_endline ("unexpected error: " ^ Printexc.to_string e); 125
  in
  exit code
