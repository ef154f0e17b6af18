type publish_info = {
  publishes : int;  (* epochs published since creation (incl. the first) *)
  last_latency_s : float;
  total_latency_s : float;
  last_copied : int;
  last_shared : int;
}

type t = {
  base : Gom.Store.t;
  source : Snapshot.source;
      (* the publication side: shared engine, shared ASRs, event tap and
         the previous epoch's frozen image — advancing it applies only
         the event suffix (CoW), never a deep copy *)
  pool : Pool.t;
  jobs : int;
  writer : Mutex.t;  (* serialises update/refresh and snapshot publication *)
  current : Snapshot.t Atomic.t;
  pub : publish_info Atomic.t;
      (* single-writer telemetry (updated under [writer]); atomic so
         [publish_info] reads never tear *)
  accountant : Storage.Stats.t;  (* cumulative, merged from worker sheaves *)
  acc_lock : Mutex.t;
  buffer_pages : int;  (* per-worker buffer pool size; 0 = unbuffered *)
}

let create ?(jobs = 1) ?(buffer_pages = 0) ?(sizes = fun _ -> 100) ?maintenance ~specs
    base =
  let jobs = max 1 jobs in
  let source = Snapshot.source ~sizes ?maintenance ~specs base in
  let t0 = Unix.gettimeofday () in
  let snap = Snapshot.advance source in
  let dt = Unix.gettimeofday () -. t0 in
  {
    base;
    source;
    pool = Pool.create ~jobs;
    jobs;
    writer = Mutex.create ();
    current = Atomic.make snap;
    pub =
      Atomic.make
        {
          publishes = 1;
          last_latency_s = dt;
          total_latency_s = dt;
          last_copied = Snapshot.copied snap;
          last_shared = Snapshot.shared snap;
        };
    accountant =
      (* Mirror the workers' pool size so the merged accountant's JSON
         reports the serving configuration's capacity. *)
      (if buffer_pages > 0 then Storage.Stats.create ~buffer_capacity:buffer_pages ()
       else Storage.Stats.create ());
    acc_lock = Mutex.create ();
    buffer_pages = max 0 buffer_pages;
  }

let jobs t = t.jobs
let pin t = Atomic.get t.current
let epoch t = Snapshot.epoch (pin t)
let publish_info t = Atomic.get t.pub

let publish t =
  (* Called under the writer mutex.  [Snapshot.advance] drains pending
     deferred deltas first, so "published epoch" stays synonymous with
     "no pending deltas anywhere"; the image itself is advanced by the
     event suffix — cost proportional to what the writer touched, not to
     the store. *)
  let t0 = Unix.gettimeofday () in
  let snap = Snapshot.advance t.source in
  Atomic.set t.current snap;
  let dt = Unix.gettimeofday () -. t0 in
  let p = Atomic.get t.pub in
  Atomic.set t.pub
    {
      publishes = p.publishes + 1;
      last_latency_s = dt;
      total_latency_s = p.total_latency_s +. dt;
      last_copied = Snapshot.copied snap;
      last_shared = Snapshot.shared snap;
    }

(* After [shutdown] nothing follows the base: a write would leave the
   indexes behind it and never be published. *)
let check_open t name =
  if Snapshot.source_closed t.source then invalid_arg (name ^ ": server shut down")

let update ?publish:(want_publish = true) t f =
  check_open t "Server.update";
  Mutex.protect t.writer (fun () ->
      let r = f t.base in
      if
        want_publish
        && Gom.Store.epoch t.base <> Snapshot.epoch (Atomic.get t.current)
      then publish t;
      r)

let refresh t =
  check_open t "Server.refresh";
  Mutex.protect t.writer (fun () -> publish t)

let lag t =
  Mutex.protect t.writer (fun () ->
      Gom.Store.epoch t.base - Snapshot.epoch (Atomic.get t.current))

(* Split [xs] into at most [k] contiguous chunks of near-equal length.
   Contiguity is what keeps the merge deterministic: over a sorted probe
   list, concatenating sorted chunk answers in chunk order rebuilds the
   one globally sorted answer, whatever [k] was. *)
let chunk k xs =
  let n = List.length xs in
  if n = 0 then []
  else begin
    let k = max 1 (min k n) in
    let size = (n + k - 1) / k in
    let rec split acc xs =
      match xs with
      | [] -> List.rev acc
      | _ ->
        let rec take i tl acc' =
          if i = 0 then (List.rev acc', tl)
          else match tl with [] -> (List.rev acc', []) | x :: tl -> take (i - 1) tl (x :: acc')
        in
        let c, rest = take size xs [] in
        split (c :: acc) rest
    in
    split [] xs
  end

let absorb t summaries =
  let merged = List.fold_left Storage.Stats.merge Storage.Stats.zero summaries in
  Mutex.protect t.acc_lock (fun () -> Storage.Stats.absorb t.accountant merged)

let fan ?snapshot t probes run =
  let snap = match snapshot with Some s -> s | None -> pin t in
  let parts =
    Pool.run_all t.pool
      (List.map
         (fun c () ->
           let env = Snapshot.env ~buffer_pages:t.buffer_pages snap in
           let res = run snap env c in
           (res, Storage.Stats.snapshot env.Core.Exec.stats))
         (chunk t.jobs probes))
  in
  absorb t (List.map snd parts);
  List.concat_map fst parts

let forward_batch ?snapshot t path ~i ~j oids =
  let probes = List.sort_uniq Gom.Oid.compare oids in
  fan ?snapshot t probes (fun snap env c ->
      Engine.forward_batch ~env (Snapshot.engine snap) path ~i ~j c)

let backward_batch ?snapshot t path ~i ~j ~targets =
  let probes = List.sort_uniq Gom.Value.compare targets in
  fan ?snapshot t probes (fun snap env c ->
      Engine.backward_batch ~env (Snapshot.engine snap) path ~i ~j ~targets:c)

type query =
  | Forward of { q_path : Gom.Path.t; q_i : int; q_j : int; q_sources : Gom.Oid.t list }
  | Backward of { q_path : Gom.Path.t; q_i : int; q_j : int; q_targets : Gom.Value.t list }

type answer =
  | Forward_answer of (Gom.Oid.t * Gom.Value.t list) list
  | Backward_answer of (Gom.Value.t * Gom.Oid.t list) list

let serve ?snapshot t queries =
  let qs = Array.of_list queries in
  let run_one snap env = function
    | Forward { q_path; q_i; q_j; q_sources } ->
      Forward_answer
        (Engine.forward_batch ~env (Snapshot.engine snap) q_path ~i:q_i ~j:q_j q_sources)
    | Backward { q_path; q_i; q_j; q_targets } ->
      Backward_answer
        (Engine.backward_batch ~env (Snapshot.engine snap) q_path ~i:q_i ~j:q_j
           ~targets:q_targets)
  in
  let indexed =
    fan ?snapshot t
      (List.init (Array.length qs) Fun.id)
      (fun snap env c -> List.map (fun k -> (k, run_one snap env qs.(k))) c)
  in
  let out = Array.make (Array.length qs) None in
  List.iter (fun (k, a) -> out.(k) <- Some a) indexed;
  Array.to_list
    (Array.map (function Some a -> a | None -> assert false (* fan covers every index *)) out)

type served = Answered of answer | Timed_out | Failed of string

(* Deadline- and exception-safe serving.  Each query gets its own
   environment (so a budget belongs to exactly one query) and its own
   typed outcome: an expired budget surfaces as [Timed_out] (counted on
   the query's sheaf, hence in the merged accountant), any other raise
   as [Failed] — and via [Pool.run_all_results] even a whole lost chunk
   degrades to per-query [Failed]s instead of poisoning the batch or a
   worker domain.  Admitted answers remain byte-identical to [serve]'s:
   cancellation checkpoints only ever fire between whole evaluation
   steps, and chunking/merging is unchanged. *)
let serve_deadlined ?snapshot t entries =
  let qs = Array.of_list entries in
  let snap = match snapshot with Some s -> s | None -> pin t in
  let run_one k =
    let query, deadline = qs.(k) in
    let env = Snapshot.env ~buffer_pages:t.buffer_pages ~deadline snap in
    let outcome =
      try
        Answered
          (match query with
          | Forward { q_path; q_i; q_j; q_sources } ->
            Forward_answer
              (Engine.forward_batch ~env (Snapshot.engine snap) q_path ~i:q_i ~j:q_j
                 q_sources)
          | Backward { q_path; q_i; q_j; q_targets } ->
            Backward_answer
              (Engine.backward_batch ~env (Snapshot.engine snap) q_path ~i:q_i ~j:q_j
                 ~targets:q_targets))
      with
      | Core.Deadline.Expired ->
        Storage.Stats.(incr env.Core.Exec.stats Timed_out);
        Timed_out
      | e -> Failed (Printexc.to_string e)
    in
    (outcome, Storage.Stats.snapshot env.Core.Exec.stats)
  in
  let chunks = chunk t.jobs (List.init (Array.length qs) Fun.id) in
  let parts =
    Pool.run_all_results t.pool
      (List.map (fun c () -> List.map (fun k -> (k, run_one k)) c) chunks)
  in
  let out = Array.make (Array.length qs) (Failed "chunk lost") in
  let sheaves = ref [] in
  List.iter2
    (fun c part ->
      match part with
      | Ok items ->
        List.iter
          (fun (k, (o, sheaf)) ->
            out.(k) <- o;
            sheaves := sheaf :: !sheaves)
          items
      | Error e ->
        (* run_one catches everything, so this arm is unreachable today;
           it still closes the contract for any future task wrapper. *)
        List.iter (fun k -> out.(k) <- Failed (Printexc.to_string e)) c)
    chunks parts;
  absorb t !sheaves;
  Array.to_list out

let stats t = Mutex.protect t.acc_lock (fun () -> Storage.Stats.snapshot t.accountant)
let shutdown t =
  Pool.shutdown t.pool;
  Snapshot.close_source t.source
