[@@@alert "-legacy"]
(* Store.copy is exactly what replica construction wants: a whole-base
   writer-side clone each shard then mutates through the fan-out. *)

type t = {
  placement : Placement.t;
  n : int;
  stores : Gom.Store.t array;
  envs : Core.Exec.env array;
  engines : Engine.t array;
  managers : Core.Maintenance.t array;
  quarantines : Integrity.Quarantine.t array;
  pool : Parallel.Pool.t;
  jobs : int;
  router_stats : Storage.Stats.t;
  mutable specs : (Gom.Path.t * Core.Extension.kind * Core.Decomposition.t) list;
  asrs : Core.Asr.t list array;  (* mutated in place, per shard *)
  fanout : Gom.Store.subscription option;
  heaps : Storage.Heap.t list;  (* the ones the group laid out, closed with it *)
  mutable closed : bool;
}

(* Replicas converge by replaying each primary event's log image
   through the regular store mutators, so replica listeners — each
   shard's maintenance manager and engine generation bump — observe
   the same stream the primary emitted.  [record_of_event]
   must run inside the listener (a [Created] record needs the object
   still live to look its type up); delete nullifications arrive as
   their own preceding events, so the replica's [delete] finds the
   references already gone and emits no duplicates. *)
let install_fanout stores =
  let n = Array.length stores in
  if n <= 1 then None
  else
    let primary = stores.(0) in
    Some
      (Gom.Store.subscribe primary (fun ev ->
           let record = Durability.Wal.record_of_event primary ev in
           for k = 1 to n - 1 do
             ignore (Durability.Wal.replay stores.(k) [ record ] : int)
           done))

let create_on ?jobs ~placement ~stores ~managers ~envs () =
  let n = Placement.shards placement in
  if Array.length stores <> n || Array.length managers <> n || Array.length envs <> n
  then invalid_arg "Group: placement/shard array length mismatch";
  Array.iteri
    (fun k env ->
      if not (Core.Exec.live_store_exn env == stores.(k)) then
        invalid_arg "Group: env is not over its shard's store")
    envs;
  let engines = Array.map (fun env -> Engine.create env) envs in
  let quarantines =
    Array.map
      (fun engine ->
        let q = Integrity.Quarantine.create () in
        Integrity.Quarantine.attach q engine;
        q)
      engines
  in
  let fanout = install_fanout stores in
  let jobs = match jobs with Some j -> max 1 j | None -> n in
  {
    placement;
    n;
    stores;
    envs;
    engines;
    managers;
    quarantines;
    pool = Parallel.Pool.create ~jobs;
    jobs;
    router_stats = Storage.Stats.create ();
    specs = [];
    asrs = Array.make n [];
    fanout;
    heaps = [];
    closed = false;
  }

(* A replica is a whole-base copy of the primary with its own heap,
   environment and maintenance manager; the fan-out keeps it converged
   from then on. *)
let replica ~size_of primary =
  let store = Gom.Store.copy primary in
  let env = Core.Exec.make store (Storage.Heap.create ~size_of store) in
  (store, env, Core.Maintenance.create env)

let of_primary ?jobs ?(size_of = fun _ -> 100) ~placement ~env ~manager () =
  let primary = Core.Exec.live_store_exn env in
  let shards =
    Array.init (Placement.shards placement) (fun k ->
        if k = 0 then (primary, env, manager) else replica ~size_of primary)
  in
  let t =
    create_on ?jobs ~placement
      ~stores:(Array.map (fun (s, _, _) -> s) shards)
      ~envs:(Array.map (fun (_, e, _) -> e) shards)
      ~managers:(Array.map (fun (_, _, m) -> m) shards)
      ()
  in
  { t with heaps = List.tl (Array.to_list (Array.map (fun e -> e.Core.Exec.heap) t.envs)) }

let create ?jobs ?policy ?(size_of = fun _ -> 100) ~placement store =
  let heap = Storage.Heap.create ~size_of store in
  let env = Core.Exec.make store heap in
  let t =
    of_primary ?jobs ~size_of ~placement ~env ~manager:(Core.Maintenance.create env) ()
  in
  let t = { t with heaps = heap :: t.heaps } in
  Option.iter (fun p -> Array.iter (fun m -> Core.Maintenance.set_policy m p) t.managers) policy;
  t

let shards t = t.n
let jobs t = t.jobs
let placement t = t.placement
let primary t = t.stores.(0)
let store t k = t.stores.(k)
let env t k = t.envs.(k)
let engine t k = t.engines.(k)
let manager t k = t.managers.(k)
let quarantine_registry t k = t.quarantines.(k)
let asrs t k = List.rev t.asrs.(k)
let specs t = t.specs

let register t ~path ~kind ~dec =
  for k = 0 to t.n - 1 do
    let owner = Placement.owner_pred t.placement k in
    let frag = Core.Asr.create ~owner t.stores.(k) path kind dec in
    Core.Maintenance.register t.managers.(k) frag;
    Engine.register t.engines.(k) frag;
    t.asrs.(k) <- frag :: t.asrs.(k)
  done;
  t.specs <- t.specs @ [ (path, kind, dec) ]

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)
(* ------------------------------------------------------------------ *)

(* Grouped routing sends each probe to its owner shard alone, so that
   shard's answer must be the whole answer.  Sound exactly when the
   probe anchors every usable index at column 0: matching tuples then
   carry the probe as leftmost non-NULL column and live on the owner
   shard, while navigation / extent-scan fallbacks run over the shard's
   full replica and are exact anyway.  One index embedding the query
   path at a positive offset breaks the argument (its matching tuples
   may be owned by their own earlier columns), so such paths scatter. *)
let grouped_ok t path ~i =
  i = 0
  && List.for_all
       (fun (index_path, _, _) ->
         match Engine.embedding_offset ~index_path ~query_path:path with
         | None | Some 0 -> true
         | Some _ -> false)
       t.specs

let note_grouped t = Storage.Stats.note_shard_grouped t.router_stats
let note_scatter t = Storage.Stats.note_shard_scatter t.router_stats

let scatter_tasks t f = List.init t.n (fun k () -> f k)

let forward t path ~i ~j oid =
  if t.n = 1 then begin
    note_grouped t;
    Engine.forward ~env:t.envs.(0) t.engines.(0) path ~i ~j oid
  end
  else if grouped_ok t path ~i then begin
    note_grouped t;
    let k = Placement.shard_of_oid t.placement oid in
    Engine.forward ~env:t.envs.(k) t.engines.(k) path ~i ~j oid
  end
  else begin
    note_scatter t;
    Parallel.Pool.run_all t.pool
      (scatter_tasks t (fun k ->
           Engine.forward ~env:t.envs.(k) t.engines.(k) path ~i ~j oid))
    |> List.concat
    |> List.sort_uniq Gom.Value.compare
  end

let backward t path ~i ~j ~target =
  if t.n = 1 then begin
    note_grouped t;
    Engine.backward ~env:t.envs.(0) t.engines.(0) path ~i ~j ~target
  end
  else begin
    note_scatter t;
    Parallel.Pool.run_all t.pool
      (scatter_tasks t (fun k ->
           Engine.backward ~env:t.envs.(k) t.engines.(k) path ~i ~j ~target))
    |> List.concat
    |> List.sort_uniq Gom.Oid.compare
  end

(* Pointwise union of per-shard batch answers.  Every shard deduplicates
   and sorts the same probe list, so the chunks are keyed identically
   and merge positionally; the per-probe union re-sorts with the same
   comparator the engine's batch entry points use, which is what keeps
   the merged answer byte-identical to the unsharded one. *)
let merge_batches compare_answers chunks =
  match chunks with
  | [] -> []
  | first :: rest ->
    List.fold_left
      (fun acc chunk ->
        List.map2 (fun (p, a) (_, a') -> (p, List.rev_append a' a)) acc chunk)
      first rest
    |> List.map (fun (p, a) -> (p, List.sort_uniq compare_answers a))

let forward_batch t path ~i ~j oids =
  let probes = List.sort_uniq Gom.Oid.compare oids in
  if probes = [] then []
  else if t.n = 1 then begin
    note_grouped t;
    Engine.forward_batch ~env:t.envs.(0) t.engines.(0) path ~i ~j probes
  end
  else if grouped_ok t path ~i then begin
    note_grouped t;
    let buckets = Array.make t.n [] in
    (* Reverse first so each bucket comes out in ascending probe order
       (the engine re-sorts anyway; this keeps descents sequential). *)
    List.iter
      (fun o ->
        let k = Placement.shard_of_oid t.placement o in
        buckets.(k) <- o :: buckets.(k))
      (List.rev probes);
    let tasks =
      List.filter_map
        (fun k ->
          if buckets.(k) = [] then None
          else
            Some
              (fun () ->
                Engine.forward_batch ~env:t.envs.(k) t.engines.(k) path ~i ~j
                  buckets.(k)))
        (List.init t.n Fun.id)
    in
    Parallel.Pool.run_all t.pool tasks
    |> List.concat
    |> List.sort (fun (a, _) (b, _) -> Gom.Oid.compare a b)
  end
  else begin
    note_scatter t;
    Parallel.Pool.run_all t.pool
      (scatter_tasks t (fun k ->
           Engine.forward_batch ~env:t.envs.(k) t.engines.(k) path ~i ~j probes))
    |> merge_batches Gom.Value.compare
  end

let backward_batch t path ~i ~j ~targets =
  let targets = List.sort_uniq Gom.Value.compare targets in
  if targets = [] then []
  else if t.n = 1 then begin
    note_grouped t;
    Engine.backward_batch ~env:t.envs.(0) t.engines.(0) path ~i ~j ~targets
  end
  else begin
    note_scatter t;
    Parallel.Pool.run_all t.pool
      (scatter_tasks t (fun k ->
           Engine.backward_batch ~env:t.envs.(k) t.engines.(k) path ~i ~j ~targets))
    |> merge_batches Gom.Oid.compare
  end

(* ------------------------------------------------------------------ *)
(* Maintenance and accounting                                          *)
(* ------------------------------------------------------------------ *)

let set_policy t policy =
  Array.iter (fun m -> Core.Maintenance.set_policy m policy) t.managers

let flush_all t =
  Array.fold_left (fun acc m -> acc + Core.Maintenance.flush_all m) 0 t.managers

let pending t =
  Array.fold_left (fun acc m -> acc + Core.Maintenance.pending m) 0 t.managers

let shard_summaries t =
  Array.map (fun env -> Storage.Stats.snapshot env.Core.Exec.stats) t.envs

let stats_summary t =
  Array.fold_left
    (fun acc s -> Storage.Stats.merge acc s)
    (Storage.Stats.snapshot t.router_stats)
    (shard_summaries t)

let total_pages t =
  Array.map
    (fun asrs -> List.fold_left (fun acc a -> acc + Core.Asr.total_pages a) 0 asrs)
    t.asrs

let close t =
  if not t.closed then begin
    t.closed <- true;
    (match t.fanout with
    | Some sub -> Gom.Store.unsubscribe t.stores.(0) sub
    | None -> ());
    Array.iter Engine.close t.engines;
    Array.iter Core.Maintenance.close t.managers;
    List.iter Storage.Heap.close t.heaps;
    Parallel.Pool.shutdown t.pool
  end
