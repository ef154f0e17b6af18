(* Background incremental repair of a quarantined access support
   relation.

   A repair job takes over the relation's maintenance: the manager is
   told to skip it ([Maintenance.suspend]) for the whole rebuild.  The
   rebuild converges the stitched relation onto a freshly computed
   target in bounded slices ([step]), then reconciles each partition's
   trees with the object base as it is by then ([Asr.patch_partition]:
   every reference count is driven to the multiplicity of the relations
   holding the trees, which fixes damage the stitched relation cannot
   show and takes in the store events that arrived mid-rebuild), and
   re-verifies with an exhaustive scrub.
   Only a clean verification lifts the quarantine — so a crash at any
   point of the cycle leaves the relation quarantined and queries
   degraded, never a half-rebuilt partition answering queries. *)

type op =
  | Retract of Relation.Tuple.t
  | Restore of Relation.Tuple.t

type outcome =
  | Repaired of { rounds : int; slices : int; fixes : int; caught_up : int }
  | Failed of { rounds : int; remaining : int }

type job = {
  index : Core.Asr.t;
  registry : Quarantine.t;
  maint : Core.Maintenance.t;
  slice : int;
  max_rounds : int;
  fault : Durability.Fault.t option;
  stats : Storage.Stats.t option;
  mutable since : int;  (* store epoch at the last reconciliation *)
  mutable pending : op list;
  mutable rounds : int;
  mutable slices : int;
  mutable fixes : int;
  mutable caught_up : int;
  mutable closed : bool;
}

let outcome_to_string = function
  | Repaired { rounds; slices; fixes; caught_up } ->
    Printf.sprintf "repaired (%d round(s), %d slice(s), %d fix(es), %d event(s) caught up)"
      rounds slices fixes caught_up
  | Failed { rounds; remaining } ->
    Printf.sprintf "failed after %d round(s): %d divergence(s) remain" rounds remaining

(* Diff the relation stitched from its trees against a fresh ground-truth
   computation; retractions first so multiplicity fixes cannot clash. *)
let diff index =
  let target =
    Core.Asr.restrict index
      (Core.Extension.compute (Core.Asr.store index) (Core.Asr.path index)
         (Core.Asr.kind index))
  in
  let current = Core.Asr.extension_relation index in
  let stale =
    List.filter_map
      (fun tup -> if Relation.mem target tup then None else Some (Retract tup))
      (Relation.to_list current)
  in
  let missing =
    List.filter_map
      (fun tup -> if Relation.mem current tup then None else Some (Restore tup))
      (Relation.to_list target)
  in
  stale @ missing

let start ?(slice = 32) ?(max_rounds = 4) ?fault ?stats ~registry ~maintenance index =
  if slice < 1 then invalid_arg "Repair.start: slice must be >= 1";
  Core.Maintenance.suspend maintenance index;
  {
    index;
    registry;
    maint = maintenance;
    slice;
    max_rounds;
    fault;
    stats;
    since = Gom.Store.epoch (Core.Asr.store index);
    pending = diff index;
    rounds = 1;
    slices = 0;
    fixes = 0;
    caught_up = 0;
    closed = false;
  }

let close job =
  if not job.closed then begin
    job.closed <- true;
    Core.Maintenance.resume job.maint job.index
  end

let abort job = close job

(* The work list is a difference against the stitched relation, exact
   while the relation is suspended, so its tuples are written as they
   are. *)
let apply_op job op =
  let remove, add =
    match op with Retract tup -> ([ tup ], []) | Restore tup -> ([], [ tup ])
  in
  job.fixes <- job.fixes + Core.Asr.apply_delta ?stats:job.stats job.index ~remove ~add

let finish_round job =
  (* Stitched relation converged: drive every partition's reference
     counts to the object base as it is now (repairing damage the
     stitched relation cannot show, such as surplus counts).  That also
     takes in every event the suspended maintenance skipped meanwhile,
     so none needs replaying. *)
  let parts = Core.Asr.partition_count job.index in
  for p = 0 to parts - 1 do
    job.fixes <- job.fixes + Core.Asr.patch_partition ?stats:job.stats job.index p
  done;
  let epoch = Gom.Store.epoch (Core.Asr.store job.index) in
  job.caught_up <- job.caught_up + (epoch - job.since);
  job.since <- epoch;
  let report = Scrub.run ?fault:job.fault ?stats:job.stats job.index in
  if Scrub.clean report then begin
    Quarantine.lift job.registry job.index;
    close job;
    `Done
      (Repaired
         {
           rounds = job.rounds;
           slices = job.slices;
           fixes = job.fixes;
           caught_up = job.caught_up;
         })
  end
  else if job.rounds >= job.max_rounds then begin
    (* Leave the quarantine in place: a relation we cannot verify must
       not serve queries. *)
    close job;
    `Done
      (Failed
         { rounds = job.rounds; remaining = List.length report.Scrub.r_divergences })
  end
  else begin
    job.rounds <- job.rounds + 1;
    job.pending <- diff job.index;
    `More
  end

let step job =
  if job.closed then invalid_arg "Repair.step: job already finished";
  (match job.fault with
  | Some f ->
    (* One logical read per slice: crash/transient sweeps can target any
       point of the rebuild. *)
    Durability.Fault.with_retry ?stats:job.stats f (fun () ->
        Durability.Fault.observe_read f)
  | None -> ());
  job.slices <- job.slices + 1;
  let rec apply n =
    if n = 0 then ()
    else
      match job.pending with
      | [] -> ()
      | op :: rest ->
        job.pending <- rest;
        apply_op job op;
        apply (n - 1)
  in
  apply job.slice;
  if job.pending = [] then finish_round job else `More

let run ?slice ?max_rounds ?fault ?stats ~registry ~maintenance index =
  let job = start ?slice ?max_rounds ?fault ?stats ~registry ~maintenance index in
  let rec go () = match step job with `More -> go () | `Done outcome -> outcome in
  try go ()
  with e ->
    (* A crash mid-repair: the job is dead, the quarantine stays. *)
    close job;
    raise e
