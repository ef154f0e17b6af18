(* Repair of a quarantined access support relation: one reconciliation.

   Every partition's trees are driven to the target a scrub measures
   them against ([Asr.patch_partition]: each reference count to the
   multiplicity summed over the relations holding the trees), then an
   exhaustive scrub verifies.  Only a clean verification lifts the
   quarantine — so a crash at any point of the cycle leaves the relation
   quarantined and queries degraded, never a half-patched partition
   answering queries.  The repair is synchronous: no store event can
   arrive while it runs, so none needs skipping or replaying. *)

type outcome =
  | Repaired of { fixes : int }
  | Failed of { remaining : int }

let outcome_to_string = function
  | Repaired { fixes } -> Printf.sprintf "repaired (%d fix(es))" fixes
  | Failed { remaining } ->
    Printf.sprintf "failed: %d divergence(s) remain" remaining

let run ?fault ?stats ~registry index =
  let target = Core.Asr.target index in
  let fixes = ref 0 in
  for part = 0 to Core.Asr.partition_count index - 1 do
    (* One logical read per partition: crash/transient sweeps can
       target any point of the repair. *)
    Option.iter
      (fun f ->
        Durability.Fault.with_retry ?stats f (fun () -> Durability.Fault.observe_read f))
      fault;
    fixes := !fixes + Core.Asr.patch_partition ?stats target part
  done;
  let report = Scrub.run ?fault ?stats index in
  if Scrub.clean report then begin
    Quarantine.lift registry index;
    Repaired { fixes = !fixes }
  end
  else Failed { remaining = List.length report.Scrub.r_divergences }
