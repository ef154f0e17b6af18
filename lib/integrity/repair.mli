(** Repair of a quarantined access support relation.

    A repair is one reconciliation: every partition's B+ trees are
    patched to the ground truth a scrub audits against
    ({!Core.Asr.patch_partition}), and an exhaustive scrub re-verifies.
    The quarantine is lifted {e only} after a clean verification: crash
    the cycle anywhere and the relation stays quarantined (queries keep
    degrading to healthy strategies), never half-repaired and serving. *)

type outcome =
  | Repaired of { fixes : int }
      (** [fixes] counts the distinct projections reconciled in
          partition trees. *)
  | Failed of { remaining : int }
      (** Verification still found divergences; the quarantine is left
          in place. *)

val outcome_to_string : outcome -> string

val run :
  ?fault:Durability.Fault.t ->
  ?stats:Storage.Stats.t ->
  registry:Quarantine.t ->
  Core.Asr.t ->
  outcome
(** Patch every partition, then verify with an exhaustive {!Scrub.run}
    and lift the relation's quarantine from [registry] if it is clean.
    Each partition patched, like each partition the verification
    audits, counts one logical read against [?fault] (transient faults
    are retried).  Each pool member's extension is computed once for the
    patches.
    @raise Durability.Fault.Crash per the fault plan — the relation then
    remains quarantined. *)
