(** Background incremental repair of a quarantined access support
    relation.

    A repair job suspends the relation's normal maintenance, converges
    the relation stitched from its trees onto a freshly computed ground
    truth in bounded slices, reconciles every partition's B+ trees with
    the object base as it stands by then (taking in the store events
    that arrived while rebuilding), and re-verifies with an exhaustive
    scrub.  The quarantine is lifted
    {e only} after a clean verification: interrupt or crash the cycle
    anywhere and the relation stays quarantined (queries keep degrading
    to healthy strategies), never half-repaired and serving. *)

type outcome =
  | Repaired of { rounds : int; slices : int; fixes : int; caught_up : int }
      (** [fixes] counts the tuples restored or retracted plus the
          distinct projections reconciled in partition trees;
          [caught_up] the store events that arrived while the relation
          was suspended, taken in by the reconciliation. *)
  | Failed of { rounds : int; remaining : int }
      (** Verification still found divergences after [rounds] rounds;
          the quarantine is left in place. *)

val outcome_to_string : outcome -> string

type job
(** An in-flight repair.  Between {!step} calls the object base may be
    mutated freely: the suspended maintenance manager skips this
    relation, and the job's final reconciliation takes the changes in. *)

val start :
  ?slice:int ->
  ?max_rounds:int ->
  ?fault:Durability.Fault.t ->
  ?stats:Storage.Stats.t ->
  registry:Quarantine.t ->
  maintenance:Core.Maintenance.t ->
  Core.Asr.t ->
  job
(** Begin a repair: suspends maintenance for the relation and computes
    the initial rebuild work list.
    [slice] bounds extension operations per {!step} (default 32);
    [max_rounds] bounds re-verification rounds (default 4).
    @raise Invalid_argument if [slice < 1]. *)

val step : job -> [ `More | `Done of outcome ]
(** Apply one bounded slice of rebuild work.  The slice that exhausts
    the work list also patches the partition trees against the object
    base as it is then, and verifies; each slice counts one logical read against
    the job's fault plan (so crash sweeps can target any point).
    After [`Done] the job is closed (maintenance resumed); further calls
    raise.
    @raise Durability.Fault.Crash per the fault plan — the job is then
    dead and the relation remains quarantined. *)

val abort : job -> unit
(** Abandon the repair: maintenance resumes without the events it
    skipped, the quarantine stays. *)

val run :
  ?slice:int ->
  ?max_rounds:int ->
  ?fault:Durability.Fault.t ->
  ?stats:Storage.Stats.t ->
  registry:Quarantine.t ->
  maintenance:Core.Maintenance.t ->
  Core.Asr.t ->
  outcome
(** {!start} then {!step} to completion in one call (the CLI's
    [repair]). *)
