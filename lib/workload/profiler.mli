(** Deriving usage mixes from a live object base — the feedback loop
    the paper's conclusion envisions: "for a recorded database usage
    pattern the system could (semi-) automatically adjust the physical
    database design".

    The Figure 3 parameters ([c_i], [d_i], [fan_i], and the {e actual}
    sharing degrees) along a path are measured by
    {!Engine.measure_profile}.  {!Monitor} records executed queries and
    propagated updates and turns them into an operation mix, so
    {!Monitor.recommend} can re-run the advisor against reality instead
    of an assumed workload. *)

module Monitor : sig
  type t

  val create : Gom.Store.t -> Gom.Path.t -> t
  (** Subscribes to the store: every mutation hitting one of the path's
      attributes is counted as an update at its position. *)

  val close : t -> unit
  (** Unsubscribe: later mutations are no longer counted.  Idempotent. *)

  val record_query : t -> [ `Fw | `Bw ] -> i:int -> j:int -> unit
  (** Tell the monitor a query over positions [(i,j)] ran. *)

  val queries_seen : t -> int

  val updates_seen : t -> int

  val observed_p_up : t -> float
  (** Fraction of recorded operations that were updates; 0 when nothing
      was recorded. *)

  val observed_mix : t -> Costmodel.Opmix.t option
  (** The recorded workload as a weighted operation mix; [None] until
      at least one query {e and} one update were seen. *)

  val recommend :
    ?sizes:(Gom.Schema.type_name -> int) ->
    ?max_storage_pages:float ->
    t ->
    Costmodel.Advisor.ranked list
  (** Re-measure the profile, convert the recorded usage into a mix and
      rank all physical designs.
      @raise Invalid_argument until {!observed_mix} is available. *)
end
