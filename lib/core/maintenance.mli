(** Incremental maintenance of access support relations under object
    base updates (paper, section 6).

    A manager subscribes to a {!Gom.Store.t} and keeps every registered
    {!Asr.t} consistent with the object graph.  A store event changes
    the edges of step [A(i+1)] out of one holder [o_i] (attribute
    assignment), or out of every holder of one set (set insertion or
    removal; object deletion arrives as such events through the store's
    nullify-then-drop protocol).  The difference of the extension is
    computed {e edge-locally}, per matching path position and holder,
    and written with {!Asr.apply_delta}:

    + an edge [(o_i, S, x)] gained adds, and one lost removes,
      [I_l(o_i) × {edge} × I_r(x)] (section 6.1), filtered by
      {!Extension.member};
    + an insertion into an empty set retracts its empty-set marker
      [(…, o_i, S, NULL…)], a removal emptying it restores the marker;
    + a holder gaining its first edge at the step retracts its
      right-truncated tuples [I_l(o_i) × NULL…], losing its last one
      restores them (full and left-complete extensions);
    + a target gaining its first inbound edge at the step retracts its
      left-truncated tuples [NULL… × I_r(x)], losing its last one
      restores them (full and right-complete extensions).

    Nothing else through [o_i] is derived again, and a truncated tuple
    without an edge is never written.

    Following the paper's analysis of which extensions require searches
    in the {e data} (section 6.1), the sides come from the relation
    itself where it stores them: [I_l] is read from the partitions that
    end at [o_i]'s column for full and left-complete extensions, [I_r]
    from those that start at [x]'s column for full ones, both with the
    §5.6 walk ({!Exec.paths}) and, in deferred mode, through the pending
    deltas ({!Asr.probe}).  These reads charge the pages whose
    contents produce the answer.  Every other side is walked over the
    object graph from the edge's endpoint alone: a charged backward
    search through the extents for canonical and right-complete
    prefixes, a charged forward traversal for suffixes.  A horizontal
    fragment takes [I_r] from the graph (suffix tuples are owned by
    whoever owns their prefix) and confirms an empty [I_l] against the
    store.  A relation with a partition in a sharing pool takes both
    sides from the graph: a shared tree also holds its co-sharers'
    references, which take the event before or after this relation,
    so its contents are not this relation's state.

    An event matching several positions of one path applies them in
    increasing order, each seeing the applied positions on its left and
    the pending ones on its right: the trees give that as read, and
    graph walks undo the event at later positions.  The holders of one
    set change together, one delta per position.  All page traffic
    accumulates in the manager's {!Storage.Stats.t}. *)

type t

(** {2 Flush policies}

    The manager computes every event's difference at once; what a
    policy controls is when the partition trees take it (until then it
    waits in write-behind buffers that maintenance reads through):

    - [Immediate] — classic write-through: every event's tree writes
      happen inline (the pre-deferred behaviour, and the default);
    - [Every_k_events k] — deltas buffer; the manager flushes after
      every [k]-th store event;
    - [Bytes_threshold b] — flush when the buffered volume (in stored
      tuple bytes) reaches [b];
    - [On_query] — never flush spontaneously; the query engine's
      freshness watermark (or an explicit {!flush_all}) catches up. *)

type flush_policy =
  | Immediate
  | Every_k_events of int
  | Bytes_threshold of int
  | On_query

val policy_to_string : flush_policy -> string
(** ["immediate"], ["every:K"], ["bytes:N"], ["onquery"]. *)

val policy_of_string : string -> flush_policy option
(** Inverse of {!policy_to_string} (counts must be positive). *)

val create : Exec.env -> t
(** Subscribes to the environment's store.  Policy starts [Immediate]. *)

val close : t -> unit
(** Unsubscribe from the store: later events no longer reach the
    registered ASRs, which stop following the base.  Pending deltas stay
    buffered for {!flush_all}.  Idempotent. *)

val register : t -> Asr.t -> unit
(** Add an access support relation to maintain; it inherits the
    manager's current flush policy.  The ASR must be built over the
    same store. *)

val policy : t -> flush_policy

val set_policy : t -> flush_policy -> unit
(** Switch policies.  Moving to [Immediate] flushes everything pending
    first, so no deltas are stranded in buffers no event will drain. *)

val flush_all : t -> int
(** Drain every registered ASR's buffers into its partition trees
    ({!Asr.flush}); returns the number of net deltas applied. *)

val pending : t -> int
(** Net buffered deltas over all registered ASRs (a buffer shared from a
    pool counts once for each registered sharer). *)

val asrs : t -> Asr.t list

val stats : t -> Storage.Stats.t
(** The environment's accounting context ([env.stats]): maintenance
    page traffic accumulates there, each store event as one operation
    ({!Storage.Stats.begin_op}). *)

val last_event_cost : t -> int
(** Pages read plus written while processing the most recent event. *)

(** {2 Repair interleaving}

    During a background rebuild the repairer takes over one ASR's
    maintenance: live store events must not race the slice-wise
    reconstruction, so the manager is told to {e skip} that ASR while
    the repairer rebuilds it; its final reconciliation against the
    object base takes in the events skipped meanwhile. *)

val suspend : t -> Asr.t -> unit
(** Stop processing store events against this ASR (idempotent).  Other
    registered ASRs are unaffected. *)

val resume : t -> Asr.t -> unit
(** Resume normal event processing for the ASR. *)

val is_suspended : t -> Asr.t -> bool
