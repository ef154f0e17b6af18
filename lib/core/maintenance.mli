(** Incremental maintenance of access support relations under object
    base updates (paper, section 6).

    A manager subscribes to a {!Gom.Store.t} and keeps every registered
    {!Asr.t} consistent with the object graph.  An update of attribute
    [A(i+1)] of an object [o_i] (attribute assignment, set insertion or
    removal, and — via the store's nullify-then-drop protocol — object
    deletion) is processed per affected path position:

    + {e before}: the stored extension tuples passing through [o_i] at
      position [i], and the prefix-truncated tuples headed by the
      affected targets at position [i+1];
    + {e after}: the maximal partial paths through [o_i], derived again
      as the cross product of maximal prefixes [I_l] and maximal
      suffixes [I_r] and filtered by {!Extension.member}, plus the
      prefix-truncated tuples of targets that lost their last inbound
      reference (full/right-complete extensions only);
    + only the net difference — [before ∖ after] retracted, then
      [after ∖ before] added — reaches {!Asr.apply_delta}.  Tuples the
      event leaves unchanged are never written, so inserting an edge
      into a set writes just [I_l × {edge} × I_r] (section 6.1).

    Following the paper's analysis of which extensions require searches
    in the {e data} (section 6.1): prefixes are recovered from the
    access support relation itself for full and left-complete
    extensions, but require a charged backward search through the
    object extents for canonical and right-complete extensions; suffix
    computation is a charged forward traversal for every extension.
    All page traffic accumulates in the manager's {!Storage.Stats.t}. *)

type t

(** {2 Flush policies}

    The manager keeps every registered ASR's {e logical} extension
    exact on every event; what a policy controls is when the physical
    partition trees catch up:

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

val flush_asr : t -> Asr.t -> int
(** Drain one ASR's buffers. *)

val pending : t -> int
(** Net buffered deltas over all registered ASRs. *)

val pending_bytes : t -> int

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
    the repairer buffers the events itself and replays them — through
    {!apply_event} — once the rebuild pass is done. *)

val suspend : t -> Asr.t -> unit
(** Stop processing store events against this ASR (idempotent).  Other
    registered ASRs are unaffected. *)

val resume : t -> Asr.t -> unit
(** Resume normal event processing for the ASR. *)

val is_suspended : t -> Asr.t -> bool

val apply_event : t -> Asr.t -> Gom.Store.event -> unit
(** Process one store event against one ASR, exactly as the manager's
    own subscription would.  Used to replay events buffered while the
    ASR was suspended; the caller is responsible for operation
    boundaries ({!Storage.Stats.begin_op}). *)
