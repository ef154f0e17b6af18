(** Admission-controlled, deadline-aware front for {!Parallel.Server}.

    Queries enter through {!submit} — never blocking, never unbounded:
    a per-client token bucket and a bounded queue with a configurable
    shed policy decide admission immediately, and a dispatcher drains
    the queue through {!Parallel.Server.serve_deadlined} so each
    admitted query runs under its own cooperative cancellation budget.
    Every submitted query resolves to exactly one typed {!outcome}, so

    {e offered = answered + shed + timed_out + failed}

    holds exactly (checked by the serving benchmark's CI gate).

    Above the high watermark the front enters {e brownout}: writes via
    {!update} commit but defer snapshot publication (copy-on-write
    through [Gom.Frozen.advance], so proportional to the writer's dirty
    set, but it still drains deferred index deltas and clones touched
    instances), and queries are answered from the previous epoch — exact,
    just stale, surfaced as [stale_epoch_served].  Below the low
    watermark the snapshot is caught up through a circuit {!Breaker},
    so a transiently failing capture path is probed with jittered
    exponential backoff instead of being hammered. *)

module Server = Parallel.Server

type t

type policy = Reject_newest | Reject_oldest | Deadline_aware

val policy_to_string : policy -> string
val policy_of_string : string -> policy option

type shed_reason = Queue_full | Rate_limited

type outcome =
  | Answer of Server.answer  (** byte-identical to an unthrottled serve *)
  | Shed of shed_reason  (** rejected at admission; never started *)
  | Timeout  (** budget expired, queued or at a cancellation checkpoint *)
  | Failed of string  (** query-local failure; batch and pool survive *)

type config = {
  max_queue : int;
  high_watermark : int;  (** queue depth that enters brownout *)
  low_watermark : int;  (** queue depth that leaves it *)
  shed_policy : policy;
  deadline_s : float option;  (** default per-query budget *)
  rate_limit : (float * float) option;  (** per-client (rate/s, burst) *)
  batch : int;  (** queries served per dispatch round *)
}

val default_config : config
(** queue 64, watermarks 48/16, deadline-aware shedding, no default
    deadline, no rate limit, batches of 8. *)

type ticket
(** Handle for one submitted query. *)

type counters = {
  offered : int;
  answered : int;
  shed : int;
  timed_out : int;
  failed : int;
}

val create :
  ?config:config ->
  ?clock:(unit -> float) ->
  ?breaker:Breaker.t ->
  ?spawn:bool ->
  Server.t ->
  t
(** Front [server] with admission control.  [~spawn:true] runs the
    dispatcher on its own domain (production mode: {!await} blocks until
    it resolves the ticket); the default is manual mode, where the test
    or caller drives {!pump} — with a simulated [?clock], every
    admission and expiry decision is deterministic.  The front does not
    own the server: shut both down, front first. *)

val submit : ?client:string -> ?deadline_s:float -> t -> Server.query -> ticket
(** Non-blocking admission.  [?client] keys the rate limiter (default
    ["anon"]); [?deadline_s] overrides the config's default budget.
    Shed decisions resolve the ticket before returning. *)

val await : t -> ticket -> outcome
(** Block until the ticket resolves.  In manual mode, only returns once
    {!pump} (or {!shutdown}) has processed the entry. *)

val outcome : ticket -> outcome option
(** Non-blocking view of a ticket. *)

val latency_s : ticket -> float option
(** Submit-to-resolution latency, once resolved. *)

val pump : t -> int
(** Run one dispatch round inline: pop up to [batch] entries, time out
    the already-expired ones, serve the rest with their budgets, then
    catch the snapshot up if brownout has ended.  Returns the number of
    entries processed (0 = queue empty). *)

val update : t -> (Gom.Store.t -> 'a) -> 'a
(** Route a write through the server; during brownout, publication is
    deferred (bounded staleness) until the queue drains. *)

val counters : t -> counters
(** The accounting identity's terms; offered = answered + shed +
    timed_out + failed once all tickets are resolved. *)

val stats : t -> Storage.Stats.summary
(** Server accounting merged with the front's resilience counters
    ([shed], [timed_out], [breaker_open], [stale_epoch_served]). *)

val queue_length : t -> int
val in_brownout : t -> bool
val breaker : t -> Breaker.t

val shutdown : t -> unit
(** Drain every queued entry (resolving all tickets), then join the
    dispatcher domain if one was spawned.  Idempotent; {!submit}
    afterwards raises [Invalid_argument]. *)
