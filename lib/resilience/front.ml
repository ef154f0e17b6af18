(* Admission-controlled front for Parallel.Server.

   Every query enters through [submit], which applies (in order) the
   per-client token-bucket rate limit and the bounded-queue admission
   policy, and returns a ticket immediately — overload never blocks the
   submitter, it sheds.  A dispatcher (a spawned domain, or the caller
   via [pump] in deterministic tests) drains the queue in batches
   through [Server.serve_deadlined], so each admitted query runs under
   its own cooperative cancellation budget and resolves to exactly one
   typed outcome.  The accounting identity

     offered = answered + shed + timed_out + failed

   holds by construction: every submitted ticket is resolved exactly
   once, on exactly one of those arms.

   Brownout: when the queue crosses the high watermark, writes routed
   through [update] stop publishing snapshots (publication is CoW —
   proportional to the writer's dirty set, not the base — but it still
   drains deferred index deltas and clones touched instances, so
   deferring it under overload is load relief; readers just keep the
   previous epoch, with the staleness surfaced as
   [stale_epoch_served]).  Once the queue drains below the low
   watermark, the front catches the snapshot up through the circuit
   breaker — a refresh that keeps failing transiently trips the breaker
   open and the front keeps serving the stale-but-exact epoch instead
   of hammering the capture path. *)

module Server = Parallel.Server

type policy = Reject_newest | Reject_oldest | Deadline_aware

let policy_to_string = function
  | Reject_newest -> "reject-newest"
  | Reject_oldest -> "reject-oldest"
  | Deadline_aware -> "deadline-aware"

let policy_of_string = function
  | "reject-newest" | "newest" -> Some Reject_newest
  | "reject-oldest" | "oldest" -> Some Reject_oldest
  | "deadline-aware" | "deadline" -> Some Deadline_aware
  | _ -> None

type shed_reason = Queue_full | Rate_limited

type outcome =
  | Answer of Server.answer
  | Shed of shed_reason
  | Timeout
  | Failed of string

type config = {
  max_queue : int;
  high_watermark : int;  (* queue depth that enters brownout *)
  low_watermark : int;  (* queue depth that leaves it *)
  shed_policy : policy;
  deadline_s : float option;  (* default per-query budget *)
  rate_limit : (float * float) option;  (* per-client (rate/s, burst) *)
  batch : int;  (* queries served per dispatch round *)
}

let default_config =
  {
    max_queue = 64;
    high_watermark = 48;
    low_watermark = 16;
    shed_policy = Deadline_aware;
    deadline_s = None;
    rate_limit = None;
    batch = 8;
  }

type ticket = {
  mutable t_outcome : outcome option;
  t_submitted_at : float;
  mutable t_resolved_at : float;
}

type entry = {
  e_ticket : ticket;
  e_query : Server.query;
  e_expires_at : float option;
  e_seq : int;
}

type counters = {
  offered : int;
  answered : int;
  shed : int;
  timed_out : int;
  failed : int;
}

type t = {
  server : Server.t;
  config : config;
  clock : unit -> float;
  breaker : Breaker.t;
  lock : Mutex.t;
  work : Condition.t;  (* queue became non-empty, or closing *)
  settled : Condition.t;  (* some ticket resolved *)
  mutable queue : entry list;  (* FIFO, head oldest *)
  mutable qlen : int;
  mutable seq : int;
  buckets : (string, Token_bucket.t) Hashtbl.t;
  stats : Storage.Stats.t;  (* front-side resilience counters *)
  mutable c_offered : int;
  mutable c_answered : int;
  mutable c_shed : int;
  mutable c_timed_out : int;
  mutable c_failed : int;
  mutable brownout : bool;
  mutable closed : bool;
  mutable dispatcher : unit Domain.t option;
}

(* Must hold t.lock. *)
let resolve t ticket outcome =
  assert (ticket.t_outcome = None);
  ticket.t_outcome <- Some outcome;
  ticket.t_resolved_at <- t.clock ();
  (match outcome with
  | Answer _ -> t.c_answered <- t.c_answered + 1
  | Shed _ -> t.c_shed <- t.c_shed + 1
  | Timeout -> t.c_timed_out <- t.c_timed_out + 1
  | Failed _ -> t.c_failed <- t.c_failed + 1);
  Condition.broadcast t.settled

let shed_locked t ticket reason =
  Storage.Stats.(incr t.stats Shed);
  resolve t ticket (Shed reason)

let submit ?(client = "anon") ?deadline_s t query =
  let now = t.clock () in
  Mutex.protect t.lock (fun () ->
      if t.closed then invalid_arg "Front.submit: front is shut down";
      t.c_offered <- t.c_offered + 1;
      let ticket = { t_outcome = None; t_submitted_at = now; t_resolved_at = now } in
      let admitted_by_rate =
        match t.config.rate_limit with
        | None -> true
        | Some (rate, burst) ->
          let bucket =
            match Hashtbl.find_opt t.buckets client with
            | Some b -> b
            | None ->
              let b = Token_bucket.create ~rate ~burst ~now in
              Hashtbl.add t.buckets client b;
              b
          in
          Token_bucket.take bucket ~now
      in
      if not admitted_by_rate then shed_locked t ticket Rate_limited
      else begin
        let expires_at =
          match (deadline_s, t.config.deadline_s) with
          | Some d, _ | None, Some d -> Some (now +. d)
          | None, None -> None
        in
        let entry =
          { e_ticket = ticket; e_query = query; e_expires_at = expires_at; e_seq = t.seq }
        in
        t.seq <- t.seq + 1;
        if t.qlen < t.config.max_queue then begin
          t.queue <- t.queue @ [ entry ];
          t.qlen <- t.qlen + 1;
          if t.qlen >= t.config.high_watermark then t.brownout <- true;
          Condition.signal t.work
        end
        else begin
          (* Bounded queue is full: shed according to policy.  The queue
             length is invariant across all three arms. *)
          match t.config.shed_policy with
          | Reject_newest -> shed_locked t ticket Queue_full
          | Reject_oldest -> (
            match t.queue with
            | victim :: rest ->
              t.queue <- rest @ [ entry ];
              shed_locked t victim.e_ticket Queue_full;
              Condition.signal t.work
            | [] -> (* max_queue = 0 *) shed_locked t ticket Queue_full)
          | Deadline_aware ->
            (* Evict the entry — the incoming one included — with the
               least remaining budget: it is the least likely to make
               its deadline, so shedding it preserves the most goodput.
               Ties evict the newest (largest sequence number). *)
            let remaining e =
              match e.e_expires_at with None -> infinity | Some x -> x -. now
            in
            let worse a b =
              let ra = remaining a and rb = remaining b in
              if ra < rb then a
              else if rb < ra then b
              else if a.e_seq > b.e_seq then a
              else b
            in
            let victim = List.fold_left worse entry t.queue in
            if victim == entry then shed_locked t ticket Queue_full
            else begin
              t.queue <- List.filter (fun e -> not (e == victim)) t.queue @ [ entry ];
              shed_locked t victim.e_ticket Queue_full;
              Condition.signal t.work
            end
        end
      end;
      ticket)

(* Catch the published snapshot up with the live base, through the
   circuit breaker: an open circuit (or a transient capture failure,
   which feeds the trip counter) leaves the stale epoch serving. *)
let maybe_catch_up t =
  let want =
    Mutex.protect t.lock (fun () -> (not t.brownout) && not t.closed)
  in
  if want && Server.lag t.server > 0 then
    match Breaker.call ~stats:t.stats t.breaker (fun () -> Server.refresh t.server) with
    | Ok () | Error `Open | Error (`Failed _) -> ()

let pump t =
  let batch =
    Mutex.protect t.lock (fun () ->
        let rec take k xs acc =
          if k = 0 then (List.rev acc, xs)
          else match xs with [] -> (List.rev acc, []) | x :: tl -> take (k - 1) tl (x :: acc)
        in
        let head, rest = take t.config.batch t.queue [] in
        t.queue <- rest;
        t.qlen <- t.qlen - List.length head;
        if t.brownout && t.qlen <= t.config.low_watermark then t.brownout <- false;
        head)
  in
  match batch with
  | [] ->
    maybe_catch_up t;
    0
  | batch ->
    let now = t.clock () in
    let live, dead =
      List.partition
        (fun e -> match e.e_expires_at with None -> true | Some x -> x > now)
        batch
    in
    Mutex.protect t.lock (fun () ->
        List.iter
          (fun e ->
            (* Expired while queued: never reached the pool, so the
               timeout is counted on the front's sheaf (mid-query
               expiries are counted by serve_deadlined on the worker
               sheaf — each timeout is counted exactly once). *)
            Storage.Stats.(incr t.stats Timed_out);
            resolve t e.e_ticket Timeout)
          dead);
    if live <> [] then begin
      if Server.lag t.server > 0 then
        Mutex.protect t.lock (fun () ->
            List.iter (fun _ -> Storage.Stats.(incr t.stats Stale_epoch_served)) live);
      let entries =
        List.map
          (fun e ->
            let deadline =
              match e.e_expires_at with
              | None -> Core.Deadline.none ()
              | Some x -> Core.Deadline.until ~clock:t.clock x
            in
            (e.e_query, deadline))
          live
      in
      let served = Server.serve_deadlined t.server entries in
      Mutex.protect t.lock (fun () ->
          List.iter2
            (fun e s ->
              let o =
                match (s : Server.served) with
                | Server.Answered a -> Answer a
                | Server.Timed_out -> Timeout
                | Server.Failed m -> Failed m
              in
              resolve t e.e_ticket o)
            live served)
    end;
    maybe_catch_up t;
    List.length batch

let rec dispatcher_loop t =
  let run =
    Mutex.protect t.lock (fun () ->
        let rec await () =
          if t.qlen > 0 then true
          else if t.closed then false
          else begin
            Condition.wait t.work t.lock;
            await ()
          end
        in
        await ())
  in
  if run then begin
    (* A pump can only raise on a harness bug; the backstop keeps the
       dispatcher domain alive so no ticket waits forever. *)
    (try ignore (pump t) with _ -> ());
    dispatcher_loop t
  end

let create ?(config = default_config) ?clock ?breaker ?(spawn = false) server =
  if config.max_queue < 1 then invalid_arg "Front.create: max_queue must be >= 1";
  if config.batch < 1 then invalid_arg "Front.create: batch must be >= 1";
  if
    not
      (0 <= config.low_watermark
      && config.low_watermark <= config.high_watermark
      && config.high_watermark <= config.max_queue)
  then invalid_arg "Front.create: need 0 <= low <= high <= max_queue";
  let clock = match clock with Some c -> c | None -> Unix.gettimeofday in
  let breaker =
    match breaker with
    | Some b -> b
    (* refresh failures are capture-path faults; treat any raise as a
       breaker-class failure so the dispatcher can never die on one *)
    | None -> Breaker.create ~failure:(fun _ -> true) ~clock ()
  in
  let t =
    {
      server;
      config;
      clock;
      breaker;
      lock = Mutex.create ();
      work = Condition.create ();
      settled = Condition.create ();
      queue = [];
      qlen = 0;
      seq = 0;
      buckets = Hashtbl.create 16;
      stats = Storage.Stats.create ();
      c_offered = 0;
      c_answered = 0;
      c_shed = 0;
      c_timed_out = 0;
      c_failed = 0;
      brownout = false;
      closed = false;
      dispatcher = None;
    }
  in
  if spawn then t.dispatcher <- Some (Domain.spawn (fun () -> dispatcher_loop t));
  t

let await t ticket =
  Mutex.protect t.lock (fun () ->
      while ticket.t_outcome = None do
        Condition.wait t.settled t.lock
      done;
      Option.get ticket.t_outcome)

let outcome ticket = ticket.t_outcome

let latency_s ticket =
  match ticket.t_outcome with
  | None -> None
  | Some _ -> Some (ticket.t_resolved_at -. ticket.t_submitted_at)

let update t f =
  let defer = Mutex.protect t.lock (fun () -> t.brownout) in
  Server.update ~publish:(not defer) t.server f

let counters t =
  Mutex.protect t.lock (fun () ->
      {
        offered = t.c_offered;
        answered = t.c_answered;
        shed = t.c_shed;
        timed_out = t.c_timed_out;
        failed = t.c_failed;
      })

let stats t =
  Storage.Stats.merge (Server.stats t.server)
    (Mutex.protect t.lock (fun () -> Storage.Stats.snapshot t.stats))

let queue_length t = Mutex.protect t.lock (fun () -> t.qlen)
let in_brownout t = Mutex.protect t.lock (fun () -> t.brownout)
let breaker t = t.breaker

let shutdown t =
  let dispatcher =
    Mutex.protect t.lock (fun () ->
        if t.closed then None
        else begin
          t.closed <- true;
          Condition.broadcast t.work;
          let d = t.dispatcher in
          t.dispatcher <- None;
          d
        end)
  in
  match dispatcher with
  | Some d -> Domain.join d (* drains the queue before exiting *)
  | None ->
    (* Manual mode: drain inline so every ticket resolves. *)
    let rec drain () = if pump t > 0 then drain () in
    drain ()
