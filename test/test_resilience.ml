(* Overload-resilience harness: cooperative deadlines (exactness and the
   expiry-at-every-checkpoint sweep), pool exception isolation, the
   token bucket, the circuit breaker's trip/half-open/backoff protocol,
   and the admission front's shed policies, rate limiting, accounting
   identity and brownout mode — everything driven by simulated clocks
   and manual pumping, so each decision replays deterministically. *)

module E = Core.Exec
module D = Core.Decomposition
module V = Gom.Value
module Deadline = Core.Deadline
module Pool = Parallel.Pool
module Snapshot = Parallel.Snapshot
module Server = Parallel.Server
module Token_bucket = Resilience.Token_bucket
module Breaker = Resilience.Breaker
module Front = Resilience.Front

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let specs_for ?(kind = Core.Extension.Full) path =
  let m = Gom.Path.arity path - 1 in
  [ { Snapshot.sp_path = path; sp_kind = kind; sp_decomposition = D.binary ~m } ]

let small_spec ?(seed = 7) () =
  Workload.Generator.spec ~seed ~counts:[ 4; 5; 6 ] ~defined:[ 4; 4 ] ~fan:[ 2; 1 ] ()

let spec_gen =
  QCheck.Gen.(
    let* nn = int_range 1 3 in
    let* counts = list_repeat (nn + 1) (int_range 1 6) in
    let* defined =
      flatten_l
        (List.map (fun c -> int_range 0 c) (List.filteri (fun i _ -> i < nn) counts))
    in
    let* fan = list_repeat nn (int_range 1 3) in
    let* sv = flatten_l (List.map (fun f -> if f > 1 then return true else bool) fan) in
    let* seed = int_range 0 10000 in
    return (Workload.Generator.spec ~seed ~set_valued:sv ~counts ~defined ~fan ()))

(* A forward query over the whole path, from every anchor object. *)
let whole_path_query store path =
  let n = Gom.Path.length path in
  Server.Forward
    {
      q_path = path;
      q_i = 0;
      q_j = n;
      q_sources = Gom.Store.extent ~deep:true store (Gom.Path.type_at path 0);
    }

(* ---------------- deadlines ---------------- *)

let test_deadline_basics () =
  let d = Deadline.none () in
  Deadline.check d;
  Deadline.check d;
  check_int "none counts checkpoints" 2 (Deadline.checkpoints d);
  check "none never expires" false (Deadline.expired d);
  let d = Deadline.at_checkpoint 3 in
  Deadline.check d;
  Deadline.check d;
  let fired = try Deadline.check d; false with Deadline.Expired -> true in
  check "at_checkpoint fires on the n-th check" true fired;
  check "expired after firing" true (Deadline.expired d);
  let now = ref 0.0 in
  let clock () = !now in
  let d = Deadline.after ~clock 5.0 in
  Deadline.check d;
  check "timed budget live before expiry" false (Deadline.expired d);
  now := 5.0;
  let fired = try Deadline.check d; false with Deadline.Expired -> true in
  check "timed budget fires at expiry" true fired;
  check "remaining is non-positive" true (Deadline.remaining_s d <= 0.);
  check "expires_at exposed" true (Deadline.expires_at d = Some 5.0);
  check "invalid checkpoint count rejected" true
    (try ignore (Deadline.at_checkpoint 0); false with Invalid_argument _ -> true)

(* Admitted => exact, never partial: under any deadline, a query either
   raises Expired or returns the byte-identical undeadlined answer.  The
   sweep expires the budget at every single checkpoint (mirroring the
   crash-at-every-write durability harness): each k in 1..N must raise,
   and N+1 must complete identically. *)
let prop_deadline_exact_or_expired =
  QCheck.Test.make ~name:"deadlined answers are exact, at every expiry point" ~count:15
    QCheck.(make ~print:(fun _ -> "<spec>") spec_gen)
    (fun spec ->
      let store, path = Workload.Generator.build spec in
      let n = Gom.Path.length path in
      let snap = Snapshot.advance (Snapshot.source ~specs:(specs_for path) store) in
      let engine = Snapshot.engine snap in
      let sources = Gom.Store.extent ~deep:true store (Gom.Path.type_at path 0) in
      let targets =
        Gom.Store_view.extent ~deep:true (Snapshot.store snap) (Gom.Path.type_at path n)
        |> List.map (fun o -> V.Ref o)
      in
      let run env =
        ( Engine.forward_batch ~env engine path ~i:0 ~j:n sources,
          Engine.backward_batch ~env engine path ~i:0 ~j:n ~targets )
      in
      (* Warm plans and profiles so checkpoint counts are stable. *)
      ignore (run (Snapshot.env snap));
      let probe = Deadline.probe () in
      let reference = run (Snapshot.env ~deadline:probe snap) in
      let checkpoints = Deadline.checkpoints probe in
      let all_expire =
        List.for_all
          (fun k ->
            match run (Snapshot.env ~deadline:(Deadline.at_checkpoint k) snap) with
            | _ -> false (* finished under a budget the probe exhausted *)
            | exception Deadline.Expired -> true)
          (List.init checkpoints (fun k -> k + 1))
      in
      let complete_beyond =
        run (Snapshot.env ~deadline:(Deadline.at_checkpoint (checkpoints + 1)) snap)
        = reference
      in
      all_expire && complete_beyond)

(* Server-level: serve_deadlined with roomy budgets = serve, and an
   at-first-checkpoint budget yields a typed Timed_out (never partial),
   counted in the merged accounting. *)
let test_serve_deadlined_exact_and_timeout () =
  let store, path = Workload.Generator.build (small_spec ~seed:11 ()) in
  let server = Server.create ~jobs:2 ~specs:(specs_for path) store in
  let n = Gom.Path.length path in
  let queries =
    [
      whole_path_query store path;
      Server.Backward
        {
          q_path = path;
          q_i = 0;
          q_j = n;
          q_targets =
            Gom.Store.extent ~deep:true store (Gom.Path.type_at path n)
            |> List.map (fun o -> V.Ref o);
        };
    ]
  in
  let plain = Server.serve server queries in
  let roomy =
    Server.serve_deadlined server
      (List.map (fun q -> (q, Deadline.none ())) queries)
  in
  check "roomy budgets reproduce serve byte-for-byte" true
    (roomy = List.map (fun a -> Server.Answered a) plain);
  let strangled =
    Server.serve_deadlined server
      (List.map (fun q -> (q, Deadline.at_checkpoint 1)) queries)
  in
  check "first-checkpoint budgets all time out" true
    (List.for_all (fun s -> s = Server.Timed_out) strangled);
  check_int "timeouts visible in merged accounting" 2
    Storage.Stats.(summary_count (Server.stats server) Timed_out);
  Server.shutdown server

(* ---------------- pool exception isolation ---------------- *)

exception Probe_bomb

let test_pool_typed_chunk_errors () =
  let pool = Pool.create ~jobs:3 in
  let out =
    Pool.run_all_results pool
      [ (fun () -> 1); (fun () -> raise Probe_bomb); (fun () -> 3) ]
  in
  check "raising task fails alone, typed" true
    (match out with [ Ok 1; Error Probe_bomb; Ok 3 ] -> true | _ -> false);
  (* The pool survives: workers alive, later batches clean. *)
  check "pool fully usable afterwards" true
    (Pool.run_all pool (List.init 10 (fun i () -> i)) = List.init 10 Fun.id);
  Pool.shutdown pool

let test_raising_probe_fails_alone () =
  let store, path = Workload.Generator.build (small_spec ~seed:13 ()) in
  let server = Server.create ~jobs:2 ~specs:(specs_for path) store in
  let good = whole_path_query store path in
  (* An out-of-range probe raises inside the engine: it must fail typed,
     alone, leaving its neighbours answered and the pool alive. *)
  let bad =
    Server.Forward { q_path = path; q_i = 0; q_j = 99; q_sources = [] }
  in
  let out =
    Server.serve_deadlined server
      (List.map (fun q -> (q, Deadline.none ())) [ good; bad; good ])
  in
  (match out with
  | [ Server.Answered a1; Server.Failed msg; Server.Answered a2 ] ->
    check "neighbours agree" true (a1 = a2);
    check "failure carries a message" true (String.length msg > 0)
  | _ -> Alcotest.fail "expected [Answered; Failed; Answered]");
  (* Server still serves after the poisoned batch. *)
  check "server alive after poisoned batch" true
    (match Server.serve_deadlined server [ (good, Deadline.none ()) ] with
    | [ Server.Answered _ ] -> true
    | _ -> false);
  Server.shutdown server

(* ---------------- token bucket ---------------- *)

let test_token_bucket () =
  let b = Token_bucket.create ~rate:1.0 ~burst:2.0 ~now:0.0 in
  check "burst admits" true (Token_bucket.take b ~now:0.0);
  check "burst admits twice" true (Token_bucket.take b ~now:0.0);
  check "empty bucket sheds" false (Token_bucket.take b ~now:0.0);
  check "refills with time" true (Token_bucket.take b ~now:1.0);
  check "but only what elapsed" false (Token_bucket.take b ~now:1.0);
  check "refill caps at burst" true
    (Token_bucket.level b ~now:100.0 = 2.0);
  check "invalid rate rejected" true
    (try ignore (Token_bucket.create ~rate:0.0 ~burst:1.0 ~now:0.0); false
     with Invalid_argument _ -> true)

(* ---------------- circuit breaker ---------------- *)

let transient = Durability.Fault.Retryable "injected"

let test_breaker_protocol () =
  let now = ref 0.0 in
  let clock () = !now in
  let config =
    { Breaker.trip_after = 2; base_backoff_s = 1.0; max_backoff_s = 8.0; jitter = 0.0 }
  in
  let b = Breaker.create ~config ~clock () in
  let stats = Storage.Stats.create () in
  let boom () = raise transient in
  check "starts closed" true (Breaker.state b = Breaker.Closed);
  check "first failure recorded" true (Breaker.call b boom = Error (`Failed transient));
  check "still closed below trip_after" true (Breaker.state b = Breaker.Closed);
  check "second failure trips" true (Breaker.call b boom = Error (`Failed transient));
  check "open after k failures" true (Breaker.state b = Breaker.Open);
  check_int "one trip" 1 (Breaker.trips b);
  check "open short-circuits" true (Breaker.call ~stats b (fun () -> 1) = Error `Open);
  check_int "breaker_open counted" 1 Storage.Stats.(count stats Breaker_open);
  now := 1.0;
  check "backoff elapsed -> half-open" true (Breaker.state b = Breaker.Half_open);
  check "failed probe re-opens" true (Breaker.call b boom = Error (`Failed transient));
  check "re-opened" true (Breaker.state b = Breaker.Open);
  (* Backoff doubled to 2 s: due at t = 3. *)
  now := 2.5;
  check "still open inside doubled backoff" true
    (Breaker.call ~stats b (fun () -> 1) = Error `Open);
  now := 3.1;
  check "successful probe closes" true (Breaker.call b (fun () -> 42) = Ok 42);
  check "closed again" true (Breaker.state b = Breaker.Closed);
  check_int "two trips total" 2 (Breaker.trips b);
  (* Non-breaker-class exceptions propagate untouched. *)
  check "foreign exception propagates" true
    (try ignore (Breaker.call b (fun () -> raise Not_found)); false
     with Not_found -> true);
  check "and leaves the circuit closed" true (Breaker.state b = Breaker.Closed)

let test_breaker_jitter_deterministic () =
  let now = ref 0.0 in
  let clock () = !now in
  let config =
    { Breaker.trip_after = 1; base_backoff_s = 1.0; max_backoff_s = 8.0; jitter = 0.5 }
  in
  let boom () = raise transient in
  let schedule seed =
    let b = Breaker.create ~config ~seed ~clock () in
    ignore (Breaker.call b boom);
    (* Find when the circuit re-admits: scan simulated time. *)
    let t = ref 0.0 in
    while Breaker.state b <> Breaker.Half_open && !t < 3.0 do
      t := !t +. 0.01;
      now := !t
    done;
    now := 0.0;
    !t
  in
  let a = schedule 42 and b = schedule 42 and c = schedule 43 in
  check "same seed, same jittered backoff" true (a = b);
  check "jitter bounded by +/- 50%" true (a >= 0.5 && a <= 1.51 && c >= 0.5 && c <= 1.51)

(* ---------------- admission front: shed policies ---------------- *)

let front_fixture ?(jobs = 1) ?(seed = 17) config =
  let store, path = Workload.Generator.build (small_spec ~seed ()) in
  let server = Server.create ~jobs ~specs:(specs_for path) store in
  let now = ref 0.0 in
  let clock () = !now in
  let front = Front.create ~config ~clock server in
  (store, path, server, front, now)

let base_config =
  {
    Front.max_queue = 2;
    high_watermark = 2;
    low_watermark = 0;
    shed_policy = Front.Reject_newest;
    deadline_s = None;
    rate_limit = None;
    batch = 8;
  }

let is_answer = function Front.Answer _ -> true | _ -> false

let test_policy_reject_newest () =
  let store, path, server, front, _ = front_fixture base_config in
  let q = whole_path_query store path in
  let t1 = Front.submit front q in
  let t2 = Front.submit front q in
  let t3 = Front.submit front q in
  check "newest shed immediately" true
    (Front.outcome t3 = Some (Front.Shed Front.Queue_full));
  ignore (Front.pump front);
  check "survivors answered" true
    (is_answer (Front.await front t1) && is_answer (Front.await front t2));
  let c = Front.counters front in
  check "accounting balances" true
    (c.Front.offered = 3 && c.answered = 2 && c.shed = 1 && c.timed_out = 0
   && c.failed = 0);
  check_int "shed visible in merged stats" 1 Storage.Stats.(summary_count (Front.stats front) Shed);
  Front.shutdown front;
  Server.shutdown server

let test_policy_reject_oldest () =
  let store, path, server, front, _ =
    front_fixture { base_config with shed_policy = Front.Reject_oldest }
  in
  let q = whole_path_query store path in
  let t1 = Front.submit front q in
  let t2 = Front.submit front q in
  let t3 = Front.submit front q in
  check "oldest shed on overflow" true
    (Front.outcome t1 = Some (Front.Shed Front.Queue_full));
  Front.shutdown front;
  check "younger entries answered" true
    (is_answer (Front.await front t2) && is_answer (Front.await front t3));
  Server.shutdown server

let test_policy_deadline_aware () =
  let store, path, server, front, _ =
    front_fixture { base_config with shed_policy = Front.Deadline_aware }
  in
  let q = whole_path_query store path in
  let a = Front.submit ~deadline_s:5.0 front q in
  let b = Front.submit ~deadline_s:1.0 front q in
  (* Overflow: the queued 1 s budget is the tightest — it is evicted,
     not the (roomier) incoming query. *)
  let c = Front.submit ~deadline_s:3.0 front q in
  check "tightest-budget entry evicted" true
    (Front.outcome b = Some (Front.Shed Front.Queue_full));
  check "incoming admitted" true (Front.outcome c = None);
  (* Overflow again with the tightest budget incoming: it sheds itself. *)
  let d = Front.submit ~deadline_s:0.5 front q in
  check "tightest incoming sheds itself" true
    (Front.outcome d = Some (Front.Shed Front.Queue_full));
  Front.shutdown front;
  check "roomy budgets answered" true
    (is_answer (Front.await front a) && is_answer (Front.await front c));
  Server.shutdown server

let test_queue_expiry_is_timeout () =
  let store, path, server, front, now =
    front_fixture { base_config with max_queue = 8; high_watermark = 8 }
  in
  let q = whole_path_query store path in
  let t1 = Front.submit ~deadline_s:1.0 front q in
  let t2 = Front.submit front q in
  now := 2.0;
  ignore (Front.pump front);
  check "expired-in-queue resolves Timeout" true (Front.await front t1 = Front.Timeout);
  check "unexpired neighbour answered" true (is_answer (Front.await front t2));
  let c = Front.counters front in
  check "timeout counted once" true (c.Front.timed_out = 1 && c.answered = 1);
  check_int "timed_out in merged stats" 1
    Storage.Stats.(summary_count (Front.stats front) Timed_out);
  Front.shutdown front;
  Server.shutdown server

let test_rate_limit_per_client () =
  let store, path, server, front, now =
    front_fixture
      {
        base_config with
        max_queue = 16;
        high_watermark = 16;
        rate_limit = Some (1.0, 2.0);
      }
  in
  let q = whole_path_query store path in
  let t1 = Front.submit ~client:"alice" front q in
  let t2 = Front.submit ~client:"alice" front q in
  let t3 = Front.submit ~client:"alice" front q in
  let t4 = Front.submit ~client:"bob" front q in
  check "within burst admitted" true
    (Front.outcome t1 = None && Front.outcome t2 = None);
  check "burst exhausted sheds" true
    (Front.outcome t3 = Some (Front.Shed Front.Rate_limited));
  check "other clients unaffected" true (Front.outcome t4 = None);
  now := 1.0;
  let t5 = Front.submit ~client:"alice" front q in
  check "tokens refill with time" true (Front.outcome t5 = None);
  Front.shutdown front;
  check "admitted all answered" true
    (List.for_all
       (fun t -> is_answer (Front.await front t))
       [ t1; t2; t4; t5 ]);
  Server.shutdown server

(* Random interleaving of submits, pumps and clock advances: the
   accounting identity offered = answered + shed + timed_out + failed
   must hold exactly once every ticket resolved, with failed = 0, and
   the front's merged stats must agree with the counters. *)
let prop_accounting_identity =
  QCheck.Test.make ~name:"offered = answered + shed + timed_out, exactly" ~count:20
    QCheck.(
      pair (int_bound 2)
        (list_of_size Gen.(int_range 1 25) (pair (int_bound 3) (int_bound 4))))
    (fun (policy_idx, ops) ->
      let policy =
        List.nth [ Front.Reject_newest; Front.Reject_oldest; Front.Deadline_aware ]
          policy_idx
      in
      let store, path, server, front, now =
        front_fixture
          {
            Front.max_queue = 3;
            high_watermark = 3;
            low_watermark = 1;
            shed_policy = policy;
            deadline_s = Some 10.0;
            rate_limit = Some (2.0, 3.0);
            batch = 2;
          }
      in
      let q = whole_path_query store path in
      let tickets = ref [] in
      List.iter
        (fun (op, arg) ->
          match op with
          | 0 | 3 ->
            let deadline_s = float_of_int (1 + arg) in
            tickets := Front.submit ~deadline_s front q :: !tickets
          | 1 -> ignore (Front.pump front)
          | _ -> now := !now +. (0.6 *. float_of_int arg))
        ops;
      Front.shutdown front;
      let resolved = List.for_all (fun t -> Front.outcome t <> None) !tickets in
      let c = Front.counters front in
      let s = Front.stats front in
      Server.shutdown server;
      resolved
      && c.Front.offered = List.length !tickets
      && c.Front.offered = c.answered + c.shed + c.timed_out + c.failed
      && c.failed = 0
      && Storage.Stats.(summary_count s Shed) = c.shed
      && Storage.Stats.(summary_count s Timed_out) = c.timed_out)

(* ---------------- brownout ---------------- *)

let test_brownout_defers_publication () =
  let store, path, server, front, _ =
    front_fixture
      {
        Front.max_queue = 8;
        high_watermark = 3;
        low_watermark = 1;
        shed_policy = Front.Reject_newest;
        deadline_s = None;
        rate_limit = None;
        batch = 2;
      }
  in
  let q = whole_path_query store path in
  let tickets = List.init 4 (fun _ -> Front.submit front q) in
  check "high watermark enters brownout" true (Front.in_brownout front);
  (* A write during brownout commits but does not publish. *)
  let t0 = Gom.Path.type_at path 0 in
  let epoch_before = Server.epoch server in
  let o = Front.update front (fun st -> Gom.Store.new_object st t0) in
  check "write committed to live base" true
    (Gom.Store_view.mem (Snapshot.store (Server.pin server)) o = false
    && Server.lag server > 0);
  check "published epoch unmoved" true (Server.epoch server = epoch_before);
  (* First round serves from the stale epoch; the queue is still above
     the low watermark, so brownout persists. *)
  ignore (Front.pump front);
  check "still browned out above low watermark" true (Front.in_brownout front);
  (* Second round drains to the low watermark: brownout ends and the
     snapshot is caught up through the breaker. *)
  ignore (Front.pump front);
  check "drained queue leaves brownout" false (Front.in_brownout front);
  check_int "snapshot caught up" 0 (Server.lag server);
  check "new epoch sees the deferred write" true
    (Gom.Store_view.mem (Snapshot.store (Server.pin server)) o);
  let s = Front.stats front in
  check "stale serving surfaced in stats" true
    (Storage.Stats.(summary_count s Stale_epoch_served) >= 2);
  List.iter (fun t -> check "all answered" true (is_answer (Front.await front t))) tickets;
  Front.shutdown front;
  Server.shutdown server

(* An open breaker must keep the front serving (stale) instead of
   letting the refresh path get hammered or the dispatcher die. *)
let test_brownout_breaker_open_keeps_serving () =
  let store, path = Workload.Generator.build (small_spec ~seed:29 ()) in
  let server = Server.create ~jobs:1 ~specs:(specs_for path) store in
  let now = ref 0.0 in
  let clock () = !now in
  (* A breaker already tripped far into the future: every refresh is
     short-circuited. *)
  let breaker =
    Breaker.create
      ~config:
        { Breaker.trip_after = 1; base_backoff_s = 1e6; max_backoff_s = 1e6; jitter = 0.0 }
      ~failure:(fun _ -> true)
      ~clock ()
  in
  (match Breaker.call breaker (fun () -> raise transient) with
  | Error (`Failed _) -> ()
  | _ -> Alcotest.fail "expected the priming failure");
  let front =
    Front.create
      ~config:
        {
          Front.max_queue = 8;
          high_watermark = 2;
          low_watermark = 0;
          shed_policy = Front.Reject_newest;
          deadline_s = None;
          rate_limit = None;
          batch = 8;
        }
      ~clock ~breaker server
  in
  let q = whole_path_query store path in
  let t1 = Front.submit front q in
  let t2 = Front.submit front q in
  let t0 = Gom.Path.type_at path 0 in
  ignore (Front.update front (fun st -> Gom.Store.new_object st t0));
  check "publication deferred" true (Server.lag server > 0);
  ignore (Front.pump front);
  check "stale answers still served under open breaker" true
    (is_answer (Front.await front t1) && is_answer (Front.await front t2));
  check "refresh was short-circuited, lag persists" true (Server.lag server > 0);
  check "breaker_open counted" true
    (Storage.Stats.(summary_count (Front.stats front) Breaker_open) >= 1);
  Front.shutdown front;
  Server.shutdown server

(* ---------------- spawned dispatcher ---------------- *)

let test_spawned_dispatcher_smoke () =
  let store, path = Workload.Generator.build (small_spec ~seed:37 ()) in
  let server = Server.create ~jobs:2 ~specs:(specs_for path) store in
  let front =
    Front.create
      ~config:
        {
          Front.max_queue = 64;
          high_watermark = 48;
          low_watermark = 16;
          shed_policy = Front.Deadline_aware;
          deadline_s = Some 30.0;
          rate_limit = None;
          batch = 4;
        }
      ~spawn:true server
  in
  let q = whole_path_query store path in
  let clients =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            List.init 15 (fun _ -> Front.await front (Front.submit front q))))
  in
  let outcomes = List.concat_map Domain.join clients in
  check "closed-loop clients all answered" true (List.for_all is_answer outcomes);
  let c = Front.counters front in
  check "spawned-mode accounting balances" true
    (c.Front.offered = 30 && c.answered + c.shed + c.timed_out + c.failed = 30);
  (* Shutdown joining cleanly is the no-wedged-domain check. *)
  Front.shutdown front;
  Server.shutdown server

(* ---------------- stats plumbing ---------------- *)

let test_overload_stats_algebra () =
  let t = Storage.Stats.create () in
  Storage.Stats.(incr t Shed);
  Storage.Stats.(incr t Shed);
  Storage.Stats.(incr t Timed_out);
  Storage.Stats.(incr t Breaker_open);
  Storage.Stats.(incr t Stale_epoch_served);
  let s = Storage.Stats.snapshot t in
  check_int "shed snapshot" 2 Storage.Stats.(summary_count s Shed);
  check_int "timed_out snapshot" 1 Storage.Stats.(summary_count s Timed_out);
  let m = Storage.Stats.merge s s in
  check "merge sums overload counters" true
    Storage.Stats.(
      summary_count m Shed = 4
      && summary_count m Timed_out = 2
      && summary_count m Breaker_open = 2
      && summary_count m Stale_epoch_served = 2);
  check "zero is unit on overload counters" true
    (Storage.Stats.merge Storage.Stats.zero s = s);
  let acc = Storage.Stats.create () in
  Storage.Stats.absorb acc m;
  check_int "absorb folds shed" 4 Storage.Stats.(count acc Shed);
  let json = Storage.Stats.summary_to_json s in
  List.iter
    (fun key -> check (key ^ " in JSON") true (contains ~needle:("\"" ^ key ^ "\"") json))
    [ "shed"; "timed_out"; "breaker_open"; "stale_epoch_served" ];
  Storage.Stats.reset t;
  check_int "reset clears overload counters" 0 Storage.Stats.(count t Shed)

(* ---------------- scrub deadline ---------------- *)

let test_scrub_deadline () =
  let store, path = Workload.Generator.build (small_spec ~seed:41 ()) in
  let m = Gom.Path.arity path - 1 in
  let index = Core.Asr.create store path Core.Extension.Full (D.binary ~m) in
  let report = Integrity.Scrub.run ~deadline:(Deadline.none ()) index in
  check "undeadlined scrub is clean" true (Integrity.Scrub.clean report);
  check "budgeted scrub expires between partition audits" true
    (try
       ignore (Integrity.Scrub.run ~deadline:(Deadline.at_checkpoint 1) index);
       false
     with Deadline.Expired -> true)

let suite =
  [
    Alcotest.test_case "deadline basics" `Quick test_deadline_basics;
    Qc.to_alcotest prop_deadline_exact_or_expired;
    Alcotest.test_case "serve_deadlined: exact or typed timeout" `Quick
      test_serve_deadlined_exact_and_timeout;
    Alcotest.test_case "pool: typed per-chunk errors" `Quick test_pool_typed_chunk_errors;
    Alcotest.test_case "raising probe fails alone" `Quick test_raising_probe_fails_alone;
    Alcotest.test_case "token bucket" `Quick test_token_bucket;
    Alcotest.test_case "breaker trip/half-open/backoff protocol" `Quick
      test_breaker_protocol;
    Alcotest.test_case "breaker jitter is seeded-deterministic" `Quick
      test_breaker_jitter_deterministic;
    Alcotest.test_case "shed policy: reject newest" `Quick test_policy_reject_newest;
    Alcotest.test_case "shed policy: reject oldest" `Quick test_policy_reject_oldest;
    Alcotest.test_case "shed policy: deadline aware" `Quick test_policy_deadline_aware;
    Alcotest.test_case "queue expiry resolves Timeout" `Quick test_queue_expiry_is_timeout;
    Alcotest.test_case "per-client rate limiting" `Quick test_rate_limit_per_client;
    Qc.to_alcotest prop_accounting_identity;
    Alcotest.test_case "brownout defers publication, then catches up" `Quick
      test_brownout_defers_publication;
    Alcotest.test_case "open breaker keeps serving stale" `Quick
      test_brownout_breaker_open_keeps_serving;
    Alcotest.test_case "spawned dispatcher closed-loop smoke" `Quick
      test_spawned_dispatcher_smoke;
    Alcotest.test_case "overload counters: merge/json/absorb/reset" `Quick
      test_overload_stats_algebra;
    Alcotest.test_case "scrub yields at deadline checkpoints" `Quick test_scrub_deadline;
  ]
