(* Cost-based query engine over access support relations.

   The engine owns the registered ASRs for one object base, measures (or
   accepts) statistical profiles, enumerates the legal physical
   strategies for a Q^(i,j) query (Definitions 3.4-3.8 decide which
   extensions apply), prices every strategy with the paper's analytical
   cost model (equations 31-35) fed by live profiles, caches the winning
   plan per query shape, and executes plans either probe-at-a-time or
   batched across many probes sharing B+ tree descents and leaf pages. *)

module QC = Costmodel.Query_cost

(* ------------------------------------------------------------------ *)
(* Physical plan IR                                                    *)
(* ------------------------------------------------------------------ *)

module Plan = struct
  type dir = Core.Exec.dir = Fwd | Bwd

  let dir_to_string = function Fwd -> "fw" | Bwd -> "bw"

  (* The section 5.6 walk is defined once, in Core.Exec. *)
  type step = Core.Exec.step =
    | Lookup of { part : int; enter : int; leave : int }
    | Scan of { part : int; enter : int; leave : int }

  type t =
    | Nav of { path : Gom.Path.t; i : int; j : int }
        (** Forward pointer-chasing through the object graph. *)
    | Extent_scan of { path : Gom.Path.t; i : int; j : int }
        (** Backward by exhaustive search over the extent of [t_i]. *)
    | Stitch of {
        index : Core.Asr.t;
        dir : dir;
        i : int;
        j : int;  (** Object positions within the {e index's} path. *)
        steps : step list;
      }  (** Prefix/suffix stitch across the index's decomposition. *)

  let step_to_string = function
    | Lookup { part; enter; _ } -> Printf.sprintf "lookup(p%d@c%d)" part enter
    | Scan { part; enter; _ } -> Printf.sprintf "scan(p%d@c%d)" part enter

  let to_string = function
    | Nav { path; i; j } ->
      Printf.sprintf "nav fw(%d,%d) over %s" i j (Gom.Path.to_string path)
    | Extent_scan { path; i; j } ->
      Printf.sprintf "extent-scan bw(%d,%d) over %s" i j (Gom.Path.to_string path)
    | Stitch { index; dir; i; j; steps } ->
      Printf.sprintf "asr %s(%d,%d) %s/%s on %s [%s]" (dir_to_string dir) i j
        (Core.Extension.name (Core.Asr.kind index))
        (Core.Decomposition.to_string (Core.Asr.decomposition index))
        (Gom.Path.to_string (Core.Asr.path index))
        (String.concat " ; " (List.map step_to_string steps))
end

(* ------------------------------------------------------------------ *)
(* Application profiles as exact counters                              *)
(* ------------------------------------------------------------------ *)

(* Figure 3's statistics of one path, kept as integers: one walk over the
   deep extents fills them, and [advance] keeps them exact from store
   events, the way section 6 keeps the ASRs themselves current.  The
   floats are computed in [to_profile] alone, so a tracked profile and a
   fresh measurement are structurally equal. *)
module Counters = struct
  type level = {
    step : Gom.Path.step;  (* A(i+1), held by the deep extent of t_i *)
    mutable defined : int;  (* holders with A(i+1) instantiated: d_i *)
    mutable refs : int;  (* references, summed over the holders *)
    targets : (Gom.Value.t, int) Hashtbl.t;  (* referenced targets, with multiplicity *)
    holders : (Gom.Oid.t, int) Hashtbl.t;  (* set-valued A(i+1): holders of each set *)
  }

  type t = {
    types : Gom.Schema.type_name array;  (* t_0 .. t_n *)
    atomic : bool array;
    extents : int array;  (* deep extent count of each non-atomic t_i *)
    levels : level array;  (* [levels.(i)] describes A(i+1) *)
    mutable cached : Costmodel.Profile.t option;  (* until a counter moves *)
  }

  let bump tbl key k =
    let c = k + Option.value ~default:0 (Hashtbl.find_opt tbl key) in
    if c = 0 then Hashtbl.remove tbl key else Hashtbl.replace tbl key c

  let reference l target k =
    l.refs <- l.refs + k;
    bump l.targets target k

  (* Add ([k = 1]) or retract ([k = -1]) one holder whose attribute holds
     [v]; a set-valued holder brings its set's current elements along. *)
  let hold ~elements l (v : Gom.Value.t) k =
    match v with
    | Null -> ()
    | v -> (
      l.defined <- l.defined + k;
      match l.step.Gom.Path.set_type with
      | None -> reference l v k
      | Some _ ->
        let s = Gom.Value.oid_exn v in
        bump l.holders s k;
        List.iter (fun e -> reference l e k) (elements s))

  let walk view path =
    let n = Gom.Path.length path in
    let elements = Gom.Store_view.elements view in
    let level i =
      let step = Gom.Path.step path (i + 1) in
      let l =
        { step; defined = 0; refs = 0; targets = Hashtbl.create 64; holders = Hashtbl.create 16 }
      in
      List.iter
        (fun o -> hold ~elements l (Gom.Store_view.get_attr view o step.Gom.Path.attr) 1)
        (Gom.Store_view.extent ~deep:true view step.Gom.Path.domain);
      l
    in
    let types = Array.init (n + 1) (Gom.Path.type_at path) in
    let atomic = Array.map (Gom.Schema.is_atomic (Gom.Store_view.schema view)) types in
    {
      types;
      atomic;
      extents =
        Array.mapi
          (fun i ty -> if atomic.(i) then 0 else Gom.Store_view.count ~deep:true view ty)
          types;
      levels = Array.init n level;
      cached = None;
    }

  let to_profile ~sizes cn =
    let n = Array.length cn.levels in
    let levels = Array.to_list cn.levels in
    let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den in
    (* An elementary terminal type's "extent" is the set of distinct
       values actually referenced (their value is their identity). *)
    let count i =
      if cn.atomic.(i) then Hashtbl.length cn.levels.(n - 1).targets else cn.extents.(i)
    in
    let c = List.init (n + 1) (fun i -> float_of_int (max 1 (count i))) in
    let d = List.map (fun l -> float_of_int l.defined) levels in
    let fan = List.map (fun l -> ratio l.refs l.defined) levels in
    let shar = List.map (fun l -> ratio l.refs (Hashtbl.length l.targets)) levels in
    let sizes = Array.to_list (Array.map (fun ty -> float_of_int (max 1 (sizes ty))) cn.types) in
    Costmodel.Profile.make ~sizes ~shar ~c ~d ~fan ()

  let profile ~sizes cn =
    match cn.cached with
    | Some p -> p
    | None ->
      let p = to_profile ~sizes cn in
      cn.cached <- Some p;
      p

  (* Advance by one event, which the store already shows.  [false] when
     the counters cannot stay exact: removing an element from a list
     drops all its copies at once, and the event does not say how many
     there were. *)
  let advance store cn (ev : Gom.Store.event) =
    let schema = Gom.Store.schema store in
    let elements = Gom.Store.elements store in
    let moved = ref false in
    let exact = ref true in
    let extent ty k =
      Array.iteri
        (fun i sup ->
          if (not cn.atomic.(i)) && Gom.Schema.is_subtype schema ~sub:ty ~sup then begin
            cn.extents.(i) <- cn.extents.(i) + k;
            moved := true
          end)
        cn.types
    in
    let in_set set elem k =
      Array.iter
        (fun l ->
          match Hashtbl.find_opt l.holders set with
          | None -> ()
          | Some h ->
            if k < 0
               && (match Gom.Schema.find schema (Gom.Store.type_of store set) with
                  | Some (Gom.Schema.List _) -> true
                  | _ -> false)
            then exact := false;
            reference l elem (h * k);
            moved := true)
        cn.levels
    in
    (match ev with
    | Created o -> extent (Gom.Store.type_of store o) 1
    | Deleted { ty; _ } -> extent ty (-1)
    | Attr_set { obj; attr; old_value; new_value } ->
      Array.iter
        (fun l ->
          if String.equal l.step.Gom.Path.attr attr
             && Gom.Schema.is_subtype schema ~sub:(Gom.Store.type_of store obj)
                  ~sup:l.step.Gom.Path.domain
          then begin
            hold ~elements l old_value (-1);
            hold ~elements l new_value 1;
            moved := true
          end)
        cn.levels
    | Set_inserted { set; elem } -> in_set set elem 1
    | Set_removed { set; elem } -> in_set set elem (-1));
    if !moved then cn.cached <- None;
    !exact
end

(* ------------------------------------------------------------------ *)
(* Engine state                                                        *)
(* ------------------------------------------------------------------ *)

type candidate = { plan : Plan.t; est_cost : float }

type choice = {
  chosen : Plan.t;
  est_cost : float;
  candidates : candidate list;  (** All priced strategies, cheapest first. *)
}

type cache_info = {
  hits : int;
  misses : int;
  invalidations : int;
  entries : int;
  profile_walks : int;
}

type key = { k_path : string; k_i : int; k_j : int; k_dir : Plan.dir }

type entry = { e_choice : choice; e_generation : int; e_warmth : int list }
(* [e_warmth] is the buffer-warmth fingerprint the plan was priced
   under: one decile bucket per segment (heap first, then registered
   indexes), [-1] for segments with no measured traffic, [] for
   unbuffered environments.  A cached plan is only reused while the
   fingerprint still matches — warming or cooling the pool re-plans, so
   nav/ASR choices can flip between cold and warm without waiting for a
   store mutation to bump the generation. *)

type t = {
  env : Core.Exec.env;
  lock : Mutex.t;
      (* Guards every mutable field below.  The engine is shared by the
         parallel server's worker domains: plan-cache lookups, counter
         updates, generation bumps and profile upkeep all happen under
         this lock; the expensive parts (candidate pricing, snapshot
         profile measurement, plan execution) run outside it. *)
  mutable indexes : Core.Asr.t list;
  mutable generation : int;
      (* Bumped on every store mutation and on index (un)registration;
         cached plans from older generations are stale. *)
  cache : (key, entry) Hashtbl.t;
  tracked : (string, Counters.t) Hashtbl.t;
      (* Live-base profiles by path, advanced by every store event. *)
  snapshots : (string, int * Costmodel.Profile.t) Hashtbl.t;
      (* Frozen readers' profiles by path: the newest epoch measured. *)
  pinned : (string, Costmodel.Profile.t) Hashtbl.t;
  mutable walks : int;  (* full extent walks, live or snapshot *)
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  sizes : Gom.Schema.type_name -> int;
  mutable health : (Core.Asr.t -> part:int -> bool) option;
      (* Consulted by the planner and the execution guards: [None] means
         every registered index is trusted; the integrity registry
         installs a callback so quarantined indexes/partitions are
         priced out and stale plans refuse to run. *)
  mutable freshness : freshness_mode;
      (* What planning and execution do with an index whose deferred
         maintenance buffers hold pending deltas (the freshness
         watermark).  Catch_up keeps deferred maintenance invisible to
         answers by flushing on first use; Degrade prices the stale
         index out and falls back to always-live plans — also exact,
         since navigation and extent scans never consult the trees. *)
  mutable subscription : Gom.Store.subscription option;  (* [None] once closed *)
}

and freshness_mode = Catch_up | Degrade

let with_lock t f = Mutex.protect t.lock f

exception Stale_plan
(* Internal: an execution guard met a plan stitching through an index
   that is no longer registered (or no longer healthy).  The high-level
   entry points catch it and degrade to the always-live navigational
   plan; the explicit [run_forward]/[run_backward] API surfaces it as
   Invalid_argument, as before. *)

let env t = t.env
let indexes t = with_lock t (fun () -> t.indexes)
let generation t = with_lock t (fun () -> t.generation)

(* Per-domain execution environments: workers pass their own [env]
   (a frozen snapshot view of the same lineage, private stats sheaf) so
   page accounting never races; [None] means the engine's own (live)
   environment. *)
let resolve_env t = function
  | None -> t.env
  | Some (e : Core.Exec.env) ->
    if not (Gom.Store_view.same_base e.Core.Exec.view t.env.Core.Exec.view) then
      invalid_arg "Engine: execution environment over a different store";
    e

let healthy_with health a ~part =
  match health with None -> true | Some f -> f a ~part

let invalidate_plans t = with_lock t (fun () -> t.generation <- t.generation + 1)

let set_health t f =
  with_lock t (fun () ->
      t.health <- Some f;
      t.generation <- t.generation + 1)

let clear_health t =
  with_lock t (fun () ->
      t.health <- None;
      t.generation <- t.generation + 1)

let freshness t = with_lock t (fun () -> t.freshness)

let set_freshness t mode =
  with_lock t (fun () ->
      t.freshness <- mode;
      t.generation <- t.generation + 1)

(* The freshness watermark: may [a] be stitched through right now?
   Always true for an index with no pending deltas (the common case is
   one buffer-size read per partition).  Otherwise Catch_up drains the buffers — charged
   to the caller's stats, so the first query over a stale index pays the
   catch-up — and Degrade refuses, which sends the planner or execution
   guard to navigation / extent scan. *)
let index_fresh ~env t a =
  Core.Asr.pending_deltas a = 0
  ||
  let stats = env.Core.Exec.stats in
  match with_lock t (fun () -> t.freshness) with
  | Catch_up ->
    ignore (Core.Asr.flush ~stats a);
    Storage.Stats.(incr stats Catchup_flushes);
    true
  | Degrade ->
    Storage.Stats.(incr stats Freshness_degradations);
    false

(* May this environment walk the index's B+ trees right now?

   A snapshot environment carries version marks pinned at publication:
   the trees are usable iff they still sit at the pinned version, which
   means they reflect exactly the environment's epoch (publication
   flushes every buffer first, so pending deltas are strictly {e future}
   work relative to the snapshot).  A frozen environment without a mark
   never touches the trees.  A live environment falls back to the
   freshness watermark — including Catch_up's flush-on-first-use, which
   must never run on behalf of a frozen reader (it would pull future
   writes into a published epoch). *)
let tree_guard ~env t a =
  match Core.Exec.mark_for env (Core.Asr.id a) with
  | Some v -> if Core.Asr.acquire_trees a ~version:v then `Acquired else `Refuse
  | None ->
    if Gom.Store_view.is_frozen env.Core.Exec.view then `Refuse
    else if index_fresh ~env t a then `Plain
    else `Refuse

let with_index_trees ~env t a f =
  match tree_guard ~env t a with
  | `Plain -> f ()
  | `Refuse -> raise Stale_plan
  | `Acquired -> Fun.protect ~finally:(fun () -> Core.Asr.release_trees a) f

(* Planning-time mirror of [tree_guard] that never takes the reader
   slot: pricing only needs to know whether execution would succeed
   (execution re-guards with the real bracket). *)
let index_usable ~env t a =
  match Core.Exec.mark_for env (Core.Asr.id a) with
  | Some v -> Core.Asr.tree_version a = v
  | None ->
    (not (Gom.Store_view.is_frozen env.Core.Exec.view)) && index_fresh ~env t a

let create ?(sizes = fun _ -> 100) env =
  let t =
    {
      env;
      lock = Mutex.create ();
      indexes = [];
      generation = 0;
      cache = Hashtbl.create 64;
      tracked = Hashtbl.create 8;
      snapshots = Hashtbl.create 8;
      pinned = Hashtbl.create 4;
      walks = 0;
      hits = 0;
      misses = 0;
      invalidations = 0;
      sizes;
      health = None;
      freshness = Catch_up;
      subscription = None;
    }
  in
  let store = Core.Exec.live_store_exn env in
  t.subscription <-
    Some
      (Gom.Store.subscribe store (fun event ->
           with_lock t (fun () ->
               t.generation <- t.generation + 1;
               Hashtbl.filter_map_inplace
                 (fun _ cn -> if Counters.advance store cn event then Some cn else None)
                 t.tracked)));
  t

let close t =
  Option.iter (Gom.Store.unsubscribe (Core.Exec.live_store_exn t.env)) t.subscription;
  t.subscription <- None

let register t a =
  if not (Core.Asr.store a == Gom.Store_view.base t.env.Core.Exec.view) then
    invalid_arg "Engine.register: index built over a different store";
  with_lock t (fun () ->
      if not (List.memq a t.indexes) then begin
        t.indexes <- t.indexes @ [ a ];
        t.generation <- t.generation + 1
      end)

let plan_uses a (p : Plan.t) =
  match p with
  | Plan.Stitch { index; _ } -> index == a
  | Plan.Nav _ | Plan.Extent_scan _ -> false

let unregister t a =
  with_lock t (fun () ->
      if List.memq a t.indexes then begin
        t.indexes <- List.filter (fun x -> not (x == a)) t.indexes;
        t.generation <- t.generation + 1;
        (* Generation alone would re-plan lazily; evicting eagerly also
           frees the entries and guarantees no path — not even an explicit
           [run_forward] of a cached choice — can reach the dropped index. *)
        let victims =
          Hashtbl.fold
            (fun k e acc -> if plan_uses a e.e_choice.chosen then k :: acc else acc)
            t.cache []
        in
        List.iter (Hashtbl.remove t.cache) victims;
        t.invalidations <- t.invalidations + List.length victims
      end)

let step_part (s : Plan.step) =
  match s with Plan.Lookup { part; _ } | Plan.Scan { part; _ } -> part

let stitch_usable_with indexes health index steps =
  List.memq index indexes
  && List.for_all (fun s -> healthy_with health index ~part:(step_part s)) steps

(* Execution-time guard: re-reads the registration and health state
   under the lock (callers hold no lock). *)
let stitch_usable t index steps =
  let indexes, health = with_lock t (fun () -> (t.indexes, t.health)) in
  stitch_usable_with indexes health index steps

(* A plan is live when every index it stitches through is still
   registered and fully healthy over the partitions it visits. *)
let plan_live_with indexes health (p : Plan.t) =
  match p with
  | Plan.Nav _ | Plan.Extent_scan _ -> true
  | Plan.Stitch { index; steps; _ } -> stitch_usable_with indexes health index steps

let cache_info t =
  with_lock t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        invalidations = t.invalidations;
        entries = Hashtbl.length t.cache;
        profile_walks = t.walks;
      })

(* ------------------------------------------------------------------ *)
(* Profiles                                                            *)
(* ------------------------------------------------------------------ *)

let measure_profile_view ?(sizes = fun _ -> 100) view path =
  Counters.to_profile ~sizes (Counters.walk view path)

let measure_profile ?sizes store path =
  measure_profile_view ?sizes (Gom.Store_view.live store) path

let set_profile t path prof =
  with_lock t (fun () ->
      Hashtbl.replace t.pinned (Gom.Path.to_string path) prof;
      t.generation <- t.generation + 1)

(* A pinned profile wins.  Otherwise the live base is priced from its
   counters, walked once on the path's first request and kept exact
   from store events after that; the walk runs under the lock, so no
   event slips between it and the first advance.  A frozen reader
   measures its own snapshot outside the lock (immutable, so the walk
   never races the writer) and never touches the counters, which
   describe the live base only; the result is exact for the snapshot's
   epoch and memoised under it, newest epoch per path. *)
let profile_in ~env t path =
  let key = Gom.Path.to_string path in
  let view = env.Core.Exec.view in
  if not (Gom.Store_view.is_frozen view) then
    with_lock t (fun () ->
        match Hashtbl.find_opt t.pinned key with
        | Some p -> p
        | None ->
          let cn =
            match Hashtbl.find_opt t.tracked key with
            | Some cn -> cn
            | None ->
              let cn = Counters.walk view path in
              t.walks <- t.walks + 1;
              Hashtbl.replace t.tracked key cn;
              cn
          in
          Counters.profile ~sizes:t.sizes cn)
  else
    let epoch = Gom.Store_view.epoch view in
    let memoised =
      with_lock t (fun () ->
          match Hashtbl.find_opt t.pinned key with
          | Some p -> Some p
          | None -> (
            match Hashtbl.find_opt t.snapshots key with
            | Some (e, p) when e = epoch -> Some p
            | _ -> None))
    in
    match memoised with
    | Some p -> p
    | None ->
      let p = measure_profile_view ~sizes:t.sizes view path in
      with_lock t (fun () ->
          t.walks <- t.walks + 1;
          match Hashtbl.find_opt t.snapshots key with
          | Some (e, _) when e > epoch -> ()
          | _ -> Hashtbl.replace t.snapshots key (epoch, p));
      p

let profile t path = profile_in ~env:t.env t path

(* ------------------------------------------------------------------ *)
(* Planning                                                            *)
(* ------------------------------------------------------------------ *)

(* Object-position offset at which the query path embeds in an index
   path: the index positions off..off+n spell exactly the query's
   anchor type and attribute chain. *)
let embedding_offset ~index_path ~query_path =
  let np = Gom.Path.length index_path in
  let len = Gom.Path.length query_path in
  let anchor = Gom.Path.type_at query_path 0 in
  let attrs = List.map (fun s -> s.Gom.Path.attr) query_path.Gom.Path.steps in
  let fits off =
    String.equal (Gom.Path.type_at index_path off) anchor
    && List.for_all2
         (fun k attr ->
           String.equal (Gom.Path.step index_path (off + k)).Gom.Path.attr attr)
         (List.init len (fun k -> k + 1))
         attrs
  in
  let rec go off =
    if off + len > np then None else if fits off then Some off else go (off + 1)
  in
  go 0

(* The analytical model works on object positions (its m = n
   simplification drops set-OID columns); map a physical decomposition's
   boundaries accordingly, discarding boundaries that sit on set
   columns. *)
let analytic_decomposition path dec =
  let n = Gom.Path.length path in
  let bounds =
    Core.Decomposition.boundaries dec
    |> List.filter_map (fun col -> Gom.Path.object_position_of_column path col)
    |> List.sort_uniq Int.compare
  in
  let bounds = if List.mem 0 bounds then bounds else 0 :: bounds in
  let bounds =
    if List.mem n bounds then bounds else List.sort_uniq Int.compare (n :: bounds)
  in
  Core.Decomposition.make ~m:n bounds

let qkind = function Plan.Fwd -> QC.Fw | Plan.Bwd -> QC.Bw

(* Buffer warmth, summarised per segment as a decile bucket (-1 when
   the segment has no measured traffic).  The fingerprint orders the
   heap first, then the registered indexes. *)
let warmth_bucket = function
  | None -> -1
  | Some r -> int_of_float (Float.min 0.99 (Float.max 0. r) *. 10.)

let warmth_fingerprint ~env indexes =
  let st = env.Core.Exec.stats in
  if not (Storage.Stats.has_buffer st) then []
  else
    warmth_bucket (Storage.Stats.segment_hit_ratio st "heap")
    :: List.map
         (fun a -> warmth_bucket (Storage.Stats.segment_hit_ratio st (Core.Asr.seg a)))
         indexes

let check_range path ~i ~j =
  let n = Gom.Path.length path in
  if not (0 <= i && i < j && j <= n) then
    invalid_arg (Printf.sprintf "Engine: invalid query range (%d,%d) for n=%d" i j n)

let candidates ?env t path ~i ~j ~dir =
  let env = resolve_env t env in
  check_range path ~i ~j;
  (* One consistent view of the registrations and health for the whole
     enumeration; pricing happens outside the lock. *)
  let indexes, health = with_lock t (fun () -> (t.indexes, t.health)) in
  let prof_q = profile_in ~env t path in
  let nav_plan =
    match (dir : Plan.dir) with
    | Fwd -> Plan.Nav { path; i; j }
    | Bwd -> Plan.Extent_scan { path; i; j }
  in
  (* Buffer-aware pricing: equations 31-35 assume every access faults;
     scale each candidate by the measured hit ratio of the segment it
     would actually touch (navigation and extent scans read heap pages,
     a stitch reads its index's trees), so nav-vs-ASR choices flip
     correctly between cold and warm cache. *)
  let seg_ratio seg = Storage.Stats.segment_hit_ratio env.Core.Exec.stats seg in
  let nav =
    { plan = nav_plan;
      est_cost = QC.warmed (QC.qnas prof_q (qkind dir) i j) ~hit_ratio:(seg_ratio "heap") }
  in
  let whole ipath off = off = 0 && Gom.Path.length ipath = Gom.Path.length path in
  let degraded = ref false in
  let supported =
    List.filter_map
      (fun a ->
        let ipath = Core.Asr.path a in
        match embedding_offset ~index_path:ipath ~query_path:path with
        | Some off when Core.Asr.supports a ~i:(off + i) ~j:(off + j) ->
          let pi = off + i and pj = off + j in
          let steps = Core.Exec.stitch_steps a dir ~i:pi ~j:pj in
          if not (stitch_usable_with indexes health a steps) then begin
            (* The index embeds the path and supports the range, but is
               quarantined over a partition this walk would visit: plan
               around it. *)
            degraded := true;
            None
          end
          else if not (index_usable ~env t a) then
            (* The trees are out of reach for this environment: version
               moved past a snapshot's pin, a frozen env without a mark,
               or pending deltas under Degrade.  Price the index out;
               the always-live plans below stay exact. *)
            None
          else begin
            let prof_i = if whole ipath off then prof_q else profile_in ~env t ipath in
            let dec = analytic_decomposition ipath (Core.Asr.decomposition a) in
            let est =
              QC.warmed
                (QC.qsup prof_i (Core.Asr.kind a) dec (qkind dir) pi pj)
                ~hit_ratio:(seg_ratio (Core.Asr.seg a))
            in
            Some
              { plan = Plan.Stitch { index = a; dir; i = pi; j = pj; steps }; est_cost = est }
          end
        | _ -> None)
      indexes
  in
  if !degraded then Storage.Stats.(incr env.Core.Exec.stats Fallbacks);
  (* Cheapest first; on a cost tie a supported plan beats navigation
     (matching equation 35's dispatch when the model cannot separate
     them). *)
  let rank (c : candidate) = match c.plan with Plan.Stitch _ -> 0 | _ -> 1 in
  List.sort
    (fun (a : candidate) (b : candidate) ->
      match Float.compare a.est_cost b.est_cost with
      | 0 -> Int.compare (rank a) (rank b)
      | c -> c)
    (nav :: supported)

let choose_aux ?env t path ~i ~j ~dir =
  check_range path ~i ~j;
  let key = { k_path = Gom.Path.to_string path; k_i = i; k_j = j; k_dir = dir } in
  let renv = resolve_env t env in
  let fp = warmth_fingerprint ~env:renv (with_lock t (fun () -> t.indexes)) in
  let hit =
    with_lock t (fun () ->
        match Hashtbl.find_opt t.cache key with
        | Some e
          when e.e_generation = t.generation
               && e.e_warmth = fp
               && plan_live_with t.indexes t.health e.e_choice.chosen ->
          t.hits <- t.hits + 1;
          Some (e.e_choice, true)
        | stale ->
          if Option.is_some stale then begin
            Hashtbl.remove t.cache key;
            t.invalidations <- t.invalidations + 1
          end;
          t.misses <- t.misses + 1;
          None)
  in
  match hit with
  | Some r -> r
  | None ->
    (* Plan outside the lock, then re-check the generation before
       publishing: a plan priced against state that has since moved
       (concurrent register/unregister/quarantine/mutation) is returned
       to this caller but never cached, so no other domain can hit it. *)
    let gen0 = with_lock t (fun () -> t.generation) in
    let cands = candidates ?env t path ~i ~j ~dir in
    let best = List.hd cands in
    let choice = { chosen = best.plan; est_cost = best.est_cost; candidates = cands } in
    with_lock t (fun () ->
        if t.generation = gen0 then
          Hashtbl.replace t.cache key
            { e_choice = choice; e_generation = gen0; e_warmth = fp });
    (choice, false)

let choose ?env t path ~i ~j ~dir = fst (choose_aux ?env t path ~i ~j ~dir)

(* ------------------------------------------------------------------ *)
(* Execution: one probe                                                *)
(* ------------------------------------------------------------------ *)

(* Run a stitch plan's own steps, one frontier per probe, behind the
   execution guards: the partitions the planner health-checked are, by
   construction, the partitions read. *)
let run_stitch ~env t index steps ~lookup probes =
  if not (stitch_usable t index steps) then raise Stale_plan;
  with_index_trees ~env t index (fun () ->
      Core.Exec.stitch env index ~lookup steps
        (Array.of_list (List.map (fun p -> [ p ]) probes)))

let oids vs = List.map Gom.Value.oid_exn vs |> List.sort_uniq Gom.Oid.compare

let run_forward_exn ~env t plan oid =
  match (plan : Plan.t) with
  | Nav { path; i; j } -> Core.Exec.forward_scan env path ~i ~j oid
  | Stitch { index; dir = Fwd; steps; _ } ->
    let lookup = Core.Exec.lookup_each env index Fwd in
    (run_stitch ~env t index steps ~lookup [ Gom.Value.Ref oid ]).(0)
  | Stitch { dir = Bwd; _ } | Extent_scan _ ->
    invalid_arg "Engine.run_forward: backward plan"

let run_forward ?env t plan oid =
  let env = resolve_env t env in
  try run_forward_exn ~env t plan oid
  with Stale_plan ->
    invalid_arg "Engine.run_forward: plan uses an unregistered or quarantined index"

let run_backward_exn ~env t plan ~target =
  match (plan : Plan.t) with
  | Extent_scan { path; i; j } -> Core.Exec.backward_scan env path ~i ~j ~target
  | Stitch { index; dir = Bwd; steps; _ } ->
    let lookup = Core.Exec.lookup_each env index Bwd in
    oids (run_stitch ~env t index steps ~lookup [ target ]).(0)
  | Stitch { dir = Fwd; _ } | Nav _ -> invalid_arg "Engine.run_backward: forward plan"

let run_backward ?env t plan ~target =
  let env = resolve_env t env in
  try run_backward_exn ~env t plan ~target
  with Stale_plan ->
    invalid_arg "Engine.run_backward: plan uses an unregistered or quarantined index"

(* A chosen plan can go stale between planning and execution when
   another domain races an unregister or a quarantine.  Readers then
   degrade to the always-live navigational strategy (recorded as a
   fallback, plans invalidated) — never a wrong answer, never a
   crashed query. *)

let nav_fallback ~env t path ~i ~j oid =
  Storage.Stats.(incr env.Core.Exec.stats Fallbacks);
  invalidate_plans t;
  run_forward_exn ~env t (Plan.Nav { path; i; j }) oid

let scan_fallback ~env t path ~i ~j ~target =
  Storage.Stats.(incr env.Core.Exec.stats Fallbacks);
  invalidate_plans t;
  run_backward_exn ~env t (Plan.Extent_scan { path; i; j }) ~target

let forward ?env t path ~i ~j oid =
  let env = resolve_env t env in
  let c = choose ~env t path ~i ~j ~dir:Plan.Fwd in
  Storage.Stats.begin_op env.Core.Exec.stats;
  try run_forward_exn ~env t c.chosen oid
  with Stale_plan -> nav_fallback ~env t path ~i ~j oid

let backward ?env t path ~i ~j ~target =
  let env = resolve_env t env in
  let c = choose ~env t path ~i ~j ~dir:Plan.Bwd in
  Storage.Stats.begin_op env.Core.Exec.stats;
  try run_backward_exn ~env t c.chosen ~target
  with Stale_plan -> scan_fallback ~env t path ~i ~j ~target

(* ------------------------------------------------------------------ *)
(* Execution: batched probes                                           *)
(* ------------------------------------------------------------------ *)

let forward_batch ?env t path ~i ~j oids =
  let env = resolve_env t env in
  let c = choose ~env t path ~i ~j ~dir:Plan.Fwd in
  Storage.Stats.begin_op env.Core.Exec.stats;
  let probes = List.sort_uniq Gom.Oid.compare oids in
  match c.chosen with
  | Plan.Stitch { index; steps; _ } -> (
    try
      let lookup = Core.Exec.lookup_many env index Fwd in
      let refs = List.map (fun o -> Gom.Value.Ref o) probes in
      let finals = run_stitch ~env t index steps ~lookup refs in
      List.mapi (fun k o -> (o, finals.(k))) probes
    with Stale_plan ->
      List.map (fun o -> (o, nav_fallback ~env t path ~i ~j o)) probes)
  | plan ->
    List.map
      (fun o ->
        ( o,
          try run_forward_exn ~env t plan o
          with Stale_plan -> nav_fallback ~env t path ~i ~j o ))
      probes

let backward_batch ?env t path ~i ~j ~targets =
  let env = resolve_env t env in
  let c = choose ~env t path ~i ~j ~dir:Plan.Bwd in
  Storage.Stats.begin_op env.Core.Exec.stats;
  let probes = List.sort_uniq Gom.Value.compare targets in
  match c.chosen with
  | Plan.Stitch { index; steps; _ } -> (
    try
      let lookup = Core.Exec.lookup_many env index Bwd in
      let finals = run_stitch ~env t index steps ~lookup probes in
      List.mapi (fun k v -> (v, oids finals.(k))) probes
    with Stale_plan ->
      List.map (fun v -> (v, scan_fallback ~env t path ~i ~j ~target:v)) probes)
  | plan ->
    List.map
      (fun v ->
        ( v,
          try run_backward_exn ~env t plan ~target:v
          with Stale_plan -> scan_fallback ~env t path ~i ~j ~target:v ))
      probes

(* ------------------------------------------------------------------ *)
(* Explain                                                             *)
(* ------------------------------------------------------------------ *)

type explanation = {
  x_path : Gom.Path.t;
  x_i : int;
  x_j : int;
  x_dir : Plan.dir;
  x_choice : choice;
  x_cached : bool;
  x_generation : int;
}

let explain t path ~i ~j ~dir =
  let choice, cached = choose_aux t path ~i ~j ~dir in
  {
    x_path = path;
    x_i = i;
    x_j = j;
    x_dir = dir;
    x_choice = choice;
    x_cached = cached;
    x_generation = generation t;
  }

let explanation_to_string x =
  let b = Buffer.create 256 in
  Printf.bprintf b "query : %s(%d,%d) over %s\n" (Plan.dir_to_string x.x_dir) x.x_i
    x.x_j
    (Gom.Path.to_string x.x_path);
  Printf.bprintf b "plan  : %s\n" (Plan.to_string x.x_choice.chosen);
  Printf.bprintf b "cost  : %.1f estimated page accesses\n" x.x_choice.est_cost;
  Printf.bprintf b "cache : %s (generation %d)\n"
    (if x.x_cached then "hit" else "miss")
    x.x_generation;
  (match x.x_choice.candidates with
  | [] | [ _ ] -> ()
  | _ :: rest ->
    Buffer.add_string b "also considered:\n";
    List.iter
      (fun (c : candidate) ->
        Printf.bprintf b "  est %8.1f  %s\n" c.est_cost (Plan.to_string c.plan))
      rest);
  Buffer.contents b
