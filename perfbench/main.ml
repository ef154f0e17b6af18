(* The object-base benchmark.

   One process, one client, closed loop: the next operation is issued
   only after the previous one has returned.  Inputs come from --seed;
   every answer is checked against graph navigation outside the timed
   region; the last line of standard output is one JSON object.

     perfbench.exe --workload nav_read --seed 1 --seconds 8 --trace 0

   With --trace 0 the JSON carries the end-to-end metrics the workload
   has; with --trace 1 the run measures an untraced half and a traced
   half and the JSON carries the per-layer metrics.  perfbench/run.py
   keeps the ones BENCHMARK.json names. *)

let now = Trace.now
let span name f = Trace.span name f

(* ------------------------------------------------------------------ *)
(* Operations and answers                                              *)
(* ------------------------------------------------------------------ *)

type op =
  | Fwd of Gom.Oid.t
  | Bwd of Gom.Value.t
  | Fwd_batch of Gom.Oid.t list
  | Bwd_batch of Gom.Value.t list
  | Gql of string * Gom.Value.t  (** query text, tag it compares with *)
  | Ins of Gom.Oid.t * Gom.Oid.t * Gom.Value.t  (** anchor, its A1 set, element *)
  | Rem of Gom.Oid.t * Gom.Oid.t * Gom.Value.t
  | Txn of (Gom.Oid.t * Gom.Value.t) list  (** Tag assignments *)

let is_write = function Ins _ | Rem _ | Txn _ -> true | _ -> false

type answer =
  | Vals of Gom.Value.t list
  | Oids of Gom.Oid.t list
  | Fwd_rows of (Gom.Oid.t * Gom.Value.t list) list
  | Bwd_rows of (Gom.Value.t * Gom.Oid.t list) list
  | Rows of Gom.Value.t list list
  | Done

(* ------------------------------------------------------------------ *)
(* The base and its inputs                                             *)
(* ------------------------------------------------------------------ *)

(* The chain T0 -A1-> T1 -A2-> T2 -A3-> T3 with 25, 50, 100 and 200
   objects, about 90% of each level's references defined, fan 2 through
   set-valued attributes.  The base is the same in every run, like a
   loaded database; --seed draws the operations run against it.  It is
   small so that the process's working set stays close to a core's
   private cache: on a host whose last-level cache is shared with other
   tenants, the 21,300-object base (1000, 2000, 4000, 8000) ran up to
   1.8x slower for tens of seconds at a time as the other tenants' load
   changed, and its throughput spread over ten runs past any usable
   bound.  perfbench/README.md has the measurements. *)
let base_seed = 42

let base_spec =
  Workload.Generator.spec ~seed:base_seed ~counts:[ 25; 50; 100; 200 ]
    ~defined:[ 22; 45; 90 ] ~fan:[ 2; 2; 2 ] ()

type base = {
  spec : Workload.Generator.spec;
  store : Gom.Store.t;
  path : Gom.Path.t;  (** T0.A1.A2.A3 *)
  tag_path : Gom.Path.t;  (** T0.A1.A2.A3.Tag *)
}

let build_base () =
  let store, path = Workload.Generator.build base_spec in
  let tag_path = Gom.Path.make (Gom.Store.schema store) "T0" [ "A1"; "A2"; "A3"; "Tag" ] in
  { spec = base_spec; store; path; tag_path }

let n_of b = Gom.Path.length b.path

let full_binary p = Core.Decomposition.binary ~m:(Gom.Path.arity p - 1)

(* Zipf(1) sampling with [rng] over the items ranked by popularity: the
   ranking is a fixed permutation (drawn from [rank]), a property of the
   base like the base itself. *)
let zipf ~rank rng items =
  let a = Array.copy items in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rank (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  let n = Array.length a in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. (1.0 /. float (k + 1));
    cdf.(k) <- !acc
  done;
  fun () ->
    let u = Random.State.float rng !acc in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    a.(!lo)

let set_of store o =
  match Gom.Store.get_attr store o "A1" with Gom.Value.Ref s -> Some s | _ -> None

type sources = {
  anchor : unit -> Gom.Oid.t;  (** Zipf over T0 objects with a defined A1 *)
  target : unit -> Gom.Value.t;  (** Zipf over T3 objects *)
  tag : unit -> Gom.Value.t;  (** Zipf over T3 tags *)
  t1 : Gom.Oid.t array;
  rng : Random.State.t;
}

let sources b seed =
  let rng = Random.State.make [| seed; 0x0b5e |] in
  let rank = Random.State.make [| base_seed |] in
  let st = b.store in
  let t0 =
    Gom.Store.extent st "T0" |> List.filter (fun o -> set_of st o <> None) |> Array.of_list
  in
  let t3 = Array.of_list (Gom.Store.extent st "T3") in
  let anchor = zipf ~rank rng t0 in
  let target =
    let z = zipf ~rank rng t3 in
    fun () -> Gom.Value.Ref (z ())
  in
  let tag =
    let z = zipf ~rank rng t3 in
    fun () -> Gom.Store.get_attr st (z ()) "Tag"
  in
  { anchor; target; tag; t1 = Array.of_list (Gom.Store.extent st "T1"); rng }

let batch = 32

let gql_text tag =
  match tag with
  | Gom.Value.Str s -> Printf.sprintf {|select t from t in T0 where t.A1.A2.A3.Tag = "%s"|} s
  | _ -> invalid_arg "gql_text"

(* Reads of nav_read and mixed_rw: forward and backward over (0,n), a
   forward batch, and a GQL tag-equality query. *)
let fwd src = Fwd (src.anchor ())
let bwd src = Bwd (src.target ())
let fwd_batch src = Fwd_batch (List.init batch (fun _ -> src.anchor ()))
let bwd_batch src = Bwd_batch (List.init batch (fun _ -> src.target ()))

let gql src =
  let tag = src.tag () in
  Gql (gql_text tag, tag)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* [len] read shapes in exact shares, in seeded order: 40% forward, 30%
   backward, 10% forward batches, 20% GQL. *)
let read_kinds ~len src =
  shuffle src.rng
    (Array.init len (fun k ->
         let r = k * 100 / len in
         if r < 40 then fwd else if r < 70 then bwd else if r < 80 then fwd_batch else gql))

(* A write pair: insert an element the anchor's A1 set lacks, and later
   remove it again, so every round leaves the base as it found it. *)
let write_pair store src =
  let rec pick () =
    let a = src.anchor () in
    match set_of store a with
    | None -> pick ()
    | Some s ->
      let x = Gom.Value.Ref src.t1.(Random.State.int src.rng (Array.length src.t1)) in
      if List.exists (Gom.Value.equal x) (Gom.Store.elements store s) then pick ()
      else (Ins (a, s, x), Rem (a, s, x))
  in
  pick ()

(* A round of [groups] repetitions of a fixed pattern of slots: [None]
   is a write, [Some make] a read.  Writes alternate an insert and its
   matching remove; the pattern must hold an even number of writes per
   round.  A fixed pattern fixes how many reads directly follow a write
   — those pay the engine's profile re-measurement — so every round has
   the same mix of latency modes. *)
let patterned_round ~groups ~pattern store src =
  let pending = ref None in
  let slot = function
    | Some make -> make src
    | None -> (
      match !pending with
      | Some r ->
        pending := None;
        r
      | None ->
        let i, r = write_pair store src in
        pending := Some r;
        i)
  in
  let ops = Array.of_list (List.concat (List.init groups (fun _ -> List.map slot pattern))) in
  assert (!pending = None);
  ops

(* ------------------------------------------------------------------ *)
(* The navigation oracle                                               *)
(* ------------------------------------------------------------------ *)

module OS = Set.Make (Gom.Oid)

(* Forward answers of every anchor by [Core.Exec.forward_scan], and
   backward answers as their inversion — the same semantics as
   [Core.Exec.backward_scan], kept current by recomputing only the
   anchor a write touched.  Evaluated over its own accounting context,
   so it never moves the measured page counts. *)
module Oracle = struct
  type side = {
    path : Gom.Path.t;
    fwd : (Gom.Oid.t, Gom.Value.t list) Hashtbl.t;
    bwd : (Gom.Value.t, OS.t) Hashtbl.t;
  }

  type t = { env : Core.Exec.env; main : side; tags : side }

  let refresh_side env s a =
    let n = Gom.Path.length s.path in
    let old = Option.value ~default:[] (Hashtbl.find_opt s.fwd a) in
    List.iter
      (fun v ->
        Hashtbl.replace s.bwd v (OS.remove a (Option.value ~default:OS.empty (Hashtbl.find_opt s.bwd v))))
      old;
    let fresh = Core.Exec.forward_scan env s.path ~i:0 ~j:n a in
    Hashtbl.replace s.fwd a fresh;
    List.iter
      (fun v ->
        Hashtbl.replace s.bwd v (OS.add a (Option.value ~default:OS.empty (Hashtbl.find_opt s.bwd v))))
      fresh

  let refresh t a =
    refresh_side t.env t.main a;
    refresh_side t.env t.tags a

  let create b heap =
    let env = Core.Exec.make b.store heap in
    let side path = { path; fwd = Hashtbl.create 1024; bwd = Hashtbl.create 4096 } in
    let t = { env; main = side b.path; tags = side b.tag_path } in
    List.iter (refresh t) (Gom.Store.extent b.store "T0");
    t

  let forward t a = Option.value ~default:[] (Hashtbl.find_opt t.main.fwd a)

  let backward_in s v = OS.elements (Option.value ~default:OS.empty (Hashtbl.find_opt s.bwd v))

  let backward t v = backward_in t.main v

  (* The inversion must agree with the exhaustive backward scan. *)
  let spot_check t targets =
    let n = Gom.Path.length t.main.path in
    List.for_all
      (fun v -> Core.Exec.backward_scan t.env t.main.path ~i:0 ~j:n ~target:v = backward t v)
      targets

  let sorted_vals l = List.sort_uniq Gom.Value.compare l
  let sorted_oids l = List.sort_uniq Gom.Oid.compare l

  let check t op ans =
    match (op, ans) with
    | Fwd a, Vals v -> sorted_vals v = forward t a
    | Bwd v, Oids o -> sorted_oids o = backward t v
    | Fwd_batch ps, Fwd_rows rows ->
      let ps = List.sort_uniq Gom.Oid.compare ps in
      List.length rows = List.length ps
      && List.for_all2 (fun p (q, v) -> Gom.Oid.equal p q && sorted_vals v = forward t p) ps rows
    | Bwd_batch ts, Bwd_rows rows ->
      let ts = List.sort_uniq Gom.Value.compare ts in
      List.length rows = List.length ts
      && List.for_all2
           (fun v (w, o) -> Gom.Value.equal v w && sorted_oids o = backward t v)
           ts rows
    | Gql (_, tag), Rows rows ->
      let expect = List.map (fun o -> [ Gom.Value.Ref o ]) (backward_in t.tags tag) in
      List.sort compare rows = List.sort compare expect
    | (Ins (a, _, _) | Rem (a, _, _)), Done ->
      refresh t a;
      true
    | _ -> false
end

(* Every materialised relation must equal a from-scratch computation of
   its extension (restricted to its fragment on a shard). *)
let asr_matches store a =
  let truth = Core.Extension.compute store (Core.Asr.path a) (Core.Asr.kind a) in
  Relation.equal (Core.Asr.extension_relation a) (Core.Asr.restrict a truth)

(* ------------------------------------------------------------------ *)
(* Workload instances                                                  *)
(* ------------------------------------------------------------------ *)

(* Per-operation observations the traced run turns into layer metrics. *)
type probes = {
  mutable qerrors : float list;
  mutable checkpoint_ms : float list;
}

let probes = { qerrors = []; checkpoint_ms = [] }

let note_qerror est actual =
  if Trace.(!on) then begin
    let e = Float.max 1.0 est and a = Float.max 1.0 (float actual) in
    probes.qerrors <- Float.max (e /. a) (a /. e) :: probes.qerrors
  end

type inst = {
  rounds : op array array;  (** Distinct rounds, cycled; round 0 warms up. *)
  exec : traced:bool -> op -> answer;
  check : op -> answer -> bool;
  round_end : unit -> unit;  (** Work due at the end of every round. *)
  counters : unit -> (string * int) list;
      (** Cumulative counters; they must repeat exactly for a seed. *)
  space : unit -> int * int * int * int;
      (** objects, heap pages, ASR pages, Σ object bytes *)
  pool_pages : int;
  finish : unit -> (string * float) list * (string * bool) list;
      (** End-of-run work: extra metrics, and checks with their outcome. *)
  close : unit -> unit;
}

let page_size = Storage.Config.default.Storage.Config.page_size

let heap_pages heap store =
  List.fold_left
    (fun acc ty -> acc + Storage.Heap.pages_of_type heap ty)
    0 (Gom.Store.extent_types store)

let objects b = Gom.Store.fold_objects b.store ~init:0 ~f:(fun a _ -> a + 1)

let object_bytes b =
  List.fold_left
    (fun acc ty -> acc + (Gom.Store.count b.store ty * Workload.Generator.size_of b.spec ty))
    0 (Gom.Store.extent_types b.store)

let stats_counters (s : Storage.Stats.summary) =
  [
    ("logical_reads", s.s_logical_reads);
    ("logical_writes", s.s_logical_writes);
    ("physical_reads", s.s_total_reads);
    ("physical_writes", s.s_total_writes);
    ("buffer_hits", s.s_buffer_hits);
    ("buffer_misses", s.s_buffer_misses + s.s_prefetch_hits);
    ("buffer_evictions", s.s_buffer_evictions);
  ]

let engine_counters engines =
  let h, m =
    List.fold_left
      (fun (h, m) e ->
        let ci = Engine.cache_info e in
        (h + ci.hits, m + ci.misses))
      (0, 0) engines
  in
  [
    ("plan_cache_hits", h);
    ("plan_cache_misses", m);
    ("generation", Engine.generation (List.hd engines));
  ]

(* Reads through one engine, split into profile, planning and execution
   when traced. *)
let engine_exec ~traced ~engine ~(env : Core.Exec.env) b op =
  let n = n_of b in
  let stats = env.stats in
  match op with
  | Fwd a when traced ->
    ignore (span "engine.profile" (fun () -> Engine.profile engine b.path));
    let c = span "engine.choose" (fun () -> Engine.choose engine b.path ~i:0 ~j:n ~dir:Fwd) in
    Storage.Stats.begin_op stats;
    let v = span "engine.exec" (fun () -> Engine.run_forward engine c.chosen a) in
    note_qerror c.est_cost (Storage.Stats.op_logical_reads stats);
    Vals v
  | Fwd a -> Vals (Engine.forward engine b.path ~i:0 ~j:n a)
  | Bwd v when traced ->
    ignore (span "engine.profile" (fun () -> Engine.profile engine b.path));
    let c = span "engine.choose" (fun () -> Engine.choose engine b.path ~i:0 ~j:n ~dir:Bwd) in
    Storage.Stats.begin_op stats;
    let o = span "engine.exec" (fun () -> Engine.run_backward engine c.chosen ~target:v) in
    note_qerror c.est_cost (Storage.Stats.op_logical_reads stats);
    Oids o
  | Bwd v -> Oids (Engine.backward engine b.path ~i:0 ~j:n ~target:v)
  | Fwd_batch ps ->
    if traced then ignore (span "engine.profile" (fun () -> Engine.profile engine b.path));
    Fwd_rows (span "engine.exec" (fun () -> Engine.forward_batch engine b.path ~i:0 ~j:n ps))
  | Bwd_batch ts ->
    if traced then ignore (span "engine.profile" (fun () -> Engine.profile engine b.path));
    Bwd_rows
      (span "engine.exec" (fun () -> Engine.backward_batch engine b.path ~i:0 ~j:n ~targets:ts))
  | Gql (q, _) when traced ->
    let ast = span "gql.parse" (fun () -> Gql.Parser.parse q) in
    let tq = span "gql.check" (fun () -> Gql.Typecheck.check b.store ast) in
    ignore (span "engine.profile" (fun () -> Engine.profile engine b.tag_path));
    let plan = span "gql.plan" (fun () -> Gql.Eval.plan ~engine tq) in
    let r = span "gql.run" (fun () -> Gql.Eval.run ~engine tq) in
    (match plan with
    | Gql.Eval.Merged_backward { choice; _ } ->
      note_qerror choice.est_cost (Storage.Stats.op_logical_reads stats)
    | Gql.Eval.Nested_loop -> ());
    Rows r.rows
  | Gql (q, _) -> Rows (Gql.Eval.query ~engine q).rows
  | Ins (_, s, x) ->
    span "store.write" (fun () -> Gom.Store.insert_elem b.store s x);
    Done
  | Rem (_, s, x) ->
    span "store.write" (fun () -> Gom.Store.remove_elem b.store s x);
    Done
  | Txn _ -> invalid_arg "engine_exec: transaction"

(* nav_read and mixed_rw: one engine over one full binary ASR on
   T0.A1.A2.A3.Tag, which also serves the T0.A1.A2.A3 queries (the
   path embeds at offset 0).  [maintained] adds Immediate maintenance
   and the write share. *)
let engine_workload ~maintained ~pool ~round_len ~rounds ~traced seed =
  let b = build_base () in
  let heap = Storage.Heap.create ~size_of:(Workload.Generator.size_of b.spec) b.store in
  let env = Core.Exec.make ~buffer_pages:pool b.store heap in
  let index = Core.Asr.create b.store b.tag_path Core.Extension.Full (full_binary b.tag_path) in
  if traced then Trace.probe b.store ~closes:None;
  if maintained then begin
    let mgr = Core.Maintenance.create env in
    Core.Maintenance.register mgr index;
    if traced then Trace.probe b.store ~closes:(Some "core.maint")
  end;
  let engine = Engine.create env in
  Engine.register engine index;
  if traced then Trace.probe b.store ~closes:(Some "engine.notify");
  fun () ->
    (* Untimed preparation: inputs and the oracle. *)
    let src = sources b seed in
    let rounds =
      Array.init rounds (fun _ ->
          if maintained then begin
            (* Three writes, then three reads; the round's reads have
               the exact shares. *)
            let kinds = read_kinds ~len:(round_len / 2) src and next = ref (-1) in
            let read =
              Some
                (fun src ->
                  incr next;
                  kinds.(!next) src)
            in
            patterned_round ~groups:(round_len / 6)
              ~pattern:[ None; None; None; read; read; read ]
              b.store src
          end
          else Array.map (fun make -> make src) (read_kinds ~len:round_len src))
    in
    let oracle = Oracle.create b heap in
    let spot = List.init 8 (fun _ -> src.target ()) in
    {
      rounds;
      exec = (fun ~traced op -> engine_exec ~traced ~engine ~env b op);
      check = Oracle.check oracle;
      round_end = ignore;
      counters =
        (fun () ->
          stats_counters (Storage.Stats.snapshot env.stats)
          @ engine_counters [ engine ]
          @ [
              ("heap_reads", Storage.Stats.segment_accesses env.stats "heap");
              ("asr_reads", Storage.Stats.segment_accesses env.stats (Core.Asr.seg index));
            ]);
      space =
        (fun () -> (objects b, heap_pages heap b.store, Core.Asr.total_pages index, object_bytes b));
      pool_pages = pool;
      finish =
        (fun () ->
          ( [],
            [
              ("ASR differs from Extension.compute", asr_matches b.store index);
              ("oracle differs from backward_scan", Oracle.spot_check oracle spot);
            ] ));
      close = ignore;
    }

let rec remove_tree d =
  if Sys.file_exists d then
    if Sys.is_directory d then begin
      Array.iter (fun f -> remove_tree (Filename.concat d f)) (Sys.readdir d);
      Sys.rmdir d
    end
    else Sys.remove d

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let work_dir = ref ".perfbench/work"
let setup_counter = ref 0

let file_size f = try (Unix.stat f).Unix.st_size with Unix.Unix_error _ -> 0

(* durable_txn: a Db with a full ASR registered; each transaction assigns
   Tag on objects of T0..T2, which lie outside the registered path, so
   maintenance does no index work.  Commits do not fsync (Sync_never):
   on a shared machine fsync latency follows other tenants' disk traffic,
   and under Sync_on_commit the spread of throughput over runs was twice
   the widest bound a metric may have.  Checkpoints still fsync. *)
let durable_workload ~round_len ~rounds ~reopens ~replayed_txns ~traced seed =
  incr setup_counter;
  let dir = Filename.concat !work_dir (Printf.sprintf "db-%d-%d" (Unix.getpid ()) !setup_counter) in
  remove_tree dir;
  mkdir_p (Filename.dirname dir);
  let b = build_base () in
  if traced then Trace.probe b.store ~closes:None;
  let db = Durability.Db.create ~policy:Durability.Wal.Sync_never ~dir b.store in
  if traced then Trace.probe b.store ~closes:(Some "durability.append");
  let path = Gom.Path.to_string b.tag_path in
  let index = Durability.Db.register_asr db ~path ~kind:Core.Extension.Full () in
  fun () ->
    let rng = Random.State.make [| seed; 0xd0b |] in
    let objs =
      Array.of_list
        (Gom.Store.extent b.store "T0" @ Gom.Store.extent b.store "T1"
       @ Gom.Store.extent b.store "T2")
    in
    let serial = ref 0 in
    let rounds =
      Array.init rounds (fun _ ->
          Array.init round_len (fun _ ->
              Txn
                (List.init 3 (fun _ ->
                     incr serial;
                     ( objs.(Random.State.int rng (Array.length objs)),
                       Gom.Value.Str (Printf.sprintf "w%09d" !serial) )))))
    in
    let env = Durability.Db.env db in
    let wal_bytes = ref 0 in
    let wal_mark = ref (file_size (Durability.Db.wal_file dir (Durability.Db.generation db))) in
    let wal_now () =
      file_size (Durability.Db.wal_file dir (Durability.Db.generation db)) - !wal_mark + !wal_bytes
    in
    let exec ~traced:_ op =
      match op with
      | Txn ws ->
        let tx = Gom.Txn.start b.store in
        (try
           span "store.write" (fun () ->
               List.iter (fun (o, v) -> Gom.Store.set_attr b.store o "Tag" v) ws)
         with e ->
           Gom.Txn.rollback tx;
           raise e);
        span "durability.commit" (fun () -> Gom.Txn.commit tx);
        Done
      | _ -> invalid_arg "durable_txn: not a transaction"
    in
    {
      rounds;
      exec;
      check =
        (fun op ans ->
          match (op, ans) with
          | Txn ws, Done ->
            (* Later writes in one transaction may overwrite earlier ones. *)
            List.for_all
              (fun (o, _) ->
                let last = List.fold_left (fun acc (p, v) -> if Gom.Oid.equal p o then v else acc) Gom.Value.null ws in
                Gom.Value.equal (Gom.Store.get_attr b.store o "Tag") last)
              ws
          | _ -> false);
      round_end =
        (fun () ->
          wal_bytes := wal_now ();
          let t0 = now () in
          span "durability.checkpoint" (fun () -> Durability.Db.checkpoint db);
          probes.checkpoint_ms <- (float (now () - t0) /. 1e6) :: probes.checkpoint_ms;
          wal_mark := file_size (Durability.Db.wal_file dir (Durability.Db.generation db)));
      counters =
        (fun () ->
          stats_counters (Storage.Stats.snapshot env.stats) @ [ ("wal_bytes", wal_now ()) ]);
      space =
        (fun () ->
          (objects b, heap_pages env.heap b.store, Core.Asr.total_pages index, object_bytes b));
      pool_pages = 0;
      finish =
        (fun () ->
          (* Leave transactions in the log after the last checkpoint, so
             that recovery replays them. *)
          Array.iteri (fun k op -> if k < replayed_txns then ignore (exec ~traced:false op)) rounds.(0);
          let before = Gom.Serial.store_to_string b.store in
          let live_ok = asr_matches b.store index in
          Durability.Db.close db;
          let checks = ref [ ("live ASR differs from Extension.compute", live_ok) ] in
          let times = ref [] and replayed = ref 0.0 in
          for _ = 1 to reopens do
            Gc.compact ();
            let t0 = now () in
            let db' = Durability.Db.open_ ~dir () in
            times := (float (now () - t0) /. 1e9) :: !times;
            let verified =
              match Durability.Db.last_recovery db' with
              | Some r ->
                replayed := float r.records_replayed;
                Durability.Db.verified r
              | None -> false
            in
            checks :=
              ("recovery not verified", verified)
              :: ( "recovered store differs",
                   Gom.Serial.store_to_string (Durability.Db.store db') = before )
              :: !checks;
            Durability.Db.close db'
          done;
          ([ ("recovery_s", Lat.median !times); ("replayed_records", !replayed) ], !checks));
      close =
        (fun () ->
          Durability.Db.close db;
          remove_tree dir);
    }

(* sharded_rw: a two-shard group over the base; grouped forward batches,
   scattered backward batches, and writes through the primary that fan
   out to the replica. *)
let sharded_workload ~pool ~round_len ~rounds ~traced seed =
  let b = build_base () in
  if traced then Trace.probe b.store ~closes:None;
  let g =
    (* Each shard reads through its own small buffer pool, far smaller
       than the pages a round touches, so misses, evictions and prefetch
       are measured here.  The group's domain pool runs shard tasks on the
       calling domain.  With a second domain every minor collection stops
       both, so each operation waits for two CPUs at once; on a shared
       two-CPU machine that widened the spread of throughput over runs. *)
    let stores = [| b.store; (Gom.Store.copy [@alert "-legacy"]) b.store |] in
    let envs =
      Array.map
        (fun s ->
          Core.Exec.make ~buffer_pages:pool s
            (Storage.Heap.create ~size_of:(Workload.Generator.size_of b.spec) s))
        stores
    in
    Shard.Group.create_on ~jobs:1 ~placement:(Shard.Placement.make 2) ~stores
      ~managers:(Array.map Core.Maintenance.create envs) ~envs ()
  in
  if traced then Trace.probe b.store ~closes:(Some "shard.fanout");
  Shard.Group.register g ~path:b.path ~kind:Core.Extension.Full ~dec:(full_binary b.path);
  fun () ->
    let src = sources b seed in
    let n = n_of b in
    (* One write through the primary, then a scattered backward batch
       (the read that pays the profile re-measurement) and three grouped
       forward batches, so the p50 of all operations falls inside the
       forward batches' mode. *)
    let rounds =
      Array.init rounds (fun _ ->
          patterned_round ~groups:(round_len / 5)
            ~pattern:[ None; Some bwd_batch; Some fwd_batch; Some fwd_batch; Some fwd_batch ]
            b.store src)
    in
    let oracle = Oracle.create b (Shard.Group.env g 0).heap in
    let spot = List.init 8 (fun _ -> src.target ()) in
    {
      rounds;
      exec =
        (fun ~traced:_ op ->
          match op with
          | Fwd_batch ps ->
            Fwd_rows (span "shard.fwd_batch" (fun () -> Shard.Group.forward_batch g b.path ~i:0 ~j:n ps))
          | Bwd_batch ts ->
            Bwd_rows
              (span "shard.bwd_batch" (fun () ->
                   Shard.Group.backward_batch g b.path ~i:0 ~j:n ~targets:ts))
          | Ins (_, s, x) ->
            span "store.write" (fun () -> Gom.Store.insert_elem b.store s x);
            Done
          | Rem (_, s, x) ->
            span "store.write" (fun () -> Gom.Store.remove_elem b.store s x);
            Done
          | _ -> invalid_arg "sharded_rw: operation");
      check = Oracle.check oracle;
      round_end = ignore;
      counters =
        (fun () ->
          let s = Shard.Group.stats_summary g in
          stats_counters s
          @ engine_counters (List.init 2 (Shard.Group.engine g))
          @ [ ("shard_grouped", s.s_shard_grouped); ("shard_scatter", s.s_shard_scatter) ]);
      space =
        (fun () ->
          let heaps =
            List.init 2 (fun k -> heap_pages (Shard.Group.env g k).heap (Shard.Group.store g k))
          in
          ( objects b,
            List.fold_left ( + ) 0 heaps,
            Array.fold_left ( + ) 0 (Shard.Group.total_pages g),
            object_bytes b ));
      pool_pages = 2 * pool;
      finish =
        (fun () ->
          let checks =
            List.concat
              (List.init 2 (fun k ->
                   List.map
                     (fun a ->
                       ( Printf.sprintf "shard %d fragment differs from Extension.compute" k,
                         asr_matches (Shard.Group.store g k) a ))
                     (Shard.Group.asrs g k)))
            @ [ ("oracle differs from backward_scan", Oracle.spot_check oracle spot) ]
          in
          let pages = Array.map float (Shard.Group.total_pages g) in
          let mean = Array.fold_left ( +. ) 0.0 pages /. float (Array.length pages) in
          let skew = Array.fold_left Float.max 0.0 pages /. mean in
          ([ ("page_skew", skew) ], checks));
      close = (fun () -> Shard.Group.close g);
    }

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = {
  name : string;
  setup : traced:bool -> int -> unit -> inst;
      (** [setup ~traced seed] builds the base, indexes and Db or group
          (timed); the closure it returns prepares inputs and the oracle
          (untimed). *)
}

let workloads =
  [
    {
      name = "nav_read";
      setup =
        engine_workload ~maintained:false ~pool:8 ~round_len:500 ~rounds:8;
    };
    {
      name = "mixed_rw";
      setup =
        engine_workload ~maintained:true ~pool:64 ~round_len:60 ~rounds:8;
    };
    {
      name = "durable_txn";
      setup = durable_workload ~round_len:5000 ~rounds:2 ~reopens:5 ~replayed_txns:1000;
    };
    { name = "sharded_rw"; setup = sharded_workload ~pool:4 ~round_len:60 ~rounds:8 };
  ]

(* ------------------------------------------------------------------ *)
(* The runner                                                          *)
(* ------------------------------------------------------------------ *)

(* Logical pages read and written so far, and during traced writes. *)
let pages inst =
  let c = inst.counters () in
  List.assoc "logical_reads" c + List.assoc "logical_writes" c

let write_pages = ref 0

type ledger = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let ledger = { attempted = 0; failed = 0; notes = [] }

(* Every operation and every check counts one attempt:
   attempted = ok + failed. *)
let record ~ok msg =
  ledger.attempted <- ledger.attempted + 1;
  if not ok then begin
    ledger.failed <- ledger.failed + 1;
    if List.length ledger.notes < 10 then ledger.notes <- msg :: ledger.notes
  end

(* One operation: timed around [exec] only; the answer is checked after
   the clock stops.  Returns the elapsed nanoseconds. *)
let run_op inst ~traced op =
  let w = is_write op in
  if traced then Trace.begin_op ();
  let pages0 = if traced && w then pages inst else 0 in
  let t0 = now () in
  let result =
    try Ok (if traced then span (if w then "op.write" else "op.read") (fun () -> inst.exec ~traced op)
            else inst.exec ~traced op)
    with e -> Error e
  in
  let t1 = now () in
  if traced && w then write_pages := !write_pages + (pages inst - pages0);
  (match result with
  | Ok ans -> record ~ok:(try inst.check op ans with _ -> false) "wrong answer"
  | Error e -> record ~ok:false ("exception: " ^ Printexc.to_string e));
  t1 - t0

type phase = {
  mutable ops : int;
  mutable reads : int;
  mutable writes : int;
  mutable ns : int;  (** timed nanoseconds, round-end work included *)
  mutable rates : float list;  (** per-round operations per second, for the report *)
  all : Lat.t;
  read_lat : Lat.t;
  write_lat : Lat.t;
}

let phase () =
  {
    ops = 0;
    reads = 0;
    writes = 0;
    ns = 0;
    rates = [];
    all = Lat.create ();
    read_lat = Lat.create ();
    write_lat = Lat.create ();
  }

(* Whole rounds until [seconds] of timed work have been measured (or a
   wall-clock cap is hit), into the untraced phase.  In a traced run every
   other round is traced, into the second phase, so a drift of the
   machine's speed moves both alike; a round is traced only while the span
   buffer still holds one more round of the last traced round's size. *)
let measure inst ~traced ~seconds ~next_round ~samples ~sample =
  let plain = phase () and tr = phase () in
  let budget = int_of_float (seconds *. 1e9) in
  let wall0 = now () in
  let cap = int_of_float ((4. *. seconds +. 20.) *. 1e9) in
  let round_spans = ref 0 in
  let taken = ref 0 in
  Trace.reset ();
  while plain.ns + tr.ns < budget && now () - wall0 < cap do
    (* Set-up samples are spread evenly over the timed work, outside
       the rounds' time. *)
    while !taken < samples && plain.ns + tr.ns >= budget / samples * !taken do
      sample ();
      incr taken
    done;
    let r = inst.rounds.(!next_round mod Array.length inst.rounds) in
    let traced = traced && !next_round mod 2 = 1 && !Trace.n + !round_spans <= Trace.capacity in
    incr next_round;
    let p = if traced then tr else plain in
    let spans0 = !Trace.n in
    Trace.on := traced;
    let round_ns = ref 0 in
    Array.iter
      (fun op ->
        let d = run_op inst ~traced op in
        let us = float d /. 1e3 in
        Lat.add p.all us;
        if is_write op then (p.writes <- p.writes + 1; Lat.add p.write_lat us)
        else (p.reads <- p.reads + 1; Lat.add p.read_lat us);
        round_ns := !round_ns + d)
      r;
    let t0 = now () in
    inst.round_end ();
    round_ns := !round_ns + (now () - t0);
    Trace.on := false;
    if traced then round_spans := !Trace.n - spans0;
    p.ops <- p.ops + Array.length r;
    p.ns <- p.ns + !round_ns;
    p.rates <- (float (Array.length r) *. 1e9 /. float !round_ns) :: p.rates
  done;
  while !taken < samples do
    sample ();
    incr taken
  done;
  (plain, tr)

(* Operations over timed seconds: a run whose machine changes speed
   midway reports the average of its two speeds. *)
let ops_per_s p = float p.ops *. 1e9 /. float p.ns

let delta before after =
  List.map2
    (fun (k, a) (k', b) ->
      assert (k = k');
      (k, b - a))
    before after

let gc_counts () =
  let s = Gc.quick_stat () in
  [ ("gc_minor_collections", s.minor_collections); ("gc_major_collections", s.major_collections) ]

let show_counts l = String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) l)

(* The fingerprint of the first warm-up round: counts that
   must repeat exactly for one seed and one build of the benchmark.
   Stored per (workload, seed, trace) under the state directory, keyed
   by the executable's digest so that changed code starts afresh; a later
   run of the same executable that disagrees fails. *)
let check_fingerprint ~state ~file fp =
  let build = String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 16 in
  let dir = Filename.concat (Filename.concat state "fingerprints") build in
  mkdir_p dir;
  let path = Filename.concat dir file in
  let text = show_counts fp in
  if Sys.file_exists path then begin
    let ic = open_in path in
    let old = input_line ic in
    close_in ic;
    record ~ok:(old = text) ("determinism: " ^ file ^ " was [" ^ old ^ "] now [" ^ text ^ "]")
  end
  else begin
    let oc = open_out path in
    output_string oc (text ^ "\n");
    close_out oc
  end

type metric = { metric : string; unit_ : string; value : float }

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m -> Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} m.metric (json_number m.value) m.unit_)
         metrics)
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    ledger.attempted ledger.failed body;
  print_newline ()

(* Three set-ups come first.  The first pays for growing the process's
   heap; the last two each run an untimed warm-up round, whose counts
   must agree, and the last one's instance is the one the timed phase
   measures.  setup_s is the median of [setup_samples] further set-ups,
   spread evenly over the timed phase, each between two [Gc.compact]s
   and closed at once: the machine's speed drifts over tens of seconds,
   and set-ups taken back to back sample only one moment of it. *)
let setups = 3

let setup_samples = 20

let run ~workload ~seed ~seconds ~traced ~state =
  let w = List.find (fun w -> w.name = workload) workloads in
  work_dir := Filename.concat state "work";
  let setup_times = ref [] in
  let warm_counts = ref [] in
  let first_gc = ref [] in
  let last = ref None in
  let next_round = ref 1 in
  for k = 1 to setups do
    (match !last with Some i -> i.close () | None -> ());
    last := None;
    Gc.compact ();
    let t0 = now () in
    let prepare = w.setup ~traced seed in
    setup_times := (float (now () - t0) /. 1e9) :: !setup_times;
    let inst = prepare () in
    last := Some inst;
    if k >= setups - 1 then begin
      Gc.compact ();
      let c0 = inst.counters () and g0 = gc_counts () in
      Array.iter (fun op -> ignore (run_op inst ~traced:false op : int)) inst.rounds.(0);
      inst.round_end ();
      let _, _, asr_pages, _ = inst.space () in
      let c = delta c0 (inst.counters ()) @ [ ("asr_pages", asr_pages) ]
      and g = delta g0 (gc_counts ()) in
      Printf.printf "setup %d: %.3fs, warm-up counts: %s %s\n%!" k (List.hd !setup_times)
        (show_counts c) (show_counts g);
      if !first_gc = [] then first_gc := g;
      match !warm_counts with
      | [] -> warm_counts := c
      | first -> record ~ok:(first = c) "determinism: warm-up counts differ between set-ups"
    end
    else Printf.printf "setup %d: %.3fs\n%!" k (List.hd !setup_times)
  done;
  let inst = Option.get !last in
  let samples = ref [] in
  (* What the set-up samples allocate and collect, so that the GC counts
     of the timed phase cover the operations alone. *)
  let sample_minor_words = ref 0.0 and sample_majors = ref 0 in
  let sample () =
    let g0 = Gc.quick_stat () in
    Gc.compact ();
    let t0 = now () in
    let prepare = w.setup ~traced:false seed in
    samples := (float (now () - t0) /. 1e9) :: !samples;
    (prepare ()).close ();
    Gc.compact ();
    let g1 = Gc.quick_stat () in
    sample_minor_words := !sample_minor_words +. (g1.minor_words -. g0.minor_words);
    sample_majors := !sample_majors + (g1.major_collections - g0.major_collections)
  in
  check_fingerprint ~state
    ~file:(Printf.sprintf "%s-s%d-t%d" workload seed (if traced then 1 else 0))
    (!warm_counts @ !first_gc);
  Gc.compact ();
  let c0 = inst.counters () and g0 = Gc.quick_stat () in
  let cpu0 = Unix.times () in
  let p, tp = measure inst ~traced ~seconds ~next_round ~samples:setup_samples ~sample in
  let cpu1 = Unix.times () in
  let c1 = inst.counters () and g1 = Gc.quick_stat () in
  (* Counts cover every timed operation, traced or not: tracing moves no
     page, plan or event. *)
  let all_ops = p.ops + tp.ops in
  let finish_metrics, checks = inst.finish () in
  List.iter (fun (msg, ok) -> record ~ok msg) checks;
  let objs, heap_p, asr_p, bytes = inst.space () in
  let cd = delta c0 c1 in
  let per_op name =
    match List.assoc_opt name cd with Some v -> float v /. float all_ops | None -> nan
  in
  let peak_heap_mb =
    float (Gc.quick_stat ()).top_heap_words *. float (Sys.word_size / 8) /. 1048576.
  in
  let fm name = Option.value ~default:nan (List.assoc_opt name finish_metrics) in
  let tail l =
    let _, v, _, _ = Lat.tail l in
    v
  in
  let some_if n v = if n > 0 then v else nan in
  let space_amp = float ((heap_p + asr_p) * page_size) /. float bytes in
  let setup_s = Lat.median !samples in
  let durable = workload = "durable_txn" in
  (* Every end-to-end metric of the design, by name and unit, "n/a" where
     the workload has no such operation. *)
  let e2e =
    [
      { metric = "setup_s"; unit_ = "s"; value = setup_s };
      { metric = "ops_per_s"; unit_ = "1/s"; value = ops_per_s p };
      { metric = "op_p50_us"; unit_ = "us"; value = Lat.p50 p.all };
      { metric = "op_tail_us"; unit_ = "us"; value = tail p.all };
      { metric = "read_p50_us"; unit_ = "us"; value = some_if p.reads (Lat.p50 p.read_lat) };
      { metric = "read_tail_us"; unit_ = "us"; value = some_if p.reads (tail p.read_lat) };
      { metric = "write_p50_us"; unit_ = "us"; value = some_if p.writes (Lat.p50 p.write_lat) };
      { metric = "write_tail_us"; unit_ = "us"; value = some_if p.writes (tail p.write_lat) };
      { metric = "logical_reads_per_op"; unit_ = "pages/op"; value = per_op "logical_reads" };
      { metric = "physical_reads_per_op"; unit_ = "pages/op"; value = per_op "physical_reads" };
      { metric = "space_amp"; unit_ = "ratio"; value = space_amp };
      {
        metric = "wal_bytes_per_txn";
        unit_ = "B";
        value = (if durable then per_op "wal_bytes" else nan);
      };
      { metric = "recovery_s"; unit_ = "s"; value = fm "recovery_s" };
      { metric = "peak_heap_mb"; unit_ = "MB"; value = peak_heap_mb };
      {
        metric = "failed_frac";
        unit_ = "ratio";
        value = float ledger.failed /. float (max 1 ledger.attempted);
      };
    ]
  in
  Printf.printf "workload %s seed %d: %d ops (%d reads, %d writes) in %.2fs timed, %d rounds\n"
    workload seed p.ops p.reads p.writes (float p.ns /. 1e9) (List.length p.rates);
  (match List.sort Float.compare p.rates with
  | [] -> ()
  | r ->
    let a = Array.of_list r in
    let q k = a.(k * (Array.length a - 1) / 4) in
    Printf.printf "round rates (ops/s): min %.1f q1 %.1f median %.1f q3 %.1f max %.1f\n" (q 0)
      (q 1) (q 2) (q 3) (q 4));
  (let a = Array.of_list (List.sort Float.compare !samples) in
   let q k = a.(k * (Array.length a - 1) / 4) *. 1e3 in
   Printf.printf "set-up samples (ms): %d, min %.2f q1 %.2f median %.2f q3 %.2f max %.2f\n"
     (Array.length a) (q 0) (q 1) (q 2) (q 3) (q 4));
  Printf.printf "timed phase: %.3f s of operations, %.3f s of process CPU\n" (float p.ns /. 1e9)
    (cpu1.Unix.tms_utime +. cpu1.tms_stime -. cpu0.tms_utime -. cpu0.tms_stime);
  Printf.printf "base: %d objects (%d B), %d heap pages + %d ASR pages of %d B, pool %d pages\n"
    objs bytes heap_p asr_p page_size inst.pool_pages;
  let fmt = Format.std_formatter in
  Lat.histogram fmt ~name:"read" p.read_lat;
  Lat.histogram fmt ~name:"write" p.write_lat;
  Lat.histogram fmt ~name:"all" p.all;
  if durable then
    Printf.printf "checkpoints: %d, median %.1f ms\n" (List.length probes.checkpoint_ms)
      (Lat.median probes.checkpoint_ms);
  List.iter
    (fun m ->
      if Float.is_finite m.value then Printf.printf "%-22s %14.4f %s\n" m.metric m.value m.unit_
      else Printf.printf "%-22s %14s %s\n" m.metric "n/a" m.unit_)
    e2e;
  let layer_metrics =
    if not traced then []
    else begin
      let tot = Trace.totals () in
      let get name =
        match Hashtbl.find_opt Trace.table name with
        | Some k -> tot.(k)
        | None -> { Trace.calls = 0; incl = 0; self = 0 }
      in
      let self_us name = float (get name).self /. 1e3 in
      let per_call name =
        let t = get name in
        if t.calls = 0 then 0.0 else float t.self /. 1e3 /. float t.calls
      in
      let per n x = if n = 0 then 0.0 else x /. float n in
      let ratio a b = if a +. b = 0.0 then 0.0 else a /. (a +. b) in
      let ld name = float (Option.value ~default:0 (List.assoc_opt name cd)) in
      let untraced_op_us = float p.ns /. 1e3 /. float p.ops in
      let roots = [ "op.read"; "op.write" ] in
      let layer_self =
        Hashtbl.fold
          (fun name k acc -> if List.mem name roots then acc else acc +. float tot.(k).self)
          Trace.table 0.0
        /. 1e3
      in
      let qs = List.sort Float.compare probes.qerrors in
      let z v = if Float.is_finite v then v else 0.0 in
      let us metric value = { metric; unit_ = "us"; value } in
      let r metric unit_ value = { metric; unit_; value = z value } in
      Printf.printf "trace: %d spans (%d dropped), %d traced ops\n" !Trace.n !Trace.dropped tp.ops;
      Printf.printf "%-24s %9s %12s %8s\n" "span" "calls" "self us/op" "share";
      let traced_op_us = float tp.ns /. 1e3 /. float tp.ops in
      Hashtbl.fold (fun name k acc -> (name, tot.(k)) :: acc) Trace.table []
      |> List.sort (fun (_, a) (_, b) -> Int.compare b.Trace.self a.Trace.self)
      |> List.iter (fun (name, (t : Trace.total)) ->
             Printf.printf "%-24s %9d %12.2f %7.1f%%\n" name t.calls
               (float t.self /. 1e3 /. float tp.ops)
               (100. *. float t.self /. 1e3 /. float tp.ops /. traced_op_us));
      Printf.printf
        "layers' self time: %.1f%% of the untraced operation time; tracing overhead %.1f%%\n"
        (100. *. layer_self /. float tp.ops /. untraced_op_us)
        (100. *. (1. -. (ops_per_s tp /. ops_per_s p)));
      Trace.write_out (Filename.concat state (Printf.sprintf "trace-%s.tsv" workload));
      [
        us "gql.parse_us" (per_call "gql.parse");
        us "gql.check_us" (per_call "gql.check");
        us "gql.plan_us" (per_call "gql.plan");
        us "gql.run_us" (per_call "gql.run");
        us "engine.profile_us" (per tp.reads (self_us "engine.profile"));
        r "engine.generation_bumps_per_op" "count/op" (per all_ops (ld "generation"));
        r "engine.plan_cache_hit_ratio" "ratio" (ratio (ld "plan_cache_hits") (ld "plan_cache_misses"));
        us "engine.choose_us" (per_call "engine.choose");
        us "engine.exec_us" (per_call "engine.exec");
        r "costmodel.qerror_p50" "ratio" (if qs = [] then 0.0 else Lat.median qs);
        r "costmodel.qerror_max" "ratio" (List.fold_left Float.max 0.0 qs);
        us "core.maint_us_per_write" (per tp.writes (self_us "core.maint"));
        r "core.maint_pages_per_write" "pages" (per tp.writes (float !write_pages));
        r "core.asr_reads_per_op" "pages/op" (per all_ops (ld "asr_reads"));
        r "core.heap_reads_per_op" "pages/op" (per all_ops (ld "heap_reads"));
        r "storage.buffer_hit_ratio" "ratio" (ratio (ld "buffer_hits") (ld "buffer_misses"));
        r "storage.evictions_per_op" "count/op" (per all_ops (ld "buffer_evictions"));
        r "storage.logical_reads_per_op" "pages/op" (per_op "logical_reads");
        r "storage.physical_reads_per_op" "pages/op" (per_op "physical_reads");
        us "durability.append_us_per_write" (per tp.writes (self_us "durability.append"));
        us "durability.commit_us" (per_call "durability.commit");
        r "durability.checkpoint_ms" "ms" (if durable then Lat.median probes.checkpoint_ms else 0.0);
        r "durability.replayed_records" "count" (fm "replayed_records");
        r "durability.recovery_s" "s" (fm "recovery_s");
        r "durability.wal_bytes_per_txn" "B" (if durable then per_op "wal_bytes" else 0.0);
        us "shard.fanout_us_per_write" (per tp.writes (self_us "shard.fanout"));
        us "shard.fwd_batch_us" (per_call "shard.fwd_batch");
        us "shard.bwd_batch_us" (per_call "shard.bwd_batch");
        r "shard.grouped_frac" "ratio" (ratio (ld "shard_grouped") (ld "shard_scatter"));
        r "shard.page_skew" "ratio" (fm "page_skew");
        r "gc.minor_words_per_op" "words/op"
          (per all_ops (g1.minor_words -. g0.minor_words -. !sample_minor_words));
        r "gc.major_collections_per_kop" "count/kop"
          (per all_ops
             (float (g1.major_collections - g0.major_collections - !sample_majors) *. 1000.));
        r "trace.overhead_frac" "ratio" (1. -. (ops_per_s tp /. ops_per_s p));
        r "trace.attributed_frac" "ratio" (layer_self /. float tp.ops /. untraced_op_us);
        r "ops.read_p50_us" "us" (some_if p.reads (Lat.p50 p.read_lat));
        r "ops.read_tail_us" "us" (some_if p.reads (tail p.read_lat));
        r "ops.write_p50_us" "us" (some_if p.writes (Lat.p50 p.write_lat));
        r "ops.write_tail_us" "us" (some_if p.writes (tail p.write_lat));
      ]
    end
  in
  List.iter
    (fun m -> Printf.printf "%-32s %14.4f %s\n" m.metric m.value m.unit_)
    layer_metrics;
  List.iter (fun n -> Printf.printf "failure: %s\n" n) (List.rev ledger.notes);
  inst.close ();
  let reported =
    if traced then layer_metrics else List.filter (fun m -> Float.is_finite m.value) e2e
  in
  print_result ~correct:(ledger.failed = 0) reported

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 8.0 and trace = ref 0 in
  let state = ref ".perfbench" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME nav_read | mixed_rw | durable_txn | sharded_rw");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S timed seconds per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--state", Arg.Set_string state, "DIR fingerprints, traces and scratch bases");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.exists (fun w -> w.name = !workload) workloads) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  mkdir_p !state;
  run ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) ~state:!state
