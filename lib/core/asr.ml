(* One write-behind buffer per pair of trees: the net signed refcount
   delta of each projected tuple.  Every difference is written through
   it, and only a flush moves the trees.  A delta whose net reaches zero
   annihilates — the insert/delete pair never touches a page.  One
   buffer serves both redundant trees (they hold the same projection
   multiset), and every relation sharing them from a pool, so the trees
   plus the buffer always count every sharer's references.  While deltas
   wait, the first probe indexes them by their first and last column, so
   a maintenance read of one key finds that key's pending deltas without
   scanning the buffer; a buffer drained before any probe is never
   indexed. *)
module Vtbl = Hashtbl.Make (Gom.Value)

module Ttbl = Hashtbl.Make (struct
  type t = Relation.Tuple.t

  let equal = Relation.Tuple.equal
  let hash tup = Array.fold_left (fun h v -> (h * 31) + Gom.Value.hash v) 7 tup land max_int
end)

type entry = { proj : Relation.Tuple.t; mutable net : int }

type buffer = {
  entries : entry Ttbl.t;
  by_first : entry list Vtbl.t;
  by_last : entry list Vtbl.t;
  mutable indexed : bool;  (* [by_first]/[by_last] hold every entry *)
}

type trees = {
  fwd : Storage.Bptree.t;
  bwd : Storage.Bptree.t;
  skey : string option; (* shared-segment key, when pooled *)
  pending : buffer;
}

type part = { lo : int; hi : int; trees : trees }

(* Epoch gate over the mutable B+ trees.  Snapshot readers on other
   domains pin [version] at publication and run tree probes inside an
   [acquire_trees]/[release_trees] bracket; the (mutex-serialised)
   writer seals the gate, spins until in-flight readers drain, mutates
   the trees, bumps [version] and reopens.  A reader that loses the race
   — gate closed, or version moved past its pin — refuses the trees and
   the engine degrades to navigation, which stays exact. *)
type gate = {
  closed : bool Atomic.t;
  readers : int Atomic.t;
  version : int Atomic.t;
}

type t = {
  id : int;  (* process-unique identity, usable as a hash key *)
  seg : string;  (* name of the trees' pager: the pool's, when pooled *)
  store : Gom.Store.t;
  path : Gom.Path.t;
  kind : Extension.kind;
  dec : Decomposition.t;
  config : Storage.Config.t;
  owner : (Relation.Tuple.t -> bool) option;
      (* placement predicate: when set, this relation materialises only
         the extension tuples the predicate owns (horizontal sharding) *)
  parts : part array;
  gate : gate;
  pool : pool option;
}

and pool = {
  pool_store : Gom.Store.t;
  pool_config : Storage.Config.t;
  pool_pager : Storage.Pager.t;
  mutable segments : (string * trees) list;
  mutable members : t list;  (* every relation created against the pool *)
}

let next_id = Atomic.make 0
let next_pool = Atomic.make 0

let id t = t.id
let seg t = t.seg

let store t = t.store
let owner t = t.owner
let restrict t rel = match t.owner with Some f -> Relation.filter rel f | None -> rel
let path t = t.path
let kind t = t.kind
let decomposition t = t.dec
let config t = t.config
let arity t = Gom.Path.arity t.path
let partition_count t = Array.length t.parts

let partition_bounds t i =
  let p = t.parts.(i) in
  (p.lo, p.hi)

let partition_index_of_column t col =
  let found = ref (-1) in
  Array.iteri (fun i p -> if !found < 0 && p.lo = col then found := i) t.parts;
  if !found < 0 then
    Array.iteri
      (fun i p -> if !found < 0 && p.lo <= col && col <= p.hi then found := i)
      t.parts;
  if !found < 0 then invalid_arg "Asr.partition_index_of_column: out of range";
  !found

(* A partition's columns are contiguous, so its projection is a slice. *)
let project_tuple tup ~lo ~hi = Array.sub tup lo (hi - lo + 1)

(* ------------------------------------------------------------------ *)
(* Section 5.4: sharing of access support relation partitions          *)
(* ------------------------------------------------------------------ *)

let make_pool ?(config = Storage.Config.default) store =
  {
    pool_store = store;
    pool_config = config;
    pool_pager =
      Storage.Pager.create ("pool" ^ string_of_int (Atomic.fetch_and_add next_pool 1));
    segments = [];
    members = [];
  }

(* The content of a partition over columns [lo..hi] is determined by the
   path steps whose auxiliary relations contribute the adjacent column
   pairs of the span (plus, for left-/right-complete extensions, by the
   fact that the span is a complete prefix/suffix).  Two partitions with
   equal keys hold equal relations, so their B+ trees can be shared
   (paper, section 5.4). *)
let segment_key path kind ~lo ~hi =
  let m = Gom.Path.arity path - 1 in
  let eligible =
    match (kind : Extension.kind) with
    | Extension.Full -> true
    | Extension.Left_complete -> lo = 0
    | Extension.Right_complete -> hi = m
    | Extension.Canonical -> false
  in
  if not eligible then None
  else begin
    let n = Gom.Path.length path in
    (* Owning step and role of the adjacent column pair (c, c+1). *)
    let pair_desc c =
      let rec find i =
        if i > n then invalid_arg "Asr.segment_key: column out of range"
        else
          let c_lo = Gom.Path.column_of_object_position path (i - 1) in
          let c_hi = Gom.Path.column_of_object_position path i in
          if c >= c_lo && c + 1 <= c_hi then
            let s = Gom.Path.step path i in
            let role =
              match s.Gom.Path.set_type with
              | None -> "ref"
              | Some _ -> if c = c_lo then "own" else "elem"
            in
            Printf.sprintf "%s.%s[%s>%s/%s]" s.Gom.Path.domain s.Gom.Path.attr role
              (Option.value ~default:"-" s.Gom.Path.set_type)
              s.Gom.Path.range
          else find (i + 1)
      in
      find 1
    in
    let pairs = List.init (hi - lo) (fun k -> pair_desc (lo + k)) in
    Some (Extension.name kind ^ "|" ^ String.concat ";" pairs)
  end

(* ------------------------------------------------------------------ *)

(* Move a projection's reference count by [d] in both redundant trees,
   one descent each. *)
let adjust ?stats trees proj d =
  Storage.Bptree.adjust ?stats trees.fwd proj d;
  Storage.Bptree.adjust ?stats trees.bwd proj d

let fresh_trees ~config ~pager ~width ~skey =
  let tuple_bytes = width * config.Storage.Config.oid_size in
  {
    fwd = Storage.Bptree.create ~config ~pager ~tuple_bytes ~key_of:(fun tup -> tup.(0));
    bwd =
      Storage.Bptree.create ~config ~pager ~tuple_bytes ~key_of:(fun tup ->
          tup.(width - 1));
    skey;
    pending =
      {
        entries = Ttbl.create 64;
        by_first = Vtbl.create 16;
        by_last = Vtbl.create 16;
        indexed = false;
      };
  }

let create ?(config = Storage.Config.default) ?pool ?owner store path kind dec =
  let m = Gom.Path.arity path - 1 in
  (match List.rev (Decomposition.boundaries dec) with
  | last :: _ when last = m -> ()
  | _ -> invalid_arg "Asr.create: decomposition does not match path arity");
  (match pool with
  | Some p when not (p.pool_store == store) ->
    invalid_arg "Asr.create: pool belongs to a different store"
  | _ -> ());
  let id = Atomic.fetch_and_add next_id 1 in
  let config, pager =
    match pool with
    | Some p -> (p.pool_config, p.pool_pager)
    | None -> (config, Storage.Pager.create ("asr" ^ string_of_int id))
  in
  let extension = Extension.compute store path kind in
  let tuples =
    Relation.to_list (Option.fold ~none:extension ~some:(Relation.filter extension) owner)
  in
  let mk_part (lo, hi) =
    let width = hi - lo + 1 in
    let skey =
      match pool with None -> None | Some _ -> segment_key path kind ~lo ~hi
    in
    let reused =
      match (pool, skey) with
      | Some p, Some k -> List.assoc_opt k p.segments
      | _ -> None
    in
    match reused with
    | Some trees ->
      (* Contribute this extension's projections on top of the sharing
         relation's: reference counts keep co-maintenance exact. *)
      List.iter (fun tup -> adjust trees (project_tuple tup ~lo ~hi) 1) tuples;
      { lo; hi; trees }
    | None ->
      let trees = fresh_trees ~config ~pager ~width ~skey in
      let projs = List.map (fun tup -> project_tuple tup ~lo ~hi) tuples in
      Storage.Bptree.bulk_load trees.fwd projs;
      Storage.Bptree.bulk_load trees.bwd projs;
      (match (pool, skey) with
      | Some p, Some k -> p.segments <- (k, trees) :: p.segments
      | _ -> ());
      { lo; hi; trees }
  in
  let parts = Array.of_list (List.map mk_part (Decomposition.partitions dec)) in
  let t =
    {
      id;
      seg = Storage.Pager.name pager;
      store;
      path;
      kind;
      dec;
      config;
      owner;
      parts;
      gate =
        { closed = Atomic.make false; readers = Atomic.make 0; version = Atomic.make 0 };
      pool;
    }
  in
  Option.iter (fun p -> p.members <- t :: p.members) pool;
  t

(* ------------------------------------------------------------------ *)
(* Tree epoch gate                                                     *)
(* ------------------------------------------------------------------ *)

let tree_version t = Atomic.get t.gate.version

let acquire_trees t ~version =
  if Atomic.get t.gate.closed then false
  else begin
    Atomic.incr t.gate.readers;
    (* Re-check after announcing ourselves: the writer seals first and
       then waits for readers, so either it sees our increment and
       spins, or we see [closed]/a moved version here and back out. *)
    if Atomic.get t.gate.closed || Atomic.get t.gate.version <> version then begin
      Atomic.decr t.gate.readers;
      false
    end
    else true
  end

let release_trees t = Atomic.decr t.gate.readers

let with_sealed t f =
  Atomic.set t.gate.closed true;
  while Atomic.get t.gate.readers > 0 do
    Domain.cpu_relax ()
  done;
  Fun.protect
    ~finally:(fun () ->
      Atomic.incr t.gate.version;
      Atomic.set t.gate.closed false)
    f

(* ------------------------------------------------------------------ *)
(* Write-behind delta buffers                                          *)
(* ------------------------------------------------------------------ *)

(* Folds over the relation's distinct trees: two of its partitions may
   share one pool segment. *)
let fold_trees f acc t =
  let acc = ref acc in
  Array.iteri
    (fun i p ->
      let rec seen k = k < i && (t.parts.(k).trees == p.trees || seen (k + 1)) in
      if not (seen 0) then acc := f !acc p.trees)
    t.parts;
  !acc

let pending_deltas t = fold_trees (fun acc tr -> acc + Ttbl.length tr.pending.entries) 0 t

let pending_bytes t =
  fold_trees
    (fun acc tr ->
      acc + (Ttbl.length tr.pending.entries * Storage.Bptree.tuple_bytes tr.fwd))
    0 t

let index_add tbl key e =
  Vtbl.replace tbl key (e :: Option.value ~default:[] (Vtbl.find_opt tbl key))

let index_remove tbl key e =
  match Vtbl.find_opt tbl key with
  | Some es -> (
    match List.filter (fun x -> x != e) es with
    | [] -> Vtbl.remove tbl key
    | es -> Vtbl.replace tbl key es)
  | None -> ()

let index_entry buf e =
  index_add buf.by_first e.proj.(0) e;
  index_add buf.by_last e.proj.(Array.length e.proj - 1) e

let buffer_delta ?stats buf proj d =
  (match stats with Some st -> Storage.Stats.(incr st Deltas_buffered) | None -> ());
  match Ttbl.find_opt buf.entries proj with
  | None ->
    let e = { proj; net = d } in
    Ttbl.replace buf.entries proj e;
    if buf.indexed then index_entry buf e
  | Some e ->
    e.net <- e.net + d;
    if e.net = 0 then begin
      Ttbl.remove buf.entries proj;
      if buf.indexed then begin
        index_remove buf.by_first proj.(0) e;
        index_remove buf.by_last proj.(Array.length proj - 1) e
      end;
      match stats with Some st -> Storage.Stats.(incr st Deltas_annihilated) | None -> ()
    end
    else
      match stats with Some st -> Storage.Stats.(incr st Deltas_merged) | None -> ()

(* Drains the buffers of every tree this relation reads, co-sharers'
   deltas included: they are owed to the same trees. *)
let flush_unlocked ?stats t =
  let flushed = ref 0 in
  fold_trees
    (fun () tr ->
      let buf = tr.pending in
      if Ttbl.length buf.entries > 0 then begin
        let deltas = Ttbl.fold (fun _ e acc -> (e.proj, e.net) :: acc) buf.entries [] in
        (* [clear] keeps the grown bucket arrays for the next deltas. *)
        Ttbl.clear buf.entries;
        if buf.indexed then begin
          Vtbl.clear buf.by_first;
          Vtbl.clear buf.by_last;
          buf.indexed <- false
        end;
        flushed := !flushed + List.length deltas;
        List.iter (fun (proj, d) -> Storage.Bptree.adjust ?stats tr.fwd proj d) deltas;
        List.iter (fun (proj, d) -> Storage.Bptree.adjust ?stats tr.bwd proj d) deltas
      end)
    () t;
  (match stats with
  | Some st when !flushed > 0 -> Storage.Stats.(add st Deltas_flushed !flushed)
  | _ -> ());
  !flushed

(* Empty buffers leave the gate untouched: the tree version survives, so
   snapshot pins on untouched relations keep their fast path. *)
let flush ?stats t =
  if pending_deltas t = 0 then 0 else with_sealed t (fun () -> flush_unlocked ?stats t)

let partition_relation t i =
  let p = t.parts.(i) in
  Relation.of_list ~width:(p.hi - p.lo + 1) (Storage.Bptree.scan p.trees.fwd)

(* The rows of [key] in [found], (key, rows) pairs in key order. *)
let rec search found key lo hi =
  if lo >= hi then []
  else
    let mid = (lo + hi) lsr 1 in
    let k, rows = found.(mid) in
    let c = Gom.Value.compare k key in
    if c = 0 then rows else if c < 0 then search found key (mid + 1) hi else search found key lo mid

(* One batched read of the keys.  Its answers come back in key order,
   so a key's rows are found by binary search; a probe's lone key needs
   no array. *)
let lookup ?stats t i ~fwd keys =
  let trees = t.parts.(i).trees in
  match Storage.Bptree.lookup_many ?stats (if fwd then trees.fwd else trees.bwd) keys with
  | [ (k, rows) ] -> fun key -> if Gom.Value.equal k key then rows else []
  | found ->
    let found = Array.of_list found in
    fun key -> search found key 0 (Array.length found)

let scan_partition ?stats t i = Storage.Bptree.scan ?stats t.parts.(i).trees.fwd

(* ------------------------------------------------------------------ *)
(* The current relation: trees overlaid with the pending deltas        *)
(* ------------------------------------------------------------------ *)

(* Tree rows overlaid with the partition's [pending] entries for them:
   the projections whose tree count plus net delta stays positive, in
   tuple order. *)
let overlay t pi pending rows =
  let trees = t.parts.(pi).trees in
  let count proj =
    Storage.Bptree.refcount trees.fwd proj
    + match Ttbl.find_opt trees.pending.entries proj with Some e -> e.net | None -> 0
  in
  List.filter
    (fun proj -> count proj > 0)
    (List.sort_uniq Relation.Tuple.compare (rows @ List.map (fun e -> e.proj) pending))

let probe ?stats t i ~fwd keys =
  let rows = lookup ?stats t i ~fwd keys in
  let buf = t.parts.(i).trees.pending in
  if Ttbl.length buf.entries = 0 then rows
  else begin
    if not buf.indexed then begin
      Ttbl.iter (fun _ e -> index_entry buf e) buf.entries;
      buf.indexed <- true
    end;
    let by_key = if fwd then buf.by_first else buf.by_last in
    fun key ->
      match Vtbl.find_opt by_key key with
      | None -> rows key
      | Some pending -> overlay t i pending (rows key)
  end

let probe_scan ?stats t i =
  let rows = scan_partition ?stats t i in
  let entries = t.parts.(i).trees.pending.entries in
  if Ttbl.length entries = 0 then rows
  else overlay t i (Ttbl.fold (fun _ e acc -> e :: acc) entries []) rows

(* The relation stitched from its partitions (Thm. 3.9).  Keeping only
   tuples with an edge drops what a pool's co-sharers leave in a shared
   partition that this relation never stored: a lone boundary value,
   which the null-equality join would glue to all-NULL padding. *)
let extension_relation t =
  let parts =
    List.init (Array.length t.parts) (fun i ->
        let p = t.parts.(i) in
        Relation.of_list ~width:(p.hi - p.lo + 1) (probe_scan t i))
  in
  restrict t (Relation.filter (Relation.reconstruct parts) Relation.Tuple.has_edge)

let cardinal t = Relation.cardinal (extension_relation t)

(* Buffer a difference: retract [remove], then add [add], netted per
   projection in each partition's write-behind buffer.  The difference
   must be exact — every removed tuple present, every added one absent
   — since nothing else records the relation.  Tuples outside the
   fragment's placement predicate are dropped from both sides (the
   owning shard stores them). *)
let apply_delta ?stats t ~remove ~add =
  let mine tup =
    if Array.length tup <> arity t then invalid_arg "Asr.apply_delta: width mismatch";
    match t.owner with Some f -> f tup | None -> true
  in
  let remove = List.filter mine remove and add = List.filter mine add in
  Array.iter
    (fun p ->
      let buffer d tup =
        buffer_delta ?stats p.trees.pending (project_tuple tup ~lo:p.lo ~hi:p.hi) d
      in
      List.iter (buffer (-1)) remove;
      List.iter (buffer 1) add)
    t.parts;
  List.length remove + List.length add

let supports t ~i ~j =
  Extension.supports t.kind ~n:(Gom.Path.length t.path) ~i ~j

(* ------------------------------------------------------------------ *)
(* Integrity hooks                                                     *)
(* ------------------------------------------------------------------ *)

let partition_shared t i = t.parts.(i).trees.skey <> None

let partition_refcount t i proj = Storage.Bptree.refcount t.parts.(i).trees.fwd proj

let check_partition t i =
  let p = t.parts.(i) in
  let ( let* ) = Result.bind in
  let* () = Storage.Bptree.check_invariants p.trees.fwd in
  let* () = Storage.Bptree.check_invariants p.trees.bwd in
  let fwd = Storage.Bptree.scan p.trees.fwd in
  if List.length fwd <> Storage.Bptree.cardinal p.trees.bwd then
    Error "forward and backward trees hold different numbers of tuples"
  else
    match
      List.find_opt
        (fun proj ->
          Storage.Bptree.refcount p.trees.fwd proj
          <> Storage.Bptree.refcount p.trees.bwd proj)
        fwd
    with
    | Some proj ->
      Error
        ("forward and backward reference counts differ for "
        ^ Relation.Tuple.to_string proj)
    | None -> Ok ()

type damage =
  | Drop of Relation.Tuple.t
  | Phantom of Relation.Tuple.t

let damage_partition t i ds =
  let p = t.parts.(i) in
  let width = p.hi - p.lo + 1 in
  with_sealed t (fun () ->
      List.iter
        (fun d ->
          let proj = match d with Drop proj | Phantom proj -> proj in
          if Array.length proj <> width then
            invalid_arg "Asr.damage_partition: projection width mismatch";
          adjust p.trees proj (match d with Drop _ -> -1 | Phantom _ -> 1))
        ds)

(* The ground truth of a relation's partitions (paper, Defs. 3.4-3.7):
   every relation that may hold one of its trees — a pool's members, or
   the relation alone — with its extension, computed on first need and
   then reused for every partition. *)
type target = { tg_asr : t; truths : (t * Relation.Tuple.t list Lazy.t) list }

let target t =
  let members = match t.pool with Some pool -> pool.members | None -> [ t ] in
  let truth m =
    lazy (Relation.to_list (restrict m (Extension.compute m.store m.path m.kind)))
  in
  { tg_asr = t; truths = List.map (fun m -> (m, truth m)) members }

let target_tuples tg = Lazy.force (List.assq tg.tg_asr tg.truths)

(* The partition's expected multiset sums the projections of every
   partition, of any member, that holds the same trees (a pool segment
   counts each sharer's references, possibly from several of its
   partitions); every projection the trees hold is a candidate too. *)
let partition_diff ?stats ?(keep = fun _ -> true) tg i =
  let t = tg.tg_asr in
  let trees = t.parts.(i).trees in
  let want = Ttbl.create 64 in
  List.iter
    (fun (m, truth) ->
      Array.iter
        (fun q ->
          if q.trees == trees then
            List.iter
              (fun tup ->
                if keep tup then begin
                  let proj = project_tuple tup ~lo:q.lo ~hi:q.hi in
                  let n = Option.value ~default:0 (Ttbl.find_opt want proj) in
                  Ttbl.replace want proj (n + 1)
                end)
              (Lazy.force truth))
        m.parts)
    tg.truths;
  List.iter
    (fun proj -> if not (Ttbl.mem want proj) then Ttbl.replace want proj 0)
    (scan_partition ?stats t i);
  Ttbl.fold
    (fun proj n acc ->
      let have = Storage.Bptree.refcount trees.fwd proj in
      if have = n then acc else (proj, n, have) :: acc)
    want []
  |> List.sort (fun (a, _, _) (b, _, _) -> Relation.Tuple.compare a b)

let patch_partition ?stats tg i =
  let t = tg.tg_asr in
  with_sealed t (fun () ->
      (* Reconcile against trees that reflect every buffered delta, or the
         pending work would read as divergence and later double-apply. *)
      ignore (flush_unlocked ?stats t);
      let diff = partition_diff ?stats tg i in
      List.iter
        (fun (proj, want, have) -> adjust ?stats t.parts.(i).trees proj (want - have))
        diff;
      List.length diff)

type part_geometry = {
  lo : int;
  hi : int;
  tuples : int;
  tuple_bytes : int;
  leaf_pages : int;
  inner_pages : int;
  height : int;
  shared : bool;
}

let geometry t =
  Array.to_list t.parts
  |> List.map (fun (p : part) ->
         {
           lo = p.lo;
           hi = p.hi;
           tuples = Storage.Bptree.cardinal p.trees.fwd;
           tuple_bytes = Storage.Bptree.tuple_bytes p.trees.fwd;
           leaf_pages = Storage.Bptree.leaf_pages p.trees.fwd;
           inner_pages = Storage.Bptree.inner_pages p.trees.fwd;
           height = Storage.Bptree.height p.trees.fwd;
           shared = p.trees.skey <> None;
         })

let total_pages t =
  List.fold_left (fun acc g -> acc + g.leaf_pages + g.inner_pages) 0 (geometry t)

let shared_partition_count t =
  Array.fold_left (fun acc p -> if p.trees.skey <> None then acc + 1 else acc) 0 t.parts

let pool_segment_count pool = List.length pool.segments

let pool_total_pages asrs =
  (* Count each physical tree once even when several relations share it. *)
  let seen : Storage.Bptree.t list ref = ref [] in
  let add tree acc =
    if List.exists (fun t -> t == tree) !seen then acc
    else begin
      seen := tree :: !seen;
      acc + Storage.Bptree.leaf_pages tree + Storage.Bptree.inner_pages tree
    end
  in
  List.fold_left
    (fun acc t ->
      Array.fold_left (fun acc p -> add p.trees.fwd (add p.trees.bwd acc)) acc t.parts)
    0 asrs
