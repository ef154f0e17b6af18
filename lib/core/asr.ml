type trees = {
  fwd : Storage.Bptree.t;
  bwd : Storage.Bptree.t;
  skey : string option; (* shared-segment key, when pooled *)
}

type part = { lo : int; hi : int; trees : trees }

(* One write-behind buffer per partition: net signed refcount delta per
   projected tuple, keyed by the tuple's serialisation.  A delta whose
   net reaches zero annihilates — the insert/delete pair never touches a
   page.  One buffer serves both redundant trees of the partition (they
   hold the same projection multiset). *)
type buffer = (string, Relation.Tuple.t * int) Hashtbl.t

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

(* Column index over the logical extension: one table per probed
   column from a value to the extension tuples holding it there.  Each
   bucket is a growable array kept in {!Relation.Tuple.compare} order and
   edited in place, so keeping the index allocates next to nothing per
   event.  NULL is not indexed. *)
module Vtbl = Hashtbl.Make (Gom.Value)

type bucket = { mutable items : Relation.Tuple.t array; mutable len : int }

type t = {
  id : int;  (* process-unique identity, usable as a hash key *)
  store : Gom.Store.t;
  path : Gom.Path.t;
  kind : Extension.kind;
  dec : Decomposition.t;
  config : Storage.Config.t;
  pager : Storage.Pager.t;
  owner : (Relation.Tuple.t -> bool) option;
      (* placement predicate: when set, this relation materialises only
         the extension tuples the predicate owns (horizontal sharding) *)
  mutable extension : Relation.t;
  columns : bucket Vtbl.t option array;
      (* per column, built by its first [find_by_column] *)
  parts : part array;
  mutable deferred : bool;
  pending : buffer array;  (* same length as [parts] *)
  mutable pending_total : int;  (* net deltas across all buffers *)
  gate : gate;
}

let next_id = ref 0

type pool = {
  pool_store : Gom.Store.t;
  pool_config : Storage.Config.t;
  pool_pager : Storage.Pager.t;
  mutable segments : (string * trees) list;
}

let id t = t.id
let seg t = "asr" ^ string_of_int t.id

(* Tag page traffic from this relation's trees with its segment name so
   the buffer pool can report per-segment hit ratios (planner warmth). *)
let in_seg ?stats t f =
  match stats with
  | Some st -> Storage.Stats.in_segment st (seg t) f
  | None -> f ()

let store t = t.store
let owner t = t.owner
let restrict t rel = match t.owner with Some f -> Relation.filter rel f | None -> rel
let path t = t.path
let kind t = t.kind
let decomposition t = t.dec
let config t = t.config
let arity t = Gom.Path.arity t.path
let extension_relation t = t.extension
let cardinal t = Relation.cardinal t.extension
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

let cols (lo, hi) = List.init (hi - lo + 1) (fun k -> lo + k)

let project_tuple tup (lo, hi) = Relation.Tuple.project tup (cols (lo, hi))

(* ------------------------------------------------------------------ *)
(* Section 5.4: sharing of access support relation partitions          *)
(* ------------------------------------------------------------------ *)

let make_pool ?(config = Storage.Config.default) ?(pager = Storage.Pager.create ()) store
    =
  { pool_store = store; pool_config = config; pool_pager = pager; segments = [] }

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

let insert_projection trees tup (lo, hi) =
  let proj = project_tuple tup (lo, hi) in
  Storage.Bptree.insert trees.fwd proj;
  Storage.Bptree.insert trees.bwd proj

let fresh_trees ~config ~pager ~width ~skey =
  let tuple_bytes = width * config.Storage.Config.oid_size in
  {
    fwd = Storage.Bptree.create ~config ~pager ~tuple_bytes ~key_of:(fun tup -> tup.(0));
    bwd =
      Storage.Bptree.create ~config ~pager ~tuple_bytes ~key_of:(fun tup ->
          tup.(width - 1));
    skey;
  }

let create ?(config = Storage.Config.default) ?(pager = Storage.Pager.create ()) ?pool
    ?owner store path kind dec =
  let m = Gom.Path.arity path - 1 in
  (match List.rev (Decomposition.boundaries dec) with
  | last :: _ when last = m -> ()
  | _ -> invalid_arg "Asr.create: decomposition does not match path arity");
  (match pool with
  | Some p when not (p.pool_store == store) ->
    invalid_arg "Asr.create: pool belongs to a different store"
  | _ -> ());
  let config, pager =
    match pool with Some p -> (p.pool_config, p.pool_pager) | None -> (config, pager)
  in
  let extension = Extension.compute store path kind in
  let extension =
    match owner with Some f -> Relation.filter extension f | None -> extension
  in
  let tuples = Relation.to_list extension in
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
      List.iter (fun tup -> insert_projection trees tup (lo, hi)) tuples;
      { lo; hi; trees }
    | None ->
      let trees = fresh_trees ~config ~pager ~width ~skey in
      let projs = List.map (fun tup -> project_tuple tup (lo, hi)) tuples in
      Storage.Bptree.bulk_load trees.fwd projs;
      Storage.Bptree.bulk_load trees.bwd projs;
      (match (pool, skey) with
      | Some p, Some k -> p.segments <- (k, trees) :: p.segments
      | _ -> ());
      { lo; hi; trees }
  in
  let parts = Array.of_list (List.map mk_part (Decomposition.partitions dec)) in
  let id = !next_id in
  incr next_id;
  {
    id;
    store;
    path;
    kind;
    dec;
    config;
    pager;
    owner;
    extension;
    columns = Array.make (m + 1) None;
    parts;
    deferred = false;
    pending = Array.init (Array.length parts) (fun _ -> Hashtbl.create 64);
    pending_total = 0;
    gate =
      { closed = Atomic.make false; readers = Atomic.make 0; version = Atomic.make 0 };
  }

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
(* Deferred maintenance: write-behind delta buffers                    *)
(* ------------------------------------------------------------------ *)

let deferred t = t.deferred
let set_deferred t flag = t.deferred <- flag
let pending_deltas t = t.pending_total

let pending_bytes t =
  let total = ref 0 in
  Array.iteri
    (fun i buf ->
      let bytes = Storage.Bptree.tuple_bytes t.parts.(i).trees.fwd in
      total := !total + (Hashtbl.length buf * bytes))
    t.pending;
  !total

let buffer_delta ?stats t pi proj d =
  let buf = t.pending.(pi) in
  let k = Relation.Tuple.to_string proj in
  (match stats with Some st -> Storage.Stats.(incr st Deltas_buffered) | None -> ());
  match Hashtbl.find_opt buf k with
  | None ->
    Hashtbl.replace buf k (proj, d);
    t.pending_total <- t.pending_total + 1
  | Some (_, d0) ->
    let net = d0 + d in
    if net = 0 then begin
      Hashtbl.remove buf k;
      t.pending_total <- t.pending_total - 1;
      match stats with Some st -> Storage.Stats.(incr st Deltas_annihilated) | None -> ()
    end
    else begin
      Hashtbl.replace buf k (proj, net);
      match stats with Some st -> Storage.Stats.(incr st Deltas_merged) | None -> ()
    end

let flush_unlocked ?stats t =
  let flushed = ref 0 in
  Array.iteri
    (fun pi buf ->
      if Hashtbl.length buf > 0 then begin
        let deltas = Hashtbl.fold (fun _ pd acc -> pd :: acc) buf [] in
        Hashtbl.reset buf;
        flushed := !flushed + List.length deltas;
        let p = t.parts.(pi) in
        in_seg ?stats t (fun () ->
            Storage.Bptree.apply_many ?stats p.trees.fwd deltas;
            Storage.Bptree.apply_many ?stats p.trees.bwd deltas)
      end)
    t.pending;
  t.pending_total <- 0;
  (match stats with
  | Some st when !flushed > 0 -> Storage.Stats.(add st Deltas_flushed !flushed)
  | _ -> ());
  !flushed

(* Empty buffers leave the gate untouched: the tree version survives, so
   snapshot pins on untouched relations keep their fast path. *)
let flush ?stats t =
  if t.pending_total = 0 then 0 else with_sealed t (fun () -> flush_unlocked ?stats t)

let remove_projections t tuples =
  Array.iter
    (fun p ->
      List.iter
        (fun tup ->
          let proj = project_tuple tup (p.lo, p.hi) in
          Storage.Bptree.remove p.trees.fwd proj;
          Storage.Bptree.remove p.trees.bwd proj)
        tuples)
    t.parts

let refresh t =
  (* Retract this relation's contributions (leaving co-sharers intact),
     then re-add from a fresh computation.  Pending deltas must reach
     the trees first, or the retraction below would decrement tuples the
     buffers still owe (robbing a co-sharer in a pooled segment). *)
  with_sealed t (fun () ->
      ignore (flush_unlocked t);
      remove_projections t (Relation.to_list t.extension);
      t.extension <- restrict t (Extension.compute t.store t.path t.kind);
      Array.fill t.columns 0 (Array.length t.columns) None;
      let tuples = Relation.to_list t.extension in
      Array.iter
        (fun p ->
          List.iter (fun tup -> insert_projection p.trees tup (p.lo, p.hi)) tuples)
        t.parts)

let partition_relation t i =
  let p = t.parts.(i) in
  Relation.of_list ~width:(p.hi - p.lo + 1) (Storage.Bptree.scan p.trees.fwd)

let lookup_fwd ?stats t i key =
  in_seg ?stats t (fun () -> Storage.Bptree.lookup ?stats t.parts.(i).trees.fwd key)

let lookup_bwd ?stats t i key =
  in_seg ?stats t (fun () -> Storage.Bptree.lookup ?stats t.parts.(i).trees.bwd key)

let lookup_fwd_many ?stats t i keys =
  in_seg ?stats t (fun () ->
      Storage.Bptree.lookup_many ?stats t.parts.(i).trees.fwd keys)

let lookup_bwd_many ?stats t i keys =
  in_seg ?stats t (fun () ->
      Storage.Bptree.lookup_many ?stats t.parts.(i).trees.bwd keys)

let scan_partition ?stats t i =
  in_seg ?stats t (fun () -> Storage.Bptree.scan ?stats t.parts.(i).trees.fwd)

(* ------------------------------------------------------------------ *)
(* Column index                                                        *)
(* ------------------------------------------------------------------ *)

(* First position in [b] whose tuple is not below [tup]. *)
let bucket_search b tup =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Relation.Tuple.compare b.items.(mid) tup < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 b.len

let bucket_add b tup =
  let i = bucket_search b tup in
  if b.len = Array.length b.items then begin
    let grown = Array.make (max 4 (2 * b.len)) [||] in
    Array.blit b.items 0 grown 0 b.len;
    b.items <- grown
  end;
  Array.blit b.items i b.items (i + 1) (b.len - i);
  b.items.(i) <- tup;
  b.len <- b.len + 1

let bucket_remove b tup =
  let i = bucket_search b tup in
  if i < b.len && Relation.Tuple.compare b.items.(i) tup = 0 then begin
    Array.blit b.items (i + 1) b.items i (b.len - i - 1);
    b.len <- b.len - 1;
    b.items.(b.len) <- [||]
  end

let column_add idx col tup =
  let v = tup.(col) in
  if not (Gom.Value.is_null v) then
    match Vtbl.find_opt idx v with
    | Some b -> bucket_add b tup
    | None -> Vtbl.add idx v { items = [| tup |]; len = 1 }

let column_remove idx col tup =
  let v = tup.(col) in
  match Vtbl.find_opt idx v with
  | Some b ->
    bucket_remove b tup;
    if b.len = 0 then Vtbl.remove idx v
  | None -> ()

let column_index t col =
  match t.columns.(col) with
  | Some idx -> idx
  | None ->
    let idx = Vtbl.create 64 in
    (* Ascending input: every add lands at the end of its bucket. *)
    List.iter (column_add idx col) (Relation.to_list t.extension);
    t.columns.(col) <- Some idx;
    idx

(* Retract [remove], then add [add]: the logical extension first, then
   the trees (or, deferred, the write-behind buffers) with exactly the
   tuples that changed — one seal and one segment tag for the whole
   difference.  Tuples not in the extension are not removed; tuples
   already present, or outside the fragment's placement predicate, are
   not added (the owning shard materialises those). *)
let apply_delta ?stats t ~remove ~add =
  let removed =
    List.filter
      (fun tup ->
        let present = Relation.mem t.extension tup in
        if present then t.extension <- Relation.remove t.extension tup;
        present)
      remove
  in
  let added =
    List.filter
      (fun tup ->
        if Array.length tup <> arity t then invalid_arg "Asr.apply_delta: width mismatch";
        let fresh =
          (match t.owner with Some f -> f tup | None -> true)
          && not (Relation.mem t.extension tup)
        in
        if fresh then t.extension <- Relation.add t.extension tup;
        fresh)
      add
  in
  Array.iteri
    (fun col -> function
      | Some idx ->
        List.iter (column_remove idx col) removed;
        List.iter (column_add idx col) added
      | None -> ())
    t.columns;
  if removed <> [] || added <> [] then begin
    if t.deferred then
      Array.iteri
        (fun pi p ->
          let buffer d tup = buffer_delta ?stats t pi (project_tuple tup (p.lo, p.hi)) d in
          List.iter (buffer (-1)) removed;
          List.iter (buffer 1) added)
        t.parts
    else
      with_sealed t (fun () ->
          in_seg ?stats t (fun () ->
              Array.iter
                (fun p ->
                  let write op tup =
                    let proj = project_tuple tup (p.lo, p.hi) in
                    op p.trees.fwd proj;
                    op p.trees.bwd proj
                  in
                  List.iter (write (Storage.Bptree.remove ?stats)) removed;
                  List.iter (write (Storage.Bptree.insert ?stats)) added)
                t.parts))
  end;
  List.length removed + List.length added

let insert_tuple ?stats t tup = apply_delta ?stats t ~remove:[] ~add:[ tup ] = 1

let remove_tuple ?stats t tup = apply_delta ?stats t ~remove:[ tup ] ~add:[] = 1

let distinct_values tuples col =
  List.fold_left
    (fun acc (tup : Relation.Tuple.t) ->
      let v = tup.(col) in
      if Gom.Value.is_null v || List.exists (Gom.Value.equal v) acc then acc
      else v :: acc)
    [] tuples

let find_by_column ?stats t ~col v =
  let matches =
    if Gom.Value.is_null v then
      Relation.to_list (Relation.filter t.extension (fun tup -> Gom.Value.is_null tup.(col)))
    else
      match Vtbl.find_opt (column_index t col) v with
      | None -> []
      | Some b -> List.init b.len (fun k -> b.items.(k))
  in
  (match stats with
  | None -> ()
  | Some st when t.deferred ->
    (* Deferred mode answers maintenance probes from the write-behind
       extension — no tree descent happens, so none is charged; this is
       the read half of the deferred pipeline's page savings. *)
    ignore st
  | Some st ->
    Storage.Stats.in_segment st (seg t) (fun () ->
        let pi = partition_index_of_column t col in
        let p = t.parts.(pi) in
        if col = p.lo then Storage.Bptree.touch ~stats:st p.trees.fwd v
        else if col = p.hi then Storage.Bptree.touch ~stats:st p.trees.bwd v
        else Storage.Bptree.iter ~stats:st p.trees.fwd ignore;
        if matches <> [] then begin
          for k = pi - 1 downto 0 do
            let q = t.parts.(k) in
            List.iter
              (fun key -> Storage.Bptree.touch ~stats:st q.trees.bwd key)
              (distinct_values matches q.hi)
          done;
          for k = pi + 1 to Array.length t.parts - 1 do
            let q = t.parts.(k) in
            List.iter
              (fun key -> Storage.Bptree.touch ~stats:st q.trees.fwd key)
              (distinct_values matches q.lo)
          done
        end));
  matches

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
          match d with
          | Drop proj ->
            Storage.Bptree.remove p.trees.fwd proj;
            Storage.Bptree.remove p.trees.bwd proj
          | Phantom proj ->
            Storage.Bptree.insert p.trees.fwd proj;
            Storage.Bptree.insert p.trees.bwd proj)
        ds)

let patch_partition_unlocked ?stats t i =
  (* Reconcile against trees that reflect every buffered delta, or the
     pending work would read as divergence and later double-apply. *)
  ignore (flush_unlocked ?stats t);
  let p = t.parts.(i) in
  let span = (p.lo, p.hi) in
  let shared = p.trees.skey <> None in
  (* Target multiset: this relation's projections with multiplicities
     (the reference counts the trees should carry for them). *)
  let want : (string, int * Relation.Tuple.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun tup ->
      let proj = project_tuple tup span in
      let k = Relation.Tuple.to_string proj in
      let n = match Hashtbl.find_opt want k with Some (n, _) -> n | None -> 0 in
      Hashtbl.replace want k (n + 1, proj))
    (Relation.to_list t.extension);
  (* Distinct tuples physically present right now. *)
  let present = Hashtbl.create 64 in
  List.iter
    (fun proj -> Hashtbl.replace present (Relation.Tuple.to_string proj) proj)
    (Storage.Bptree.scan p.trees.fwd);
  let fixes = ref 0 in
  let adjust proj delta =
    if delta <> 0 then begin
      incr fixes;
      in_seg ?stats t (fun () ->
          if delta > 0 then
            for _ = 1 to delta do
              Storage.Bptree.insert ?stats p.trees.fwd proj;
              Storage.Bptree.insert ?stats p.trees.bwd proj
            done
          else
            for _ = 1 to -delta do
              Storage.Bptree.remove ?stats p.trees.fwd proj;
              Storage.Bptree.remove ?stats p.trees.bwd proj
            done)
    end
  in
  Hashtbl.iter
    (fun k (n, proj) ->
      Hashtbl.remove present k;
      let have = Storage.Bptree.refcount p.trees.fwd proj in
      if shared then begin
        (* Co-sharers contribute unknown multiplicity on top of ours:
           restore missing presence, never retract. *)
        if have < n then adjust proj (n - have)
      end
      else adjust proj (n - have))
    want;
  (* Whatever remains is wanted by nobody we can vouch for: phantoms in
     an exclusive tree; in a shared tree it may be a co-sharer's, so it
     is left alone. *)
  Hashtbl.iter
    (fun _k proj ->
      if not shared then begin
        let have = Storage.Bptree.refcount p.trees.fwd proj in
        if have > 0 then adjust proj (-have)
      end)
    present;
  !fixes

let patch_partition ?stats t i =
  with_sealed t (fun () -> patch_partition_unlocked ?stats t i)

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
