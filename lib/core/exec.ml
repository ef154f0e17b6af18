type env = {
  view : Gom.Store_view.t;
  heap : Storage.Heap.t;
  stats : Storage.Stats.t;
  deadline : Deadline.t;
  marks : (int * int) list;
      (* (Asr.id, tree version) pinned at snapshot publication *)
}

let make_view ?stats ?buffer_pages ?deadline ?(marks = []) view heap =
  let stats =
    match (stats, buffer_pages) with
    | Some s, _ -> s
    | None, Some n when n > 0 -> Storage.Stats.create ~buffer_capacity:n ()
    | None, _ -> Storage.Stats.create ()
  in
  let deadline = match deadline with Some d -> d | None -> Deadline.none () in
  { view; heap; stats; deadline; marks }

let make ?stats ?buffer_pages ?deadline store heap =
  make_view ?stats ?buffer_pages ?deadline (Gom.Store_view.live store) heap

let live_store_exn env =
  match Gom.Store_view.live_store env.view with
  | Some s -> s
  | None -> invalid_arg "Exec: environment reads a frozen snapshot, not a live store"

let mark_for env id = List.assoc_opt id env.marks

let checkpoint env = Deadline.check env.deadline

let read_obj env oid =
  checkpoint env;
  Storage.Heap.read_object env.heap env.stats oid

let check_range path ~i ~j =
  let n = Gom.Path.length path in
  if not (0 <= i && i < j && j <= n) then
    invalid_arg (Printf.sprintf "Exec: invalid query range (%d,%d) for n=%d" i j n)

let sort_values vs = List.sort_uniq Gom.Value.compare vs

let sort_oids os = List.sort_uniq Gom.Oid.compare os

(* Values reachable at position [j] from object [oid] at position [p].
   Reads the pages of every object it dereferences an attribute of,
   i.e. positions p .. j-1 plus intermediate set instances. *)
let rec reach env path ~p ~j oid =
  if p >= j then [ Gom.Value.Ref oid ]
  else begin
    read_obj env oid;
    let step = Gom.Path.step path (p + 1) in
    match Gom.Store_view.get_attr env.view oid step.Gom.Path.attr with
    | Gom.Value.Null -> []
    | v -> (
      match step.Gom.Path.set_type with
      | None ->
        if p + 1 = j then [ v ]
        else reach env path ~p:(p + 1) ~j (Gom.Value.oid_exn v)
      | Some _ ->
        let set_oid = Gom.Value.oid_exn v in
        read_obj env set_oid;
        Gom.Store_view.elements env.view set_oid
        |> List.concat_map (fun e ->
               if p + 1 = j then [ e ]
               else reach env path ~p:(p + 1) ~j (Gom.Value.oid_exn e)))
  end

let forward_scan env path ~i ~j oid =
  check_range path ~i ~j;
  sort_values (reach env path ~p:i ~j oid)

let backward_scan env path ~i ~j ~target =
  check_range path ~i ~j;
  (* Memoised reachability test so that shared sub-objects are traversed
     (and their pages charged) once. *)
  let memo : (int * Gom.Oid.t, bool) Hashtbl.t = Hashtbl.create 1024 in
  let rec reaches p oid =
    match Hashtbl.find_opt memo (p, oid) with
    | Some r -> r
    | None ->
      let r =
        begin
          read_obj env oid;
          let step = Gom.Path.step path (p + 1) in
          match Gom.Store_view.get_attr env.view oid step.Gom.Path.attr with
          | Gom.Value.Null -> false
          | v -> (
            match step.Gom.Path.set_type with
            | None ->
              if p + 1 = j then Gom.Value.equal v target
              else reaches (p + 1) (Gom.Value.oid_exn v)
            | Some _ ->
              let set_oid = Gom.Value.oid_exn v in
              read_obj env set_oid;
              let elems = Gom.Store_view.elements env.view set_oid in
              if p + 1 = j then List.exists (Gom.Value.equal target) elems
              else
                List.exists (fun e -> reaches (p + 1) (Gom.Value.oid_exn e)) elems)
        end
      in
      Hashtbl.replace memo (p, oid) r;
      r
  in
  let sources = Gom.Store_view.extent ~deep:true env.view (Gom.Path.type_at path i) in
  sort_oids (List.filter (fun o -> reaches i o) sources)

(* ------------------------------------------------------------------ *)
(* Index-supported evaluation                                          *)
(* ------------------------------------------------------------------ *)

type dir = Fwd | Bwd

type step =
  | Lookup of { part : int; enter : int; leave : int }
  | Scan of { part : int; enter : int; leave : int }

let stitch_steps index dir ~i ~j =
  let path = Asr.path index in
  check_range path ~i ~j;
  let col = Gom.Path.column_of_object_position path in
  let start, goal, next =
    match dir with Fwd -> (col i, col j, 1) | Bwd -> (col j, col i, -1)
  in
  (* A partition's clustering column and far column, in walk order. *)
  let ends part =
    let lo, hi = Asr.partition_bounds index part in
    match dir with Fwd -> (lo, hi) | Bwd -> (hi, lo)
  in
  let rec go part enter =
    let near, far = ends part in
    let leave = match dir with Fwd -> min far goal | Bwd -> max far goal in
    let step =
      if enter = near then Lookup { part; enter; leave } else Scan { part; enter; leave }
    in
    if leave = goal then [ step ] else step :: go (part + next) leave
  in
  (* Start in the partition clustered on the start column if there is
     one, else in the partition holding it.  [partition_index_of_column]
     prefers the partition starting at a column; a backward walk wants
     the one ending there, its predecessor. *)
  let p = Asr.partition_index_of_column index start in
  let ending_here = dir = Bwd && fst (Asr.partition_bounds index p) = start in
  go (if ending_here then p - 1 else p) start

type lookup = int -> Gom.Value.t list -> Gom.Value.t -> Relation.Tuple.t list

let distinct_at rows col_in_part =
  rows
  |> List.filter_map (fun (row : Relation.Tuple.t) ->
         let v = row.(col_in_part) in
         if Gom.Value.is_null v then None else Some v)
  |> sort_values

(* The walk itself, over any frontier: one round per step, a
   cancellation checkpoint before each.  A round reads the step's
   partition — a [Scan] once for every key, a [Lookup] prepared with
   every key of [keys items] — and hands [advance] a selector of the rows
   holding any of some keys at the column it enters by, with that
   column's and the leaving column's offsets in a row.  The walk stops
   once no key is left. *)
let walk env index ~lookup ~scan ~keys ~advance steps items =
  let rec go items = function
    | [] -> items
    | step :: rest -> (
      (* Cancellation checkpoint between partition rounds: a round
         either happens whole or not at all, so every frontier is still
         exact when Deadline.Expired propagates. *)
      checkpoint env;
      match keys items with
      | [] -> items
      | ks ->
        let (Lookup { part; enter; leave } | Scan { part; enter; leave }) = step in
        let lo, _ = Asr.partition_bounds index part in
        let select =
          match step with
          | Scan _ ->
            (* Entered away from the clustering column: every leaf page
               is read, once for all probes. *)
            let rows = scan part in
            fun keys ->
              List.filter
                (fun (row : Relation.Tuple.t) ->
                  List.exists (Gom.Value.equal row.(enter - lo)) keys)
                rows
          | Lookup _ -> List.concat_map (lookup part ks)
        in
        go (advance ~enter:(enter - lo) ~leave:(leave - lo) select items) rest)
  in
  go items steps

let stitch env index dir steps frontiers =
  walk env index
    ~lookup:(Asr.lookup ~stats:env.stats index ~fwd:(match dir with Fwd -> true | Bwd -> false))
    ~scan:(Asr.scan_partition ~stats:env.stats index)
    steps frontiers
    ~keys:(fun frontiers -> List.concat (Array.to_list frontiers))
    ~advance:(fun ~enter:_ ~leave select ->
      Array.map (function [] -> [] | frontier -> distinct_at (select frontier) leave))

let paths env index ~lookup ~scan dir ~i ~j probe =
  let col = Gom.Path.column_of_object_position (Asr.path index) in
  (* A partial path grows away from the probe, from its tip: rightwards
     going forward, leftwards going backward. *)
  let tip (p : Relation.Tuple.t) =
    match dir with Fwd -> p.(Array.length p - 1) | Bwd -> p.(0)
  in
  let grow ~enter ~leave select p =
    if Gom.Value.is_null (tip p) then [ p ]
    else
      List.map
        (fun (row : Relation.Tuple.t) ->
          match dir with
          | Fwd -> Array.append p (Array.sub row (enter + 1) (leave - enter))
          | Bwd -> Array.append (Array.sub row leave (enter - leave)) p)
        (select [ tip p ])
  in
  walk env index ~lookup ~scan (stitch_steps index dir ~i ~j) [ [| probe |] ]
    ~keys:
      (List.filter_map (fun p -> if Gom.Value.is_null (tip p) then None else Some (tip p)))
    ~advance:(fun ~enter ~leave select ps ->
      List.sort_uniq Relation.Tuple.compare (List.concat_map (grow ~enter ~leave select) ps))
  (* A path that died before the goal is NULL beyond its end. *)
  |> List.map (fun p ->
         let pad = Array.make (col j - col i + 1 - Array.length p) Gom.Value.Null in
         match dir with Fwd -> Array.append p pad | Bwd -> Array.append pad p)

(* One probe: a stitch of one frontier. *)
let supported env index dir ~i ~j probe =
  (stitch env index dir (stitch_steps index dir ~i ~j) [| [ probe ] |]).(0)

let forward_supported env index ~i ~j oid =
  supported env index Fwd ~i ~j (Gom.Value.Ref oid)

let backward_supported env index ~i ~j ~target =
  supported env index Bwd ~i ~j target |> List.map Gom.Value.oid_exn |> sort_oids

let backward ?index env path ~i ~j ~target =
  match index with
  | Some a when Asr.supports a ~i ~j && Gom.Path.equal (Asr.path a) path ->
    backward_supported env a ~i ~j ~target
  | Some _ | None -> backward_scan env path ~i ~j ~target
