module Omap = Map.Make (Gom.Oid)
module Smap = Map.Make (String)
module Imap = Map.Make (Int)
module Iset = Set.Make (Int)

type placement = { first : int; span : int; ty : Gom.Schema.type_name }
type area = { pages : int list; (* reverse order of allocation *) used_slots : int }

(* Placements, areas and page occupancy live in persistent maps behind
   mutable roots: the live heap mutates the roots in place, and
   [snapshot] forks an immutable O(1) copy sharing the balanced trees —
   the heap counterpart of [Gom.Frozen] epoch snapshots.

   Occupancy ([occ]) maps each type to the pages currently holding at
   least one of its live objects, with a live-object count per page.
   Before any reclustering it coincides with the creation-order areas;
   after [recluster] moves objects, it is the ground truth — pages may
   then hold objects of several types, and extent scans follow [occ],
   not the bump-allocator areas. *)
type t = {
  config : Config.t;
  pager : Pager.t;
  size_of : Gom.Schema.type_name -> int;
  schema : Gom.Schema.t;
  mutable placements : placement Omap.t;
  mutable areas : area Smap.t;
  mutable occ : int Imap.t Smap.t;
  mutable tracer : Affinity.t option;
      (* live heaps may carry an affinity tracer; snapshots never do
         (worker domains must not race on its tables) *)
  mutable sub : (Gom.Store.t * Gom.Store.subscription) option;
      (* the live heap's store listener; snapshots have none *)
}

let objects_per_page t ty = max 1 (t.config.Config.page_size / max 1 (t.size_of ty))

let area t ty =
  match Smap.find_opt ty t.areas with
  | Some a -> a
  | None -> { pages = []; used_slots = 0 }

let occ_of t ty = match Smap.find_opt ty t.occ with Some m -> m | None -> Imap.empty

let occ_add t ty page =
  let m = occ_of t ty in
  let n = match Imap.find_opt page m with Some n -> n | None -> 0 in
  t.occ <- Smap.add ty (Imap.add page (n + 1) m) t.occ

let occ_remove t ty page =
  let m = occ_of t ty in
  match Imap.find_opt page m with
  | None -> ()
  | Some n ->
    let m = if n <= 1 then Imap.remove page m else Imap.add page (n - 1) m in
    t.occ <- Smap.add ty m t.occ

let place t ty oid =
  let size = max 1 (t.size_of ty) in
  let a = area t ty in
  if size > t.config.Config.page_size then begin
    (* Large object: spans dedicated consecutive pages. *)
    let span = (size + t.config.Config.page_size - 1) / t.config.Config.page_size in
    let first = Pager.alloc t.pager in
    for _ = 2 to span do
      ignore (Pager.alloc t.pager)
    done;
    let a =
      { pages = first :: a.pages;
        used_slots = objects_per_page t ty (* force a fresh page next time *) }
    in
    t.areas <- Smap.add ty a t.areas;
    t.placements <- Omap.add oid { first; span; ty } t.placements;
    for i = 0 to span - 1 do
      occ_add t ty (first + i)
    done
  end
  else begin
    let opp = objects_per_page t ty in
    let page =
      match a.pages with
      | p :: _ when a.used_slots < opp ->
        t.areas <- Smap.add ty { a with used_slots = a.used_slots + 1 } t.areas;
        p
      | _ ->
        let p = Pager.alloc t.pager in
        t.areas <- Smap.add ty { pages = p :: a.pages; used_slots = 1 } t.areas;
        p
    in
    t.placements <- Omap.add oid { first = page; span = 1; ty } t.placements;
    occ_add t ty page
  end

let remove t oid =
  match Omap.find_opt oid t.placements with
  | None -> ()
  | Some p ->
    for i = 0 to p.span - 1 do
      occ_remove t p.ty (p.first + i)
    done;
    t.placements <- Omap.remove oid t.placements

let create ?(config = Config.default) ~size_of store =
  let t =
    {
      config;
      pager = Pager.create "heap";
      size_of;
      schema = Gom.Store.schema store;
      placements = Omap.empty;
      areas = Smap.empty;
      occ = Smap.empty;
      tracer = None;
      sub = None;
    }
  in
  Gom.Store.fold_objects store ~init:() ~f:(fun () inst ->
      place t (Gom.Instance.ty inst) (Gom.Instance.oid inst));
  t.sub <-
    Some
      ( store,
        Gom.Store.subscribe store (function
          | Gom.Store.Created oid -> place t (Gom.Store.type_of store oid) oid
          | Gom.Store.Deleted { obj = oid; _ } -> remove t oid
          | Gom.Store.Attr_set _ | Gom.Store.Set_inserted _ | Gom.Store.Set_removed _ -> ())
      );
  t

let close t =
  Option.iter (fun (store, sub) -> Gom.Store.unsubscribe store sub) t.sub;
  t.sub <- None

let snapshot t = { t with placements = t.placements; tracer = None; sub = None }

let config t = t.config

let set_tracer t tr = t.tracer <- tr
let tracer t = t.tracer

let placement t oid =
  match Omap.find_opt oid t.placements with
  | Some p -> p
  | None -> raise Not_found

let page_of t oid = (placement t oid).first
let span_of t oid = (placement t oid).span

let read_object t stats oid =
  (match t.tracer with Some tr -> Affinity.touch tr oid | None -> ());
  let p = placement t oid in
  for i = 0 to p.span - 1 do
    Stats.read stats (p.first + i)
  done

let extent_pages ?(deep = false) t ty =
  let tys = if deep then Gom.Schema.subtypes_closure t.schema ty else [ ty ] in
  (* Union, not concatenation: after reclustering a page can host
     objects of several types in the closure and must count once. *)
  List.fold_left
    (fun acc ty -> Imap.fold (fun page _ acc -> Iset.add page acc) (occ_of t ty) acc)
    Iset.empty tys
  |> Iset.elements

let pages_of_type ?deep t ty = max 1 (List.length (extent_pages ?deep t ty))

let scan_extent ?deep t stats ty =
  let pages = extent_pages ?deep t ty in
  (* Sequential extent pass: stage the whole extent, then read it — with
     a pool attached the pages are fetched once here and left resident
     for whoever traverses them next. *)
  Stats.prefetch stats pages;
  List.iter (Stats.read stats) pages

(* ------------------------------------------------------------------ *)
(* Traversal-aware reclustering                                        *)
(* ------------------------------------------------------------------ *)

type recluster_outcome = {
  rc_considered : int;  (* objects named by the plan *)
  rc_moved : int;  (* placements actually rewritten *)
  rc_target_pages : int;  (* fresh pages the moved objects share *)
}

(* Pack the plan's clusters onto fresh pages by first-fit in cluster
   order: a cluster that fits the current fill page shares it (hot
   neighbourhoods can co-reside), otherwise a fresh page is opened.
   Deleted objects and multi-page objects are skipped — span placement
   is exactly the math reclustering must preserve, so large objects
   keep their dedicated consecutive pages. *)
let plan_moves t plan =
  let moves = ref [] in
  let considered = ref 0 in
  let current = ref None (* (page, used bytes) *) in
  let page_size = t.config.Config.page_size in
  List.iter
    (fun cluster ->
      let members =
        List.filter_map
          (fun oid ->
            match Omap.find_opt oid t.placements with
            | Some p when p.span = 1 -> Some (oid, max 1 (t.size_of p.ty))
            | Some _ | None -> None)
          cluster
      in
      considered := !considered + List.length cluster;
      let total = List.fold_left (fun acc (_, s) -> acc + s) 0 members in
      if List.length members > 1 then begin
        (match !current with
        | Some (_, used) when used + total <= page_size -> ()
        | _ -> current := Some (Pager.alloc t.pager, 0));
        List.iter
          (fun (oid, size) ->
            let page, used =
              match !current with
              | Some (p, u) when u + size <= page_size -> (p, u)
              | _ ->
                let p = Pager.alloc t.pager in
                current := Some (p, 0);
                (p, 0)
            in
            current := Some (page, used + size);
            moves := (oid, page) :: !moves)
          members
      end)
    plan;
  (List.rev !moves, !considered)

(* Rewrite each planned placement.  An object the plan names twice is
   moved by its last naming, and counted only where it changed page. *)
let recluster t ~plan =
  let moves, considered = plan_moves t plan in
  let moved = ref 0 and targets = ref Iset.empty in
  List.iter
    (fun (oid, page) ->
      let p = Omap.find oid t.placements in
      if p.first <> page then begin
        occ_remove t p.ty p.first;
        occ_add t p.ty page;
        t.placements <- Omap.add oid { p with first = page } t.placements;
        incr moved;
        targets := Iset.add page !targets
      end)
    moves;
  {
    rc_considered = considered;
    rc_moved = !moved;
    rc_target_pages = Iset.cardinal !targets;
  }
