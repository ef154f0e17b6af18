module Omap = Map.Make (Oid)
module Smap = Map.Make (String)
module Oset = Set.Make (Oid)

let error fmt = Format.kasprintf (fun s -> raise (Store.Type_error s)) fmt

type t = {
  schema : Schema.t;
  epoch : int;
  objects : Instance.t Omap.t; (* bodies are private to this lineage *)
  extents : Oid.t list Smap.t; (* reverse creation order, like Store *)
  names : Oid.t Smap.t;
  base : Store.t; (* lineage witness; never read after construction *)
  population : int; (* Omap.cardinal objects, tracked incrementally:
                       cardinal itself walks the whole map and would put
                       an O(n) term back into [advance] *)
  copied : int; (* instances deep-copied when this epoch was built *)
  shared : int; (* instances carried over by reference *)
}

let schema t = t.schema
let epoch t = t.epoch
let base t = t.base
let copied t = t.copied
let shared t = t.shared

let names_of_store base =
  List.fold_left (fun acc (n, o) -> Smap.add n o acc) Smap.empty (Store.names base)

(* Initial capture: every mutable instance body is cloned once (the base
   keeps mutating bodies in place), extents and names are captured as
   immutable values.  Subsequent epochs share everything untouched. *)
let of_store base =
  let objects =
    Store.fold_objects base ~init:Omap.empty ~f:(fun acc inst ->
        Omap.add (Instance.oid inst) (Instance.copy inst) acc)
  in
  let extents =
    List.fold_left
      (fun acc ty -> Smap.add ty (Store.extent_rev base ty) acc)
      Smap.empty (Store.extent_types base)
  in
  let population = Omap.cardinal objects in
  {
    schema = Store.schema base;
    epoch = Store.epoch base;
    objects;
    extents;
    names = names_of_store base;
    base;
    population;
    copied = population;
    shared = 0;
  }

(* One epoch forward: [events] must be exactly the base's event suffix
   since [prev] was built, and the caller must hold off concurrent
   writers (the parallel server publishes under its writer mutex).
   Cost is O(|dirty set| log n) — independent of store size. *)
let advance prev events =
  let base = prev.base in
  if Store.schema base != prev.schema then
    error "Frozen.advance: snapshot does not descend from this base";
  (* Objects whose mutable body may differ from the previous epoch. *)
  let dirty =
    List.fold_left
      (fun acc (ev : Store.event) ->
        match ev with
        | Store.Created oid | Store.Deleted { obj = oid; _ } -> Oset.add oid acc
        | Store.Attr_set { obj; _ } -> Oset.add obj acc
        | Store.Set_inserted { set; _ } | Store.Set_removed { set; _ } ->
          Oset.add set acc)
      Oset.empty events
  in
  let copied = ref 0 in
  let population = ref prev.population in
  let objects =
    Oset.fold
      (fun oid acc ->
        match Store.get base oid with
        | Some inst ->
          incr copied;
          if not (Omap.mem oid acc) then incr population;
          Omap.add oid (Instance.copy inst) acc
        | None ->
          if Omap.mem oid acc then decr population;
          Omap.remove oid acc)
      dirty prev.objects
  in
  (* Extents only move on creation/deletion; [Deleted] carries the type
     and a created-then-deleted object re-announces its type through the
     later [Deleted] event, so [get] never misses a type we need. *)
  let touched_types =
    List.fold_left
      (fun acc (ev : Store.event) ->
        match ev with
        | Store.Created oid -> (
          match Store.get base oid with
          | Some inst -> Smap.add (Instance.ty inst) () acc
          | None -> acc)
        | Store.Deleted { ty; _ } -> Smap.add ty () acc
        | Store.Attr_set _ | Store.Set_inserted _ | Store.Set_removed _ -> acc)
      Smap.empty events
  in
  let extents =
    Smap.fold
      (fun ty () acc ->
        match Store.extent_rev base ty with
        | [] -> Smap.remove ty acc
        | l -> Smap.add ty l acc)
      touched_types prev.extents
  in
  {
    schema = prev.schema;
    epoch = Store.epoch base;
    objects;
    extents;
    (* Name bindings emit no events; they are few, so rebuild. *)
    names = names_of_store base;
    base;
    population = !population;
    copied = !copied;
    shared = !population - !copied;
  }

(* ---------------- read surface (mirrors Store) ---------------- *)

let get t oid = Omap.find_opt oid t.objects

let get_exn t oid =
  match get t oid with
  | Some inst -> inst
  | None -> error "unknown object %s" (Format.asprintf "%a" Oid.pp oid)

let mem t oid = Omap.mem oid t.objects
let type_of t oid = Instance.ty (get_exn t oid)

let get_attr t oid attr =
  let inst = get_exn t oid in
  match Instance.attr inst attr with
  | Some v -> v
  | None ->
    error "object %s of type %s has no attribute %s"
      (Format.asprintf "%a" Oid.pp oid)
      (Instance.ty inst) attr

let elements t oid = Instance.elements (get_exn t oid)

let extent ?(deep = false) t ty =
  let exact ty =
    match Smap.find_opt ty t.extents with Some l -> List.rev l | None -> []
  in
  if not deep then exact ty
  else
    Schema.subtypes_closure t.schema ty
    |> List.concat_map exact
    |> List.sort Oid.compare

let count ?deep t ty = List.length (extent ?deep t ty)

let fold_objects t ~init ~f =
  (* Omap iterates in ascending identifier order = creation order. *)
  Omap.fold (fun _ inst acc -> f acc inst) t.objects init

let find_name t name = Smap.find_opt name t.names
let names t = Smap.bindings t.names
