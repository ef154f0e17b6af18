type event =
  | Created of Oid.t
  | Attr_set of {
      obj : Oid.t;
      attr : Schema.attr_name;
      old_value : Value.t;
      new_value : Value.t;
    }
  | Set_inserted of { set : Oid.t; elem : Value.t }
  | Set_removed of { set : Oid.t; elem : Value.t }
  | Deleted of { obj : Oid.t; ty : Schema.type_name }

exception Type_error of string

let error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

(* Reverse reference index: who refers to an object.  [attr_refs] maps
   a target to the (holder, attribute) pairs of the tuple attributes
   holding [Ref target]; [elem_refs] maps an element to the collections
   containing [Ref element] (once, however often a list repeats it).
   Buckets are unordered; queries sort. *)
type refindex = {
  attr_refs : (Oid.t, (Oid.t * Schema.attr_name) list) Hashtbl.t;
  elem_refs : (Oid.t, Oid.t list) Hashtbl.t;
}

(* The object table hashes an oid as its integer, with no generic
   structural walk on lookup. *)
module Otbl = Hashtbl.Make (Oid)

type t = {
  schema : Schema.t;
  gen : Oid.gen;
  objects : Instance.t Otbl.t;
  extents : (Schema.type_name, Oid.t list ref) Hashtbl.t; (* reverse creation order *)
  names : (string, Oid.t) Hashtbl.t;
  mutable listeners : (int * (event -> unit)) list; (* subscription = notification order *)
  mutable next_subscription : int;
  mutable epoch : int; (* bumped once per emitted mutation event *)
  mutable refindex : refindex option;
      (* built by the first inbound query, then kept by the mutators *)
}

let create schema =
  (match Schema.well_formed schema with
  | Ok () -> ()
  | Error msg -> error "ill-formed schema: %s" msg);
  {
    schema;
    gen = Oid.make_gen ();
    objects = Otbl.create 1024;
    extents = Hashtbl.create 64;
    names = Hashtbl.create 16;
    listeners = [];
    next_subscription = 0;
    epoch = 0;
    refindex = None;
  }

let schema t = t.schema

let epoch t = t.epoch

let emit t ev =
  t.epoch <- t.epoch + 1;
  List.iter (fun (_, f) -> f ev) t.listeners

(* Deep structural clone: every instance body is copied, the immutable
   schema is shared, listeners are not carried over (a copy starts with
   no observers).  The copy is a fully functional store of its own —
   the parallel layer publishes copies as frozen epoch snapshots and
   simply never mutates them, making concurrent multi-domain reads
   safe (hashtable reads do not resize). *)
let copy t =
  let objects = Otbl.create (max 16 (Otbl.length t.objects)) in
  Otbl.iter
    (fun oid inst -> Otbl.replace objects oid (Instance.copy inst))
    t.objects;
  let extents = Hashtbl.create (max 16 (Hashtbl.length t.extents)) in
  Hashtbl.iter (fun ty r -> Hashtbl.replace extents ty (ref !r)) t.extents;
  (* Fork the generator at its current position instead of rescanning
     every object: identifiers already drawn stay taken on both sides,
     and the O(n) [ensure_above] sweep disappears. *)
  let gen = Oid.fork t.gen in
  {
    schema = t.schema;
    gen;
    objects;
    extents;
    names = Hashtbl.copy t.names;
    listeners = [];
    next_subscription = 0;
    epoch = t.epoch;
    refindex = None;
  }

type subscription = int

let subscribe t f =
  let id = t.next_subscription in
  t.next_subscription <- id + 1;
  t.listeners <- t.listeners @ [ (id, f) ];
  id

let unsubscribe t id = t.listeners <- List.filter (fun (i, _) -> i <> id) t.listeners

let listener_count t = List.length t.listeners

let get t oid = Otbl.find_opt t.objects oid

let get_exn t oid =
  match get t oid with
  | Some inst -> inst
  | None -> error "unknown object %s" (Format.asprintf "%a" Oid.pp oid)

let mem t oid = Otbl.mem t.objects oid

let type_of t oid = Instance.ty (get_exn t oid)

let extent_ref t ty =
  match Hashtbl.find_opt t.extents ty with
  | Some r -> r
  | None ->
    let r = ref [] in
    Hashtbl.add t.extents ty r;
    r

let new_object t ty =
  (match Schema.find t.schema ty with
  | None -> error "cannot instantiate unknown type %s" ty
  | Some (Schema.Atomic _) -> error "cannot instantiate elementary type %s" ty
  | Some (Schema.Tuple _ | Schema.Set _ | Schema.List _) -> ());
  let oid = Oid.fresh t.gen in
  let body =
    match Schema.find_exn t.schema ty with
    | Schema.Tuple _ ->
      let tbl = Hashtbl.create 8 in
      List.iter (fun (a, _) -> Hashtbl.replace tbl a Value.Null) (Schema.attrs t.schema ty);
      Instance.Tuple_body tbl
    | Schema.Set _ -> Instance.Set_body (Hashtbl.create 8)
    | Schema.List _ -> Instance.List_body (ref [])
    | Schema.Atomic _ -> assert false
  in
  Otbl.replace t.objects oid (Instance.make oid ty body);
  let r = extent_ref t ty in
  r := oid :: !r;
  emit t (Created oid);
  oid

(* A value conforms to declared type [decl] iff it is Null, an atomic
   value of that elementary type, or a reference to an instance whose
   type is a subtype of [decl] (strong typing with substitutability). *)
let conforms t ~decl (v : Value.t) =
  match v with
  | Value.Null -> true
  | Value.Ref o -> (
    match get t o with
    | None -> false
    | Some inst -> Schema.is_subtype t.schema ~sub:(Instance.ty inst) ~sup:decl)
  | Value.Int _ -> Schema.atomic_of t.schema decl = Some Schema.A_int
  | Value.Str _ -> Schema.atomic_of t.schema decl = Some Schema.A_string
  | Value.Dec _ -> Schema.atomic_of t.schema decl = Some Schema.A_dec
  | Value.Bool _ -> Schema.atomic_of t.schema decl = Some Schema.A_bool
  | Value.Char _ -> Schema.atomic_of t.schema decl = Some Schema.A_char

(* The error names the operation [what], then [attr] when given; the
   text is built only on the raising path. *)
let check_conforms t ?attr ~what ~decl v =
  if not (conforms t ~decl v) then
    let what = match attr with Some a -> what ^ " " ^ a | None -> what in
    error "%s: value %s does not conform to type %s" what (Value.to_string v) decl

let get_attr t oid attr =
  let inst = get_exn t oid in
  match Instance.attr inst attr with
  | Some v -> v
  | None -> error "object %s of type %s has no attribute %s"
              (Format.asprintf "%a" Oid.pp oid) (Instance.ty inst) attr

let tuple_table inst =
  match (inst : Instance.t).body with
  | Instance.Tuple_body tbl -> tbl
  | Instance.Set_body _ | Instance.List_body _ ->
    error "object %s is not tuple-structured" (Format.asprintf "%a" Oid.pp (Instance.oid inst))

(* ------------------------------------------------------------------ *)
(* Reverse reference index                                             *)
(* ------------------------------------------------------------------ *)

let bucket tbl k = Option.value ~default:[] (Hashtbl.find_opt tbl k)

let unlink tbl k keep =
  match List.filter keep (bucket tbl k) with
  | [] -> Hashtbl.remove tbl k
  | b -> Hashtbl.replace tbl k b

let index_attr idx holder attr = function
  | Value.Ref x -> Hashtbl.replace idx.attr_refs x ((holder, attr) :: bucket idx.attr_refs x)
  | Value.Null | Value.Int _ | Value.Str _ | Value.Dec _ | Value.Bool _ | Value.Char _ -> ()

let unindex_attr idx holder attr = function
  | Value.Ref x ->
    unlink idx.attr_refs x (fun (h, a) -> not (Oid.equal h holder && String.equal a attr))
  | Value.Null | Value.Int _ | Value.Str _ | Value.Dec _ | Value.Bool _ | Value.Char _ -> ()

let index_elem idx coll = function
  | Value.Ref x ->
    let b = bucket idx.elem_refs x in
    if not (List.exists (Oid.equal coll) b) then Hashtbl.replace idx.elem_refs x (coll :: b)
  | Value.Null | Value.Int _ | Value.Str _ | Value.Dec _ | Value.Bool _ | Value.Char _ -> ()

let unindex_elem idx coll = function
  | Value.Ref x -> unlink idx.elem_refs x (fun c -> not (Oid.equal c coll))
  | Value.Null | Value.Int _ | Value.Str _ | Value.Dec _ | Value.Bool _ | Value.Char _ -> ()

(* One walk over the base, on the first inbound query; the mutators
   keep the index current from then on. *)
let refindex t =
  match t.refindex with
  | Some idx -> idx
  | None ->
    let idx = { attr_refs = Hashtbl.create 64; elem_refs = Hashtbl.create 64 } in
    Otbl.iter
      (fun oid (inst : Instance.t) ->
        match inst.body with
        | Instance.Tuple_body tbl -> Hashtbl.iter (index_attr idx oid) tbl
        | Instance.Set_body tbl -> Hashtbl.iter (fun v () -> index_elem idx oid v) tbl
        | Instance.List_body l -> List.iter (index_elem idx oid) !l)
      t.objects;
    t.refindex <- Some idx;
    idx

let set_attr t oid attr v =
  let inst = get_exn t oid in
  let decl =
    match Schema.attr_type t.schema (Instance.ty inst) attr with
    | Some ty -> ty
    | None ->
      error "type %s has no attribute %s" (Instance.ty inst) attr
  in
  check_conforms t ~what:"set_attr" ~attr ~decl v;
  let tbl = tuple_table inst in
  let old_value = Option.value ~default:Value.Null (Hashtbl.find_opt tbl attr) in
  if not (Value.equal old_value v) then begin
    Hashtbl.replace tbl attr v;
    Option.iter
      (fun idx ->
        unindex_attr idx oid attr old_value;
        index_attr idx oid attr v)
      t.refindex;
    emit t (Attr_set { obj = oid; attr; old_value; new_value = v })
  end

let elem_decl t oid =
  match Schema.element_type t.schema (type_of t oid) with
  | Some e -> e
  | None -> error "object %s is not a collection instance" (Format.asprintf "%a" Oid.pp oid)

let insert_elem t oid v =
  let decl = elem_decl t oid in
  check_conforms t ~what:"insert_elem" ~decl v;
  if Value.is_null v then error "cannot insert NULL into a set";
  let inst = get_exn t oid in
  match inst.body with
  | Instance.Set_body tbl ->
    if not (Hashtbl.mem tbl v) then begin
      Hashtbl.replace tbl v ();
      Option.iter (fun idx -> index_elem idx oid v) t.refindex;
      emit t (Set_inserted { set = oid; elem = v })
    end
  | Instance.List_body l ->
    l := !l @ [ v ];
    Option.iter (fun idx -> index_elem idx oid v) t.refindex;
    emit t (Set_inserted { set = oid; elem = v })
  | Instance.Tuple_body _ -> error "insert_elem: not a collection"

let remove_elem t oid v =
  let inst = get_exn t oid in
  match inst.body with
  | Instance.Set_body tbl ->
    if Hashtbl.mem tbl v then begin
      Hashtbl.remove tbl v;
      Option.iter (fun idx -> unindex_elem idx oid v) t.refindex;
      emit t (Set_removed { set = oid; elem = v })
    end
  | Instance.List_body l ->
    if List.exists (Value.equal v) !l then begin
      l := List.filter (fun x -> not (Value.equal x v)) !l;
      Option.iter (fun idx -> unindex_elem idx oid v) t.refindex;
      emit t (Set_removed { set = oid; elem = v })
    end
  | Instance.Tuple_body _ -> error "remove_elem: not a collection"

let elements t oid = Instance.elements (get_exn t oid)

let extent ?(deep = false) t ty =
  let exact ty =
    match Hashtbl.find_opt t.extents ty with Some r -> List.rev !r | None -> []
  in
  if not deep then exact ty
  else
    Schema.subtypes_closure t.schema ty
    |> List.concat_map exact
    |> List.sort Oid.compare

let count ?deep t ty = List.length (extent ?deep t ty)

(* Raw extent list in reverse creation order, as stored.  The returned
   list is the current value of the extent ref: list cells are immutable
   and never mutated in place (creation conses a new head, deletion
   rebuilds the spine), so a caller holding this list keeps a consistent
   point-in-time extent even while the store keeps mutating — the basis
   of structural sharing in frozen snapshots. *)
let extent_rev t ty =
  match Hashtbl.find_opt t.extents ty with Some r -> !r | None -> []

let extent_types t =
  Hashtbl.fold (fun ty r acc -> if !r = [] then acc else ty :: acc) t.extents []
  |> List.sort String.compare

let fold_objects t ~init ~f =
  let all = Otbl.fold (fun _ inst acc -> inst :: acc) t.objects [] in
  let all = List.sort (fun a b -> Oid.compare (Instance.oid a) (Instance.oid b)) all in
  List.fold_left f init all

let bind_name t name oid =
  ignore (get_exn t oid);
  Hashtbl.replace t.names name oid

let find_name t name = Hashtbl.find_opt t.names name

let names t =
  Hashtbl.fold (fun n o acc -> (n, o) :: acc) t.names []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Recreate a deleted object under its original identifier: the bare
   instantiation step of {!new_object}, minus the fresh-oid draw. *)
let restore_object t oid ty =
  if mem t oid then
    error "restore_object: %s is live" (Format.asprintf "%a" Oid.pp oid);
  let body =
    match Schema.find t.schema ty with
    | None -> error "restore_object: unknown type %s" ty
    | Some (Schema.Atomic _) -> error "restore_object: elementary type %s" ty
    | Some (Schema.Tuple _) ->
      let tbl = Hashtbl.create 8 in
      List.iter (fun (a, _) -> Hashtbl.replace tbl a Value.Null) (Schema.attrs t.schema ty);
      Instance.Tuple_body tbl
    | Some (Schema.Set _) -> Instance.Set_body (Hashtbl.create 8)
    | Some (Schema.List _) -> Instance.List_body (ref [])
  in
  Otbl.replace t.objects oid (Instance.make oid ty body);
  Oid.ensure_above t.gen oid;
  let r = extent_ref t ty in
  r := oid :: !r;
  emit t (Created oid)

let holders t ty attr target =
  bucket (refindex t).attr_refs target
  |> List.filter_map (fun (h, a) ->
         if String.equal a attr && Schema.is_subtype t.schema ~sub:(type_of t h) ~sup:ty
         then Some h
         else None)
  |> List.sort Oid.compare

let referencers t ty attr target =
  let decl_is_set =
    match Schema.attr_type t.schema ty attr with
    | Some rty -> Schema.is_set t.schema rty || Schema.element_type t.schema rty <> None
    | None -> error "type %s has no attribute %s" ty attr
  in
  if decl_is_set then
    bucket (refindex t).elem_refs target
    |> List.concat_map (fun s -> List.map (fun h -> (h, Some s)) (holders t ty attr s))
    |> List.sort (fun (a, _) (b, _) -> Oid.compare a b)
  else List.map (fun h -> (h, None)) (holders t ty attr target)

let delete t oid =
  let inst = get_exn t oid in
  let target = Value.Ref oid in
  (* Nullify every inbound reference first, each through the regular
     mutators so that listeners observe consistent intermediate states.
     The holders come from the index; folding them in ascending
     identifier order, each body scanned whole, yields the nullifications
     in the order a walk over the whole base produced them (descending
     holders). *)
  let idx = refindex t in
  let inbound =
    List.map fst (bucket idx.attr_refs oid) @ bucket idx.elem_refs oid
    |> List.filter (fun o -> not (Oid.equal o oid))
    |> List.sort_uniq Oid.compare
    |> List.fold_left
         (fun acc o ->
           let i = get_exn t o in
           match i.Instance.body with
           | Instance.Tuple_body tbl ->
             Hashtbl.fold
               (fun a v acc -> if Value.equal v target then `Attr (o, a) :: acc else acc)
               tbl acc
           | Instance.Set_body tbl -> if Hashtbl.mem tbl target then `Elem o :: acc else acc
           | Instance.List_body l ->
             if List.exists (Value.equal target) !l then `Elem o :: acc else acc)
         []
  in
  List.iter
    (function
      | `Attr (o, a) -> set_attr t o a Value.Null
      | `Elem s -> remove_elem t s target)
    inbound;
  (* Clear the object's own outgoing state so listeners can retract
     paths that start at it. *)
  (match inst.Instance.body with
  | Instance.Tuple_body tbl ->
    let attrs = Hashtbl.fold (fun a v acc -> (a, v) :: acc) tbl [] in
    List.iter
      (fun (a, v) -> if not (Value.is_null v) then set_attr t oid a Value.Null)
      (List.sort (fun (a, _) (b, _) -> String.compare a b) attrs)
  | Instance.Set_body _ | Instance.List_body _ ->
    List.iter (fun v -> remove_elem t oid v) (elements t oid));
  Otbl.remove t.objects oid;
  let r = extent_ref t (Instance.ty inst) in
  r := List.filter (fun o -> not (Oid.equal o oid)) !r;
  Hashtbl.iter
    (fun n o -> if Oid.equal o oid then Hashtbl.remove t.names n)
    (Hashtbl.copy t.names);
  emit t (Deleted { obj = oid; ty = Instance.ty inst })
