type type_name = string
type attr_name = string

type atomic = A_string | A_int | A_dec | A_bool | A_char

type definition =
  | Atomic of atomic
  | Tuple of { supertypes : type_name list; own_attrs : (attr_name * type_name) list }
  | Set of type_name
  | List of type_name

exception Schema_error of string

let error fmt = Format.kasprintf (fun s -> raise (Schema_error s)) fmt

module SMap = Map.Make (String)

type entry = Defined of definition | Forward

type t = { entries : entry SMap.t; order : type_name list (* reverse definition order *) }

let builtins =
  [ ("STRING", A_string); ("INT", A_int); ("INTEGER", A_int); ("DECIMAL", A_dec);
    ("BOOL", A_bool); ("CHAR", A_char) ]

let empty =
  let entries =
    List.fold_left
      (fun m (name, a) -> SMap.add name (Defined (Atomic a)) m)
      SMap.empty builtins
  in
  { entries; order = List.rev_map fst builtins }

let find t name =
  match SMap.find_opt name t.entries with
  | Some (Defined d) -> Some d
  | Some Forward | None -> None

let find_exn t name =
  match find t name with
  | Some d -> d
  | None -> error "unknown type %s" name

let mem t name = find t name <> None

let type_names t = List.rev t.order

let known_or_forward t name = SMap.mem name t.entries

let add t name def =
  (match SMap.find_opt name t.entries with
  | Some (Defined _) -> error "type %s is already defined" name
  | Some Forward | None -> ());
  let fresh = not (SMap.mem name t.entries) in
  { entries = SMap.add name (Defined def) t.entries;
    order = (if fresh then name :: t.order else t.order) }

let define_forward t name =
  match SMap.find_opt name t.entries with
  | Some _ -> error "type %s is already declared" name
  | None -> { entries = SMap.add name Forward t.entries; order = name :: t.order }

let check_ref t ~context name =
  if not (known_or_forward t name) then
    error "%s references unknown type %s" context name

let define_tuple t name ?(supertypes = []) own_attrs =
  let context = Printf.sprintf "type %s" name in
  List.iter
    (fun sup ->
      check_ref t ~context sup;
      match find t sup with
      | Some (Tuple _) | None -> () (* forward: checked by well_formed *)
      | Some (Atomic _ | Set _ | List _) ->
        error "type %s: supertype %s is not tuple-structured" name sup)
    supertypes;
  let seen = Hashtbl.create 7 in
  List.iter
    (fun (a, ty) ->
      if Hashtbl.mem seen a then error "type %s: duplicate attribute %s" name a;
      Hashtbl.add seen a ();
      check_ref t ~context:(Printf.sprintf "type %s, attribute %s" name a) ty)
    own_attrs;
  add t name (Tuple { supertypes; own_attrs })

let define_set t name elem =
  check_ref t ~context:(Printf.sprintf "type %s" name) elem;
  add t name (Set elem)

let define_list t name elem =
  check_ref t ~context:(Printf.sprintf "type %s" name) elem;
  add t name (List elem)

let is_atomic t name = match find t name with Some (Atomic _) -> true | _ -> false

let atomic_of t name = match find t name with Some (Atomic a) -> Some a | _ -> None

let is_tuple t name = match find t name with Some (Tuple _) -> true | _ -> false

let is_set t name = match find t name with Some (Set _) -> true | _ -> false

let element_type t name =
  match find t name with Some (Set e | List e) -> Some e | _ -> None

let supertypes t name =
  match find t name with Some (Tuple { supertypes; _ }) -> supertypes | _ -> []

(* All attributes, inherited first.  Diamond inheritance contributes an
   attribute once; a genuine name clash between distinct declarations is
   an error. *)
let attrs t name =
  let seen : (attr_name, type_name * type_name) Hashtbl.t = Hashtbl.create 16 in
  let acc = ref [] in
  let visited = Hashtbl.create 16 in
  let rec go path ty =
    if List.mem ty path then error "cyclic inheritance through %s" ty;
    if not (Hashtbl.mem visited ty) then begin
      Hashtbl.add visited ty ();
      match find_exn t ty with
      | Tuple { supertypes; own_attrs } ->
        List.iter (go (ty :: path)) supertypes;
        List.iter
          (fun (a, rty) ->
            match Hashtbl.find_opt seen a with
            | Some (owner, rty') ->
              if not (String.equal rty rty') then
                error "type %s: attribute %s inherited from %s clashes with %s" name a
                  owner ty
            | None ->
              Hashtbl.add seen a (ty, rty);
              acc := (a, rty) :: !acc)
          own_attrs
      | Atomic _ | Set _ | List _ -> error "type %s is not tuple-structured" ty
    end
  in
  go [] name;
  List.rev !acc

(* Own attributes first, then each supertype depth-first, with the
   cycle check of [attrs].  On a well-formed schema a name has one range
   type wherever it is declared, so the first hit is [attrs]' answer. *)
let attr_type t name a =
  let visited = ref [] in
  let rec go path ty =
    if List.mem ty path then error "cyclic inheritance through %s" ty;
    if List.mem ty !visited then None
    else begin
      visited := ty :: !visited;
      match find_exn t ty with
      | Tuple { supertypes; own_attrs } -> (
        match List.assoc_opt a own_attrs with
        | Some _ as hit -> hit
        | None -> List.find_map (go (ty :: path)) supertypes)
      | Atomic _ | Set _ | List _ -> error "type %s is not tuple-structured" ty
    end
  in
  match find t name with Some (Tuple _) -> go [] name | _ -> None

let is_subtype t ~sub ~sup =
  let rec go ty =
    String.equal ty sup
    || List.exists go (supertypes t ty)
  in
  go sub

let subtypes_closure t name =
  List.filter (fun ty -> is_subtype t ~sub:ty ~sup:name) (type_names t)

let well_formed t =
  try
    SMap.iter
      (fun name entry ->
        match entry with
        | Forward -> error "type %s is declared but never defined" name
        | Defined (Atomic _) -> ()
        | Defined (Set e | List e) ->
          if find t e = None then error "type %s: unknown element type %s" name e
        | Defined (Tuple { supertypes; own_attrs }) ->
          List.iter
            (fun sup ->
              match find t sup with
              | Some (Tuple _) -> ()
              | Some _ -> error "type %s: supertype %s is not tuple-structured" name sup
              | None -> error "type %s: unknown supertype %s" name sup)
            supertypes;
          List.iter
            (fun (a, ty) ->
              if find t ty = None then
                error "type %s, attribute %s: unknown type %s" name a ty)
            own_attrs;
          ignore (attrs t name))
      t.entries;
    Ok ()
  with Schema_error msg -> Error msg

let pp ppf t =
  let user_defined =
    List.filter (fun n -> not (List.mem_assoc n builtins)) (type_names t)
  in
  List.iter
    (fun name ->
      match find t name with
      | None -> Format.fprintf ppf "type %s; (* forward *)@." name
      | Some (Atomic _) -> ()
      | Some (Set e) -> Format.fprintf ppf "type %s is {%s};@." name e
      | Some (List e) -> Format.fprintf ppf "type %s is <%s>;@." name e
      | Some (Tuple { supertypes; own_attrs }) ->
        Format.fprintf ppf "type %s is" name;
        (match supertypes with
        | [] -> ()
        | _ ->
          Format.fprintf ppf " supertypes (%s)"
            (String.concat ", " supertypes));
        Format.fprintf ppf " [%s];@."
          (String.concat ", "
             (List.map (fun (a, ty) -> a ^ ": " ^ ty) own_attrs)))
    user_defined
