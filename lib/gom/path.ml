type step = {
  attr : Schema.attr_name;
  domain : Schema.type_name;
  range : Schema.type_name;
  set_type : Schema.type_name option;
  range_atomic : Schema.atomic option;
}

type t = { t0 : Schema.type_name; steps : step list }

type column =
  | Obj of Schema.type_name
  | Set_of of Schema.type_name
  | Atom of Schema.atomic

exception Path_error of string

let error fmt = Format.kasprintf (fun s -> raise (Path_error s)) fmt

let make schema t0 attrs =
  if attrs = [] then error "a path expression needs at least one attribute";
  if not (Schema.is_tuple schema t0) then
    error "path anchor %s is not a tuple-structured type" t0;
  let n = List.length attrs in
  let rec build i domain = function
    | [] -> []
    | attr :: rest ->
      let rty =
        match Schema.attr_type schema domain attr with
        | Some rty -> rty
        | None -> error "type %s has no attribute %s (step %d)" domain attr i
      in
      let range, set_type =
        match Schema.find schema rty with
        (* Lists behave like sets for access support ("the access
           support on ordered collections is analogous", section 2.1);
           element order is immaterial to the index. *)
        | Some (Schema.Set elem) | Some (Schema.List elem) -> (elem, Some rty)
        | Some (Schema.Atomic _) ->
          if i < n then
            error "attribute %s has elementary range %s but is not last" attr rty;
          (rty, None)
        | Some (Schema.Tuple _) -> (rty, None)
        | None -> error "attribute %s has unknown range %s" attr rty
      in
      let range_atomic = Schema.atomic_of schema range in
      if i < n && not (Schema.is_tuple schema range) then
        error "intermediate type %s (after attribute %s) is not tuple-structured"
          range attr;
      { attr; domain; range; set_type; range_atomic } :: build (i + 1) range rest
  in
  { t0; steps = build 1 t0 attrs }

let parse schema s =
  match String.split_on_char '.' (String.trim s) with
  | t0 :: (_ :: _ as attrs) -> make schema t0 attrs
  | [ _ ] | [] -> error "cannot parse path expression %S" s

let length t = List.length t.steps

let set_occurrences t =
  List.length (List.filter (fun s -> s.set_type <> None) t.steps)

let arity t = length t + set_occurrences t + 1

let columns t =
  let step_cols s =
    let obj =
      match s.range_atomic with Some a -> Atom a | None -> Obj s.range
    in
    match s.set_type with Some set_ty -> [ Set_of set_ty; obj ] | None -> [ obj ]
  in
  Obj t.t0 :: List.concat_map step_cols t.steps

let step t i =
  if i < 1 || i > length t then error "step index %d out of bounds" i;
  List.nth t.steps (i - 1)

let type_at t i = if i = 0 then t.t0 else (step t i).range

let column_of_object_position t i =
  if i < 0 || i > length t then error "object position %d out of bounds" i;
  let prefix = List.filteri (fun idx _ -> idx < i) t.steps in
  List.fold_left
    (fun acc s -> acc + (match s.set_type with Some _ -> 2 | None -> 1))
    0 prefix

let object_position_of_column t col =
  let rec go pos c = function
    | [] -> if c = col then Some pos else None
    | s :: rest ->
      if c = col then Some pos
      else
        let width = match s.set_type with Some _ -> 2 | None -> 1 in
        if col < c + width then None (* lands on the set-OID column *)
        else go (pos + 1) (c + width) rest
  in
  go 0 0 t.steps

let linear t = set_occurrences t = 0

let equal a b =
  String.equal a.t0 b.t0
  && List.length a.steps = List.length b.steps
  && List.for_all2
       (fun (x : step) (y : step) ->
         String.equal x.attr y.attr
         && String.equal x.domain y.domain
         && String.equal x.range y.range
         && Option.equal String.equal x.set_type y.set_type)
       a.steps b.steps

let is_prefix ~affix t =
  String.equal affix.t0 t.t0
  && List.length affix.steps <= List.length t.steps
  && List.for_all2
       (fun (x : step) (y : step) -> String.equal x.attr y.attr)
       affix.steps
       (List.filteri (fun i _ -> i < List.length affix.steps) t.steps)

(* Built without a formatter: the engine keys its plan cache by it. *)
let to_string t = t.t0 ^ "." ^ String.concat "." (List.map (fun s -> s.attr) t.steps)

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* The 0-based positions of the steps satisfying [f], in path order. *)
let positions f t =
  let rec go i = function
    | [] -> []
    | s :: tl -> if f s then i :: go (i + 1) tl else go (i + 1) tl
  in
  go 0 t.steps

let positions_matching schema t ~ty ~attr =
  positions
    (fun s -> String.equal s.attr attr && Schema.is_subtype schema ~sub:ty ~sup:s.domain)
    t

let set_positions_matching schema t ~set_ty =
  positions
    (fun s ->
      match s.set_type with
      | Some st -> Schema.is_subtype schema ~sub:set_ty ~sup:st
      | None -> false)
    t
