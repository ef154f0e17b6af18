type kind = Canonical | Full | Left_complete | Right_complete

let all = [ Canonical; Full; Left_complete; Right_complete ]

let name = function
  | Canonical -> "can"
  | Full -> "full"
  | Left_complete -> "left"
  | Right_complete -> "right"

let of_name = function
  | "can" | "canonical" -> Some Canonical
  | "full" -> Some Full
  | "left" | "left-complete" -> Some Left_complete
  | "right" | "right-complete" -> Some Right_complete
  | _ -> None

let join_kind = function
  | Canonical -> Relation.Natural
  | Full -> Relation.Full_outer
  | Left_complete -> Relation.Left_outer
  | Right_complete -> Relation.Right_outer

let compute store path kind = Relation.join_chain (join_kind kind) (Aux_rel.build store path)

let supports kind ~n ~i ~j =
  0 <= i && i < j && j <= n
  &&
  match kind with
  | Canonical -> i = 0 && j = n
  | Full -> true
  | Left_complete -> i = 0
  | Right_complete -> j = n

let origin_complete _path (tup : Relation.Tuple.t) = not (Gom.Value.is_null tup.(0))

let terminal_complete path (tup : Relation.Tuple.t) =
  let n = Gom.Path.length path in
  let last_obj_col = Gom.Path.column_of_object_position path n in
  if not (Gom.Value.is_null tup.(last_obj_col)) then true
  else
    (* Empty-set marker at the final step: the set-OID column is defined
       while the element column is NULL. *)
    let step = Gom.Path.step path n in
    match step.Gom.Path.set_type with
    | Some _ -> not (Gom.Value.is_null tup.(last_obj_col - 1))
    | None -> false

let member kind path tup =
  match kind with
  | Full -> true
  | Canonical -> origin_complete path tup && terminal_complete path tup
  | Left_complete -> origin_complete path tup
  | Right_complete -> terminal_complete path tup
