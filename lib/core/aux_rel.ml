let count path = Gom.Path.length path

let width path j =
  let step = Gom.Path.step path (j + 1) in
  match step.Gom.Path.set_type with Some _ -> 3 | None -> 2

let column_span path j =
  let lo = Gom.Path.column_of_object_position path j in
  let hi = Gom.Path.column_of_object_position path (j + 1) in
  (lo, hi)

let build_one store path j =
  let view = Gom.Store_view.live store in
  let n = count path in
  if j < 0 || j >= n then invalid_arg "Aux_rel.build_one: index out of range";
  let step = Gom.Path.step path (j + 1) in
  let domain = step.Gom.Path.domain in
  let w = width path j in
  let rows = ref [] in
  let emit r = rows := r :: !rows in
  List.iter
    (fun o ->
      match Gom.Store_view.get_attr view o step.Gom.Path.attr with
      | Gom.Value.Null -> ()
      | v -> (
        match step.Gom.Path.set_type with
        | None -> emit [| Gom.Value.Ref o; v |]
        | Some _ ->
          let set_oid = Gom.Value.oid_exn v in
          (match Gom.Store_view.elements view set_oid with
          | [] -> emit [| Gom.Value.Ref o; v; Gom.Value.Null |]
          | elems -> List.iter (fun e -> emit [| Gom.Value.Ref o; v; e |]) elems)))
    (Gom.Store_view.extent ~deep:true view domain);
  Relation.of_list ~width:w !rows

let build store path = List.init (count path) (build_one store path)
