let physical_decomposition path dec =
  let n = Gom.Path.length path in
  (match List.rev (Core.Decomposition.boundaries dec) with
  | last :: _ when last = n -> ()
  | _ ->
    invalid_arg "Autodesign.physical_decomposition: decomposition is not over the path's n");
  let m = Gom.Path.arity path - 1 in
  let bounds =
    Core.Decomposition.boundaries dec
    |> List.map (fun pos -> Gom.Path.column_of_object_position path pos)
  in
  Core.Decomposition.make ~m bounds

let apply ?pool store path design =
  match (design : Costmodel.Opmix.design) with
  | Costmodel.Opmix.No_support -> None
  | Costmodel.Opmix.Design (kind, dec) ->
    Some (Core.Asr.create ?pool store path kind (physical_decomposition path dec))

let auto ?max_storage_pages ?sizes store path mix ~p_up =
  let profile = Engine.measure_profile ?sizes store path in
  let best = Costmodel.Advisor.best ?max_storage_pages profile mix ~p_up in
  (best, apply store path best.Costmodel.Advisor.design)
