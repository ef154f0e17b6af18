(* Profile measurement moved into the engine (the planner's live feed);
   kept here as the workload-facing name. *)
let profile_of_base ?sizes store path = Engine.measure_profile ?sizes store path

module Monitor = struct
  type t = {
    store : Gom.Store.t;
    path : Gom.Path.t;
    queries : (Costmodel.Query_cost.query_kind * int * int, int) Hashtbl.t;
    updates : (int, int) Hashtbl.t; (* position -> count *)
    mutable query_total : int;
    mutable update_total : int;
    mutable sub : Gom.Store.subscription option;
  }

  let bump tbl key =
    Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

  let positions_of schema path ~ty ~attr =
    let n = Gom.Path.length path in
    List.filter
      (fun i ->
        let step = Gom.Path.step path (i + 1) in
        String.equal step.Gom.Path.attr attr
        && Gom.Schema.is_subtype schema ~sub:ty ~sup:step.Gom.Path.domain)
      (List.init n Fun.id)

  let set_positions_of schema path ~set_ty =
    let n = Gom.Path.length path in
    List.filter
      (fun i ->
        match (Gom.Path.step path (i + 1)).Gom.Path.set_type with
        | Some st -> Gom.Schema.is_subtype schema ~sub:set_ty ~sup:st
        | None -> false)
      (List.init n Fun.id)

  let create store path =
    let t =
      {
        store;
        path;
        queries = Hashtbl.create 16;
        updates = Hashtbl.create 16;
        query_total = 0;
        update_total = 0;
        sub = None;
      }
    in
    let schema = Gom.Store.schema store in
    t.sub <-
      Some
        (Gom.Store.subscribe store (fun ev ->
        let hit positions =
          match positions with
          | [] -> ()
          | pos :: _ ->
            bump t.updates pos;
            t.update_total <- t.update_total + 1
        in
        match ev with
        | Gom.Store.Attr_set { obj; attr; _ } when Gom.Store.mem store obj ->
          hit (positions_of schema path ~ty:(Gom.Store.type_of store obj) ~attr)
        | Gom.Store.Set_inserted { set; _ } | Gom.Store.Set_removed { set; _ }
          when Gom.Store.mem store set ->
          hit (set_positions_of schema path ~set_ty:(Gom.Store.type_of store set))
        | Gom.Store.Created _ | Gom.Store.Deleted _ | Gom.Store.Attr_set _
        | Gom.Store.Set_inserted _ | Gom.Store.Set_removed _ ->
          ()));
    t

  let close t =
    Option.iter (Gom.Store.unsubscribe t.store) t.sub;
    t.sub <- None

  let record_query t kind ~i ~j =
    let n = Gom.Path.length t.path in
    if not (0 <= i && i < j && j <= n) then
      invalid_arg "Monitor.record_query: invalid range";
    let k = match kind with `Fw -> Costmodel.Query_cost.Fw | `Bw -> Costmodel.Query_cost.Bw in
    bump t.queries (k, i, j);
    t.query_total <- t.query_total + 1

  let queries_seen t = t.query_total
  let updates_seen t = t.update_total

  let observed_p_up t =
    let total = t.query_total + t.update_total in
    if total = 0 then 0. else float_of_int t.update_total /. float_of_int total

  let observed_mix t =
    if t.query_total = 0 || t.update_total = 0 then None
    else begin
      let qtotal = float_of_int t.query_total in
      let utotal = float_of_int t.update_total in
      let queries =
        Hashtbl.fold
          (fun (k, i, j) count acc ->
            ( float_of_int count /. qtotal,
              { Costmodel.Opmix.qi = i; Costmodel.Opmix.qj = j; Costmodel.Opmix.qkind = k }
            )
            :: acc)
          t.queries []
      in
      let updates =
        Hashtbl.fold
          (fun pos count acc ->
            (float_of_int count /. utotal, { Costmodel.Opmix.upos = pos }) :: acc)
          t.updates []
      in
      Some (Costmodel.Opmix.make ~queries ~updates)
    end

  let recommend ?sizes ?max_storage_pages t =
    match observed_mix t with
    | None ->
      invalid_arg "Monitor.recommend: record at least one query and one update first"
    | Some mix ->
      let profile = profile_of_base ?sizes t.store t.path in
      Costmodel.Advisor.rank ?max_storage_pages profile mix ~p_up:(observed_p_up t)
end
