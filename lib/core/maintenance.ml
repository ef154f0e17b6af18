type flush_policy =
  | Immediate
  | Every_k_events of int
  | Bytes_threshold of int
  | On_query

let policy_to_string = function
  | Immediate -> "immediate"
  | Every_k_events k -> Printf.sprintf "every:%d" k
  | Bytes_threshold b -> Printf.sprintf "bytes:%d" b
  | On_query -> "onquery"

let policy_of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  match s with
  | "immediate" -> Some Immediate
  | "onquery" | "on-query" | "on_query" -> Some On_query
  | _ ->
    let parse prefix mk =
      let pl = String.length prefix in
      if String.length s > pl && String.equal (String.sub s 0 pl) prefix then
        match int_of_string_opt (String.sub s pl (String.length s - pl)) with
        | Some n when n > 0 -> Some (mk n)
        | _ -> None
      else None
    in
    (match parse "every:" (fun k -> Every_k_events k) with
    | Some _ as r -> r
    | None -> parse "bytes:" (fun b -> Bytes_threshold b))

type t = {
  env : Exec.env;
  store : Gom.Store.t; (* = Exec.live_store_exn env: maintenance writes *)
  stats : Storage.Stats.t;
  mutable asrs : Asr.t list;
  suspended : (int, unit) Hashtbl.t;  (* keyed by Asr.id — identity set *)
  mutable policy : flush_policy;
  mutable events_since_flush : int;
  mutable subscription : Gom.Store.subscription option;
}

let asrs t = List.rev t.asrs
let stats t = t.stats
let last_event_cost t = Storage.Stats.op_accesses t.stats

let value_oid v = Gom.Value.oid v

(* Path positions [i] (0-based, attribute [A(i+1)]) whose attribute
   matches a mutation of [attr] on an object of type [ty]. *)
let positions_matching schema path ~ty ~attr =
  let n = Gom.Path.length path in
  List.filter
    (fun i ->
      let step = Gom.Path.step path (i + 1) in
      String.equal step.Gom.Path.attr attr
      && Gom.Schema.is_subtype schema ~sub:ty ~sup:step.Gom.Path.domain)
    (List.init n Fun.id)

(* Positions [i] such that the mutated set instance can be the
   intermediate set [t'(i+1)] of the path. *)
let set_positions_matching schema path ~set_ty =
  let n = Gom.Path.length path in
  List.filter
    (fun i ->
      match (Gom.Path.step path (i + 1)).Gom.Path.set_type with
      | Some st -> Gom.Schema.is_subtype schema ~sub:set_ty ~sup:st
      | None -> false)
    (List.init n Fun.id)

(* ------------------------------------------------------------------ *)
(* I_l / I_r: maximal partial prefixes and suffixes                    *)
(* ------------------------------------------------------------------ *)

(* Maximal prefixes ending at [oid] sitting at object position [pos]:
   arrays covering columns 0 .. col(pos).  With [charge], the extent
   scans that implement backward traversal over uni-directional
   references are charged to [stats]. *)
let rec graph_prefixes t ~charge path ~pos ~oid =
  let ci = Gom.Path.column_of_object_position path pos in
  if pos = 0 then [ [| Gom.Value.Ref oid |] ]
  else begin
    let step = Gom.Path.step path pos in
    if charge then
      Storage.Heap.scan_extent ~deep:true t.env.Exec.heap t.stats step.Gom.Path.domain;
    let refs =
      Gom.Store.referencers t.store step.Gom.Path.domain step.Gom.Path.attr oid
    in
    match refs with
    | [] ->
      (* Maximal partial start: NULL padding up to this column. *)
      let arr = Array.make (ci + 1) Gom.Value.Null in
      arr.(ci) <- Gom.Value.Ref oid;
      [ arr ]
    | _ ->
      refs
      |> List.concat_map (fun (q, set_opt) ->
             let tail =
               match set_opt with
               | Some s -> [| Gom.Value.Ref s; Gom.Value.Ref oid |]
               | None -> [| Gom.Value.Ref oid |]
             in
             graph_prefixes t ~charge path ~pos:(pos - 1) ~oid:q
             |> List.map (fun pre -> Array.append pre tail))
  end

(* Maximal suffixes from [oid] at object position [pos]: arrays covering
   columns col(pos) .. m (NULL-padded after the path dies).  Forward
   traversal; object and set pages are charged. *)
let rec graph_suffixes t path ~pos ~oid =
  let m = Gom.Path.arity path - 1 in
  let ci = Gom.Path.column_of_object_position path pos in
  let n = Gom.Path.length path in
  let pad arr =
    let out = Array.make (m - ci + 1) Gom.Value.Null in
    Array.blit arr 0 out 0 (Array.length arr);
    out
  in
  Storage.Heap.read_object t.env.Exec.heap t.stats oid;
  if pos = n then [ [| Gom.Value.Ref oid |] ]
  else begin
    let step = Gom.Path.step path (pos + 1) in
    match Gom.Store.get_attr t.store oid step.Gom.Path.attr with
    | Gom.Value.Null -> [ pad [| Gom.Value.Ref oid |] ]
    | v -> (
      match step.Gom.Path.set_type with
      | None ->
        if pos + 1 = n && step.Gom.Path.range_atomic <> None then
          [ pad [| Gom.Value.Ref oid; v |] ]
        else
          graph_suffixes t path ~pos:(pos + 1) ~oid:(Gom.Value.oid_exn v)
          |> List.map (fun suf -> Array.append [| Gom.Value.Ref oid |] suf)
      | Some _ ->
        let set_oid = Gom.Value.oid_exn v in
        Storage.Heap.read_object t.env.Exec.heap t.stats set_oid;
        (match Gom.Store.elements t.store set_oid with
        | [] -> [ pad [| Gom.Value.Ref oid; v; Gom.Value.Null |] ]
        | elems ->
          elems
          |> List.concat_map (fun e ->
                 match value_oid e with
                 | Some eo when pos + 1 < n || (Gom.Path.step path n).Gom.Path.range_atomic = None ->
                   graph_suffixes t path ~pos:(pos + 1) ~oid:eo
                   |> List.map (fun suf ->
                          Array.append [| Gom.Value.Ref oid; v |] suf)
                 | Some _ | None ->
                   (* Set of elementary values at the last step. *)
                   [ pad [| Gom.Value.Ref oid; v; e |] ])))
  end

let has_edge (tup : Relation.Tuple.t) =
  match Relation.Tuple.defined_span tup with
  | Some (first, last) -> last > first
  | None -> false

let combine prefix suffix =
  Array.append prefix (Array.sub suffix 1 (Array.length suffix - 1))

(* Prefixes recovered from the stored tuples through [o_i]: valid for
   full and left-complete extensions, where every inbound path of [o_i]
   is recorded.  [ci] is the column of position [i]. *)
let prefixes_from_affected ~ci affected =
  affected
  |> List.map (fun (tup : Relation.Tuple.t) -> Array.sub tup 0 (ci + 1))
  |> List.sort_uniq Relation.Tuple.compare

let referenced_now store path ~pos ~oid =
  if pos = 0 then true
  else
    let step = Gom.Path.step path pos in
    Gom.Store.referencers store step.Gom.Path.domain step.Gom.Path.attr oid <> []

(* [before ∖ after] and [after ∖ before], each sorted and duplicate-free. *)
let net_difference before after =
  let rec go before after removed added =
    match (before, after) with
    | [], _ -> (List.rev removed, List.rev_append added after)
    | _, [] -> (List.rev_append removed before, List.rev added)
    | b :: bs, a :: rest ->
      let c = Relation.Tuple.compare b a in
      if c = 0 then go bs rest removed added
      else if c < 0 then go bs after (b :: removed) added
      else go before rest removed (a :: added)
  in
  go
    (List.sort_uniq Relation.Tuple.compare before)
    (List.sort_uniq Relation.Tuple.compare after)
    [] []

(* Core routine: attribute [A(i+1)] of [obj] changed; [targets] are the
   position-(i+1) objects gaining or losing an inbound edge.  The tuples
   the event can change are those through [obj] and the truncated tuples
   of [targets]; they are derived again from the store, and only the
   difference between the stored and the derived ones is written
   (paper, section 6.1). *)
let handle_change t index ~i ~obj ~targets =
  let path = Asr.path index in
  let kind = Asr.kind index in
  let ci = Gom.Path.column_of_object_position path i in
  let ci1 = Gom.Path.column_of_object_position path (i + 1) in
  let truncates =
    match kind with
    | Extension.Full | Extension.Right_complete -> true
    | Extension.Canonical | Extension.Left_complete -> false
  in
  let derive pre sufs =
    List.filter_map
      (fun suf ->
        let tup = combine pre suf in
        if has_edge tup && Extension.member kind path tup then Some tup else None)
      sufs
  in
  (* 1. Before: the stored tuples through obj and the truncated tuples
     of the targets. *)
  let affected =
    Asr.find_by_column ~stats:t.stats index ~col:ci (Gom.Value.Ref obj)
  in
  let truncated =
    if truncates then
      List.concat_map
        (fun x ->
          Asr.find_by_column ~stats:t.stats index ~col:ci1 (Gom.Value.Ref x)
          |> List.filter (fun (tup : Relation.Tuple.t) -> Gom.Value.is_null tup.(ci)))
        targets
    else []
  in
  (* 2. After: the paths through obj ... *)
  let prefixes =
    match kind with
    | Extension.Full ->
      let ps = prefixes_from_affected ~ci affected in
      if ps = [] then begin
        (* No recorded inbound path: mark the prefix NULL.  A horizontal
           fragment only records its {e owned} tuples, so an empty [ps]
           there must be confirmed against the store — the object may
           have inbound paths whose tuples live on other shards, and
           fabricating the NULL marker here would invent a tuple outside
           the global extension. *)
        if i > 0 && Asr.owner index <> None && referenced_now t.store path ~pos:i ~oid:obj
        then []
        else begin
          let arr = Array.make (ci + 1) Gom.Value.Null in
          arr.(ci) <- Gom.Value.Ref obj;
          [ arr ]
        end
      end
      else ps
    | Extension.Left_complete ->
      (* Position-0 objects are origin-complete by themselves; deeper
         positions are reachable from t0 iff the (left-complete) ASR
         held tuples through them. *)
      if i = 0 then [ [| Gom.Value.Ref obj |] ]
      else prefixes_from_affected ~ci affected
    | Extension.Canonical | Extension.Right_complete ->
      graph_prefixes t ~charge:true path ~pos:i ~oid:obj
  in
  let through =
    if prefixes = [] then []
    else
      let suffixes = graph_suffixes t path ~pos:i ~oid:obj in
      List.concat_map (fun pre -> derive pre suffixes) prefixes
  in
  (* ... and the truncated tuples of orphaned targets. *)
  let orphaned =
    if truncates then
      List.concat_map
        (fun x ->
          if
            Gom.Store.mem t.store x
            && not (referenced_now t.store path ~pos:(i + 1) ~oid:x)
          then begin
            let pre = Array.make (ci1 + 1) Gom.Value.Null in
            pre.(ci1) <- Gom.Value.Ref x;
            derive pre (graph_suffixes t path ~pos:(i + 1) ~oid:x)
          end
          else [])
        targets
    else []
  in
  (* 3. Write only the difference. *)
  let remove, add = net_difference (affected @ truncated) (through @ orphaned) in
  ignore (Asr.apply_delta ~stats:t.stats index ~remove ~add : int)

let targets_of_value t (step : Gom.Path.step) v =
  match v with
  | Gom.Value.Null -> []
  | v -> (
    match step.Gom.Path.set_type with
    | None -> ( match value_oid v with Some o -> [ o ] | None -> [])
    | Some _ -> (
      match value_oid v with
      | Some set_oid when Gom.Store.mem t.store set_oid ->
        Gom.Store.elements t.store set_oid |> List.filter_map value_oid
      | Some _ | None -> []))

let handle_event t index ev =
  let store = t.store in
  let schema = Gom.Store.schema store in
  let path = Asr.path index in
  match ev with
  | Gom.Store.Created _ | Gom.Store.Deleted _ -> ()
  | Gom.Store.Attr_set { obj; attr; old_value; new_value } ->
    if Gom.Store.mem store obj then
      let ty = Gom.Store.type_of store obj in
      positions_matching schema path ~ty ~attr
      |> List.iter (fun i ->
             let step = Gom.Path.step path (i + 1) in
             let targets =
               targets_of_value t step old_value @ targets_of_value t step new_value
               |> List.sort_uniq Gom.Oid.compare
             in
             handle_change t index ~i ~obj ~targets)
  | Gom.Store.Set_inserted { set; elem } | Gom.Store.Set_removed { set; elem } ->
    if Gom.Store.mem store set then
      let set_ty = Gom.Store.type_of store set in
      set_positions_matching schema path ~set_ty
      |> List.iter (fun i ->
             let step = Gom.Path.step path (i + 1) in
             let os = Gom.Store.holders store step.Gom.Path.domain step.Gom.Path.attr set in
             let targets = match value_oid elem with Some o -> [ o ] | None -> [] in
             (* An orphan set is not represented in any extension. *)
             List.iter (fun o -> handle_change t index ~i ~obj:o ~targets) os)

(* ------------------------------------------------------------------ *)
(* Flush policies                                                      *)
(* ------------------------------------------------------------------ *)

let policy t = t.policy

let flush_asr t index = Asr.flush ~stats:t.stats index

let flush_all t =
  t.events_since_flush <- 0;
  List.fold_left (fun acc a -> acc + flush_asr t a) 0 t.asrs

let pending t = List.fold_left (fun acc a -> acc + Asr.pending_deltas a) 0 t.asrs

let pending_bytes t =
  List.fold_left (fun acc a -> acc + Asr.pending_bytes a) 0 t.asrs

let set_policy t p =
  t.policy <- p;
  t.events_since_flush <- 0;
  let defer = match p with Immediate -> false | _ -> true in
  List.iter (fun a -> Asr.set_deferred a defer) t.asrs;
  if not defer then ignore (flush_all t)

(* Threshold check after each store event; runs inside the event's
   accounting operation, so a flushing event pays for its flush. *)
let maybe_flush t =
  match t.policy with
  | Immediate | On_query -> ()
  | Every_k_events k ->
    t.events_since_flush <- t.events_since_flush + 1;
    if t.events_since_flush >= max 1 k then ignore (flush_all t)
  | Bytes_threshold b -> if pending_bytes t >= max 1 b then ignore (flush_all t)

let create env =
  let store = Exec.live_store_exn env in
  let t =
    {
      env;
      store;
      stats = env.Exec.stats;
      asrs = [];
      suspended = Hashtbl.create 16;
      policy = Immediate;
      events_since_flush = 0;
      subscription = None;
    }
  in
  t.subscription <-
    Some
      (Gom.Store.subscribe store (fun ev ->
           Storage.Stats.begin_op t.stats;
           List.iter
             (fun index ->
               if not (Hashtbl.mem t.suspended (Asr.id index)) then
                 handle_event t index ev)
             (List.rev t.asrs);
           maybe_flush t));
  t

let close t =
  Option.iter (Gom.Store.unsubscribe t.store) t.subscription;
  t.subscription <- None

let register t index =
  if not (Asr.store index == t.store) then
    invalid_arg "Maintenance.register: ASR built over a different store";
  t.asrs <- index :: t.asrs;
  Asr.set_deferred index (match t.policy with Immediate -> false | _ -> true)

let suspend t index = Hashtbl.replace t.suspended (Asr.id index) ()

let resume t index = Hashtbl.remove t.suspended (Asr.id index)

let is_suspended t index = Hashtbl.mem t.suspended (Asr.id index)

let apply_event t index ev = handle_event t index ev
