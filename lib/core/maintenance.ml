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
  mutable asrs : Asr.t list;  (* in registration order *)
  mutable policy : flush_policy;
  mutable events_since_flush : int;
  mutable subscription : Gom.Store.subscription option;
}

let asrs t = t.asrs
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
   arrays covering columns 0 .. col(pos).  The extent scans that
   implement backward traversal over uni-directional references are
   charged. *)
let rec graph_prefixes t path ~pos ~oid =
  let ci = Gom.Path.column_of_object_position path pos in
  if pos = 0 then [ [| Gom.Value.Ref oid |] ]
  else begin
    let step = Gom.Path.step path pos in
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
             graph_prefixes t path ~pos:(pos - 1) ~oid:q
             |> List.map (fun pre -> Array.append pre tail))
  end

(* The event being applied, as graph walks undo it at the positions not
   yet applied: an attribute's old value, or a collection's elements
   before the insertion ([true]) or removal of one element. *)
type undo =
  | Attr of Gom.Oid.t * Gom.Schema.attr_name * Gom.Value.t
  | Elem of Gom.Oid.t * Gom.Value.t * bool

let elements_before ~inserted elem now =
  let rec drop = function
    | [] -> []
    | x :: rest -> if Gom.Value.equal x elem then rest else x :: drop rest
  in
  if inserted then drop now else now @ [ elem ]

(* Maximal suffixes from [oid] at object position [pos]: arrays covering
   columns col(pos) .. m (NULL-padded after the path dies).  Forward
   traversal; object and set pages are charged.  Positions after
   [applied] read the graph as it was before [undo]'s event. *)
let rec graph_suffixes t ~undo ~applied path ~pos ~oid =
  let m = Gom.Path.arity path - 1 in
  let ci = Gom.Path.column_of_object_position path pos in
  let n = Gom.Path.length path in
  let stale = pos > applied in
  let pad arr =
    let out = Array.make (m - ci + 1) Gom.Value.Null in
    Array.blit arr 0 out 0 (Array.length arr);
    out
  in
  Storage.Heap.read_object t.env.Exec.heap t.stats oid;
  if pos = n then [ [| Gom.Value.Ref oid |] ]
  else begin
    let step = Gom.Path.step path (pos + 1) in
    let value =
      match undo with
      | Attr (o, a, old) when stale && Gom.Oid.equal o oid && String.equal a step.Gom.Path.attr
        ->
        old
      | _ -> Gom.Store.get_attr t.store oid step.Gom.Path.attr
    in
    match value with
    | Gom.Value.Null -> [ pad [| Gom.Value.Ref oid |] ]
    | v -> (
      match step.Gom.Path.set_type with
      | None ->
        if pos + 1 = n && step.Gom.Path.range_atomic <> None then
          [ pad [| Gom.Value.Ref oid; v |] ]
        else
          graph_suffixes t ~undo ~applied path ~pos:(pos + 1) ~oid:(Gom.Value.oid_exn v)
          |> List.map (fun suf -> Array.append [| Gom.Value.Ref oid |] suf)
      | Some _ ->
        let set_oid = Gom.Value.oid_exn v in
        Storage.Heap.read_object t.env.Exec.heap t.stats set_oid;
        let elems = Gom.Store.elements t.store set_oid in
        (match undo with
        | Elem (s, elem, inserted) when stale && Gom.Oid.equal s set_oid ->
          elements_before ~inserted elem elems
        | _ -> elems)
        |> (function
        | [] -> [ pad [| Gom.Value.Ref oid; v; Gom.Value.Null |] ]
        | elems ->
          elems
          |> List.concat_map (fun e ->
                 match value_oid e with
                 | Some eo when pos + 1 < n || (Gom.Path.step path n).Gom.Path.range_atomic = None ->
                   graph_suffixes t ~undo ~applied path ~pos:(pos + 1) ~oid:eo
                   |> List.map (fun suf ->
                          Array.append [| Gom.Value.Ref oid; v |] suf)
                 | Some _ | None ->
                   (* Set of elementary values at the last step. *)
                   [ pad [| Gom.Value.Ref oid; v; e |] ])))
  end

(* The relation's own partial paths from [probe] at object position [i]
   to position [j]: the §5.6 walk over the partitions, with pending
   deferred deltas overlaid. *)
let read_paths t index dir ~i ~j probe =
  let lookup part _keys key = Asr.probe ~stats:t.stats index part ~fwd:(dir = Exec.Fwd) key in
  Exec.paths t.env index ~lookup ~scan:(Asr.probe_scan ~stats:t.stats index) dir ~i ~j
    probe

(* ------------------------------------------------------------------ *)
(* Edge-local deltas (section 6.1)                                     *)
(* ------------------------------------------------------------------ *)

(* The edges of step [i+1] out of a holder whose attribute holds [v]:
   the intermediate set, if the step is set-valued, and the target
   ([Null] for the empty-set marker). *)
let edges_of t (step : Gom.Path.step) v =
  match (v, step.Gom.Path.set_type) with
  | Gom.Value.Null, _ -> []
  | v, None -> [ (None, v) ]
  | v, Some _ -> (
    let elems =
      match value_oid v with
      | Some s when Gom.Store.mem t.store s -> Gom.Store.elements t.store s
      | Some _ | None -> []
    in
    match List.sort_uniq Gom.Value.compare elems with
    | [] -> [ (Some v, Gom.Value.Null) ]
    | es -> List.map (fun e -> (Some v, e)) es)

(* One path position [i] of an event (see the interface for the rules).
   Each [(holder, gone, fresh)] loses and gains those edges at step
   [i+1]; with [whole], they are all its edges before and after.
   [others x]: whether [x] has an inbound edge at the step that the
   event leaves alone.  Holders changing together may emit one
   truncated tuple twice; the sets written are duplicate-free. *)
let apply_position t index ~undo ~i ~whole ~others changes =
  let path = Asr.path index and kind = Asr.kind index and owner = Asr.owner index in
  let n = Gom.Path.length path and m = Asr.arity index - 1 in
  let ci = Gom.Path.column_of_object_position path i in
  let ci1 = Gom.Path.column_of_object_position path (i + 1) in
  let nulls k = Array.make k Gom.Value.Null in
  let full = kind = Extension.Full in
  (* A pool-shared partition also counts its co-sharers' references, and
     they take this event before or after this relation does: its
     presence is not this relation's state.  Such relations walk the
     graph for both sides. *)
  let own_trees = Asr.shared_partition_count index = 0 in
  let prefixes h =
    match kind with
    | _ when i = 0 -> [ [| Gom.Value.Ref h |] ]
    | (Extension.Full | Extension.Left_complete) when not own_trees ->
      graph_prefixes t path ~pos:i ~oid:h
    | Extension.Canonical | Extension.Right_complete -> graph_prefixes t path ~pos:i ~oid:h
    | Extension.Full | Extension.Left_complete -> (
      match read_paths t index Exec.Bwd ~i:0 ~j:i (Gom.Value.Ref h) with
      | [] when full ->
        (* Not in the relation: no inbound path, so a NULL-headed prefix.
           A horizontal fragment holds only its {e owned} tuples, so
           there the store must confirm it: inbound paths owned by other
           shards would make that prefix a tuple outside the extension. *)
        let step = Gom.Path.step path i in
        if
          owner <> None
          && Gom.Store.referencers t.store step.Gom.Path.domain step.Gom.Path.attr h <> []
        then []
        else [ Array.append (nulls ci) [| Gom.Value.Ref h |] ]
      | ps -> ps)
  in
  let memo = Hashtbl.create 8 in
  let suffixes x =
    match Hashtbl.find_opt memo x with
    | Some sufs -> sufs
    | None ->
      let sufs =
        match value_oid x with
        | Some o when i + 1 < n -> (
          if not (full && owner = None && own_trees) then
            List.sort_uniq Relation.Tuple.compare
              (graph_suffixes t ~undo ~applied:i path ~pos:(i + 1) ~oid:o)
          else
            match read_paths t index Exec.Fwd ~i:(i + 1) ~j:n x with
            | [] -> [ Array.append [| x |] (nulls (m - ci1)) ]
            | sufs -> sufs)
        | Some _ | None -> [ Array.append [| x |] (nulls (m - ci1)) ]
      in
      Hashtbl.replace memo x sufs;
      sufs
  in
  let remove = ref [] and add = ref [] in
  let emit acc =
    List.iter (fun tup ->
        if Relation.Tuple.has_edge tup && Extension.member kind path tup then
          acc := tup :: !acc)
  in
  List.iter
    (fun (h, gone, fresh) ->
      let pres = lazy (prefixes h) in
      let through (s, x) =
        let mid = match s with Some s -> [| s |] | None -> [||] in
        List.concat_map
          (fun pre -> List.map (fun suf -> Array.concat [ pre; mid; suf ]) (suffixes x))
          (Lazy.force pres)
      in
      List.iter (fun e -> emit remove (through e)) gone;
      List.iter (fun e -> emit add (through e)) fresh;
      let dangling () =
        List.map (fun pre -> Array.append pre (nulls (m - ci))) (Lazy.force pres)
      in
      if whole && gone = [] then emit remove (dangling ())
      else if whole && fresh = [] then emit add (dangling ());
      if i + 1 < n then begin
        let oids es = List.filter (fun x -> value_oid x <> None) (List.map snd es) in
        let lost = oids gone and gained = oids fresh in
        let orphan x = List.map (Array.append (nulls ci1)) (suffixes x) in
        let mem x l = List.exists (Gom.Value.equal x) l in
        List.iter (fun x -> if not (mem x gained || others x) then emit add (orphan x)) lost;
        List.iter (fun x -> if not (mem x lost || others x) then emit remove (orphan x)) gained
      end)
    changes;
  if !remove <> [] || !add <> [] then
    ignore
      (Asr.apply_delta ~stats:t.stats index
         ~remove:(List.sort_uniq Relation.Tuple.compare !remove)
         ~add:(List.sort_uniq Relation.Tuple.compare !add)
        : int)

let handle_event t index ev =
  let store = t.store in
  let schema = Gom.Store.schema store in
  let path = Asr.path index in
  (* Whether [x] has an inbound edge at step [i+1] that [mine] does not
     claim. *)
  let inbound i x ~mine =
    let step = Gom.Path.step path (i + 1) in
    match value_oid x with
    | Some o ->
      List.exists
        (fun r -> not (mine r))
        (Gom.Store.referencers store step.Gom.Path.domain step.Gom.Path.attr o)
    | None -> false
  in
  match ev with
  | Gom.Store.Created _ | Gom.Store.Deleted _ -> ()
  | Gom.Store.Attr_set { obj; attr; old_value; new_value } ->
    if Gom.Store.mem store obj then
      positions_matching schema path ~ty:(Gom.Store.type_of store obj) ~attr
      |> List.iter (fun i ->
             let step = Gom.Path.step path (i + 1) in
             apply_position t index ~undo:(Attr (obj, attr, old_value)) ~i ~whole:true
               ~others:(fun x -> inbound i x ~mine:(fun (q, _) -> Gom.Oid.equal q obj))
               [ (obj, edges_of t step old_value, edges_of t step new_value) ])
  | Gom.Store.Set_inserted { set; elem } | Gom.Store.Set_removed { set; elem } ->
    let inserted = match ev with Gom.Store.Set_inserted _ -> true | _ -> false in
    if Gom.Store.mem store set then begin
      let now = Gom.Store.elements store set in
      let was = elements_before ~inserted elem now in
      let holds = List.exists (Gom.Value.equal elem) in
      (* Inserting an element a list already holds changes no edge. *)
      if holds was <> holds now then
        let edge = (Some (Gom.Value.Ref set), elem) in
        let marker = (Some (Gom.Value.Ref set), Gom.Value.Null) in
        let gone, fresh =
          if inserted then ((if was = [] then [ marker ] else []), [ edge ])
          else ([ edge ], if now = [] then [ marker ] else [])
        in
        set_positions_matching schema path ~set_ty:(Gom.Store.type_of store set)
        |> List.iter (fun i ->
               let step = Gom.Path.step path (i + 1) in
               (* An orphan set is not represented in any extension. *)
               let hs = Gom.Store.holders store step.Gom.Path.domain step.Gom.Path.attr set in
               let others x =
                 inbound i x ~mine:(fun (_, s) -> Option.equal Gom.Oid.equal s (Some set))
               in
               apply_position t index ~undo:(Elem (set, elem, inserted)) ~i ~whole:false
                 ~others
                 (List.map (fun h -> (h, gone, fresh)) hs))
    end

(* ------------------------------------------------------------------ *)
(* Flush policies                                                      *)
(* ------------------------------------------------------------------ *)

let policy t = t.policy

(* Newest relation first. *)
let flush_all t =
  t.events_since_flush <- 0;
  List.fold_right (fun a acc -> acc + Asr.flush ~stats:t.stats a) t.asrs 0

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
      policy = Immediate;
      events_since_flush = 0;
      subscription = None;
    }
  in
  t.subscription <-
    Some
      (Gom.Store.subscribe store (fun ev ->
           Storage.Stats.begin_op t.stats;
           List.iter (fun index -> handle_event t index ev) t.asrs;
           maybe_flush t));
  t

let close t =
  Option.iter (Gom.Store.unsubscribe t.store) t.subscription;
  t.subscription <- None

let register t index =
  if not (Asr.store index == t.store) then
    invalid_arg "Maintenance.register: ASR built over a different store";
  t.asrs <- t.asrs @ [ index ];
  Asr.set_deferred index (match t.policy with Immediate -> false | _ -> true)
