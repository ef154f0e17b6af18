type tuple = Gom.Value.t array

let cmp_tuple (a : tuple) (b : tuple) =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la || i >= lb then Int.compare la lb
    else
      let c = Gom.Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

type entry = { tup : tuple; mutable count : int }

type node = { page : int; mutable body : body }

and body =
  | Leaf of leaf
  | Inner of inner

and leaf = {
  mutable entries : entry array;
      (* sorted by (key, tuple); a change installs a fresh array, so an
         array is never written once it is stored here *)
  mutable next : node option;
  mutable prev : node option;
}

and inner = { mutable children : (tuple * node) list }
(* (separator, child): all entries of the child are >= separator (in
   (key, tuple) order); the first separator is a lower bound only. *)

type t = {
  key_of : tuple -> Gom.Value.t;
  leaf_cap : int;
  inner_cap : int;
  pager : Pager.t;
  tuple_bytes : int;
  mutable root : node;
  mutable first_leaf : node;
  mutable cardinal : int;
}

(* Entries are ordered by clustering key first, then by the whole tuple,
   so duplicates of a key sit next to each other. *)
let cmp_entry t a b =
  let c = Gom.Value.compare (t.key_of a) (t.key_of b) in
  if c <> 0 then c else cmp_tuple a b

let new_leaf t =
  { page = Pager.alloc t.pager; body = Leaf { entries = [||]; next = None; prev = None } }

(* Binary search: the first index of [es] whose entry is not [below],
   where [below] holds on a prefix of [es]. *)
let bisect es below =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) lsr 1 in
      if below es.(mid) then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length es)

(* [tup]'s own slot when present, else its insertion point. *)
let search t es tup = bisect es (fun e -> cmp_entry t e.tup tup < 0)

let found es i tup = i < Array.length es && cmp_tuple es.(i).tup tup = 0

(* The first entry with key [key], or where it would be. *)
let lower_bound t es key = bisect es (fun e -> Gom.Value.compare (t.key_of e.tup) key < 0)

(* A run of [key] may extend into the next leaf as long as this leaf
   holds no entry beyond the key (duplicate runs can start exactly at a
   leaf boundary, so an empty prefix is not a stop). *)
let run_continues t es key =
  let n = Array.length es in
  n = 0 || Gom.Value.compare (t.key_of es.(n - 1).tup) key <= 0

(* Copies of [es] with [e] inserted at / the entry at [i] deleted. *)
let array_insert es i e =
  let n = Array.length es in
  let r = Array.make (n + 1) e in
  Array.blit es 0 r 0 i;
  Array.blit es i r (i + 1) (n - i);
  r

let array_remove es i =
  let n = Array.length es in
  let r = Array.sub es 0 (n - 1) in
  Array.blit es (i + 1) r i (n - 1 - i);
  r

let create ~config ~pager ~tuple_bytes ~key_of =
  if tuple_bytes <= 0 then invalid_arg "Bptree.create: tuple_bytes must be positive";
  let leaf_cap = max 1 (config.Config.page_size / tuple_bytes) in
  let inner_cap = max 2 (Config.bplus_fan config) in
  let t =
    {
      key_of;
      leaf_cap;
      inner_cap;
      pager;
      tuple_bytes;
      root = { page = Pager.alloc pager; body = Leaf { entries = [||]; next = None; prev = None } };
      first_leaf = { page = 0; body = Leaf { entries = [||]; next = None; prev = None } };
      cardinal = 0;
    }
  in
  t.first_leaf <- t.root;
  t

let tuple_bytes t = t.tuple_bytes
let cardinal t = t.cardinal

let read stats page = match stats with Some s -> Stats.read s page | None -> ()
let write stats page = match stats with Some s -> Stats.write s page | None -> ()

(* Range and extent scans ride the leaf chain left-to-right, so the
   upcoming leaves are known: stage the next few so a buffer pool pays
   their physical I/O here, ahead of the demand reads.  The current
   leaf is pinned across the staging so the prefetch can never evict
   the very page the scan is standing on. *)
let prefetch_depth = 4

let prefetch_chain ?(will_follow = fun _ -> true) stats node =
  match stats with
  | Some s when Stats.has_buffer s ->
    (* [will_follow n] says whether the caller's walk provably reads
       [n]'s successor: staging a leaf the walk then abandons is
       physical I/O paid for nothing, and would break the buffered <=
       unbuffered physical-read bound the oracle suite checks.  Full
       scans follow every link (the default); keyed runs stop where the
       run does. *)
    let rec ahead n node acc =
      if n = 0 then List.rev acc
      else
        match node.body with
        | Inner _ -> List.rev acc
        | Leaf l -> (
          match l.next with
          | Some nx when will_follow node ->
            (* Keep walking the chain but never stage an empty leaf:
               [iter] skips them without a read. *)
            let acc =
              match nx.body with
              | Leaf { entries = [||]; _ } -> acc
              | Leaf _ | Inner _ -> nx.page :: acc
            in
            ahead (n - 1) nx acc
          | Some _ | None -> List.rev acc)
    in
    let upcoming = ahead prefetch_depth node [] in
    if upcoming <> [] then begin
      Stats.pin_page s node.page;
      Fun.protect
        ~finally:(fun () -> Stats.unpin_page s node.page)
        (fun () -> Stats.prefetch s upcoming)
    end
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Bulk loading                                                        *)
(* ------------------------------------------------------------------ *)

let rec chunk n = function
  | [] -> []
  | l ->
    let rec take k acc rest =
      match rest with
      | _ when k = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: rest -> take (k - 1) (x :: acc) rest
    in
    let c, rest = take n [] l in
    c :: chunk n rest

let bulk_load t tuples =
  let sorted = List.sort (cmp_entry t) tuples in
  (* Aggregate equal tuples into reference counts. *)
  let entries =
    List.fold_left
      (fun acc tup ->
        match acc with
        | e :: _ when cmp_tuple e.tup tup = 0 ->
          e.count <- e.count + 1;
          acc
        | _ -> { tup; count = 1 } :: acc)
      [] sorted
    |> List.rev
  in
  t.cardinal <- List.length entries;
  match entries with
  | [] ->
    let leaf = new_leaf t in
    t.root <- leaf;
    t.first_leaf <- leaf
  | _ ->
    let leaves =
      chunk t.leaf_cap entries
      |> List.map (fun es ->
             {
               page = Pager.alloc t.pager;
               body = Leaf { entries = Array.of_list es; next = None; prev = None };
             })
    in
    (* Chain the leaves. *)
    let rec link = function
      | a :: (b :: _ as rest) ->
        (match (a.body, b.body) with
        | Leaf la, Leaf lb ->
          la.next <- Some b;
          lb.prev <- Some a
        | _ -> assert false);
        link rest
      | [ _ ] | [] -> ()
    in
    link leaves;
    let min_of node =
      match node.body with
      | Leaf l -> l.entries.(0).tup
      | Inner i -> fst (List.hd i.children)
    in
    let rec build level =
      match level with
      | [ single ] -> single
      | _ ->
        chunk t.inner_cap level
        |> List.map (fun cs ->
               {
                 page = Pager.alloc t.pager;
                 body = Inner { children = List.map (fun c -> (min_of c, c)) cs };
               })
        |> build
    in
    t.first_leaf <- List.hd leaves;
    t.root <- build leaves

(* ------------------------------------------------------------------ *)
(* Descent                                                             *)
(* ------------------------------------------------------------------ *)

(* Pick the last child whose separator satisfies [before] (i.e. is
   strictly on the left of the target); default to the first child. *)
let route ~before children =
  match children with
  | [] -> invalid_arg "Bptree.route: inner node without children"
  | (_, first) :: rest ->
    List.fold_left (fun acc (sep, child) -> if before sep then child else acc) first rest

(* ------------------------------------------------------------------ *)
(* Adjust: the one write primitive                                     *)
(* ------------------------------------------------------------------ *)

let split_list l =
  let len = List.length l in
  let k = (len + 1) / 2 in
  let rec go i acc = function
    | rest when i = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> go (i - 1) (x :: acc) rest
  in
  go k [] l

let unlink_leaf t l =
  (match l.prev with
  | Some p -> ( match p.body with Leaf lp -> lp.next <- l.next | Inner _ -> ())
  | None -> ( match l.next with Some nx -> t.first_leaf <- nx | None -> ()));
  match l.next with
  | Some nx -> ( match nx.body with Leaf ln -> ln.prev <- l.prev | Inner _ -> ())
  | None -> ()

(* What a visited child tells its parent. *)
type outcome =
  | Kept
  | Split of tuple * node  (* separator and new right sibling *)
  | Gone  (* emptied and unlinked *)

let adjust ?stats t tup d =
  let rec go ~is_root node =
    read stats node.page;
    match node.body with
    | Leaf l ->
      let es = l.entries in
      let i = search t es tup in
      if found es i tup then begin
        let e = es.(i) in
        e.count <- e.count + d;
        if e.count <= 0 then begin
          t.cardinal <- t.cardinal - 1;
          l.entries <- array_remove es i
        end;
        write stats node.page
      end
      else if d > 0 then begin
        l.entries <- array_insert es i { tup; count = d };
        t.cardinal <- t.cardinal + 1;
        write stats node.page
      end;
      let n = Array.length l.entries in
      if n = 0 && not is_root then begin
        (* Lazy deletion: an emptied leaf leaves the chain at once. *)
        unlink_leaf t l;
        Gone
      end
      else if n <= t.leaf_cap then Kept
      else begin
        let k = (n + 1) / 2 in
        let left = Array.sub l.entries 0 k and right = Array.sub l.entries k (n - k) in
        let rnode =
          { page = Pager.alloc t.pager; body = Leaf { entries = right; next = l.next; prev = Some node } }
        in
        (match l.next with
        | Some nx -> ( match nx.body with Leaf ln -> ln.prev <- Some rnode | Inner _ -> ())
        | None -> ());
        l.entries <- left;
        l.next <- Some rnode;
        write stats rnode.page;
        Split (right.(0).tup, rnode)
      end
    | Inner i -> (
      let child = route ~before:(fun sep -> cmp_entry t sep tup <= 0) i.children in
      match go ~is_root:false child with
      | Kept -> Kept
      | Gone ->
        i.children <- List.filter (fun (_, c) -> not (c == child)) i.children;
        write stats node.page;
        if i.children = [] && not is_root then Gone else Kept
      | Split (sep, rnode) ->
        (* Insert the new sibling right after [child]. *)
        let rec add = function
          | [] -> assert false
          | (s, c) :: rest when c == child -> (s, c) :: (sep, rnode) :: rest
          | x :: rest -> x :: add rest
        in
        i.children <- add i.children;
        write stats node.page;
        if List.length i.children <= t.inner_cap then Kept
        else begin
          let left, right = split_list i.children in
          let rnode' = { page = Pager.alloc t.pager; body = Inner { children = right } } in
          i.children <- left;
          write stats rnode'.page;
          Split (fst (List.hd right), rnode')
        end)
  in
  if d <> 0 then
    match go ~is_root:true t.root with
    | Split (sep, rnode) ->
      let old_min =
        match t.root.body with
        | Leaf l -> if Array.length l.entries > 0 then l.entries.(0).tup else sep
        | Inner i -> fst (List.hd i.children)
      in
      let new_root =
        { page = Pager.alloc t.pager; body = Inner { children = [ (old_min, t.root); (sep, rnode) ] } }
      in
      write stats new_root.page;
      t.root <- new_root
    | Kept | Gone ->
      (* Collapse a root left with a single child, or with none. *)
      let rec collapse () =
        match t.root.body with
        | Inner { children = [ (_, only) ] } ->
          t.root <- only;
          collapse ()
        | Inner { children = [] } ->
          let leaf = new_leaf t in
          t.root <- leaf;
          t.first_leaf <- leaf
        | Inner _ | Leaf _ -> ()
      in
      collapse ()

let insert ?stats t tup = adjust ?stats t tup 1
let remove ?stats t tup = adjust ?stats t tup (-1)

(* ------------------------------------------------------------------ *)
(* Lookup / scans                                                      *)
(* ------------------------------------------------------------------ *)

let rec descend_for_key ?stats t key node =
  read stats node.page;
  match node.body with
  | Leaf _ -> node
  | Inner i ->
    let child =
      route ~before:(fun sep -> Gom.Value.compare (t.key_of sep) key < 0) i.children
    in
    descend_for_key ?stats t key child

(* Push the entries of [es] with key [key] onto [acc], last first. *)
let collect_run t key es acc =
  let n = Array.length es in
  let rec go i acc =
    if i < n && Gom.Value.compare (t.key_of es.(i).tup) key = 0 then go (i + 1) (es.(i).tup :: acc)
    else acc
  in
  go (lower_bound t es key) acc

(* Whether [keys] are already sorted and distinct, as a frontier is. *)
let rec ascending = function
  | a :: (b :: _ as rest) -> Gom.Value.compare a b < 0 && ascending rest
  | [ _ ] | [] -> true

(* The cursor before any run: no leaf, so the first key descends. *)
let no_leaf = { page = -1; body = Inner { children = [] } }

(* The one keyed read: serve the keys in ascending order, sharing tree
   descents between adjacent keys — when the next key falls strictly
   inside the key range of the leaf the previous run ended on, the walk
   continues from that leaf instead of re-descending from the root.
   Combined with per-operation distinct-page accounting, probes whose
   runs share leaves charge those leaves once; a single key is a batch
   of one. *)
let lookup_many ?stats t keys =
  let cursor = ref no_leaf in
  (* Collect [key]'s run from [node] on; the first leaf's page is
     already read, by the descent or by the run that left the cursor
     there. *)
  let rec walk key node ~charged acc =
    match node.body with
    | Inner _ -> acc
    | Leaf l ->
      if not charged then read stats node.page;
      cursor := node;
      let acc = collect_run t key l.entries acc in
      if run_continues t l.entries key then begin
        (* Stage only leaves the run goes on to: a run ending in this
           leaf stages nothing. *)
        prefetch_chain stats node ~will_follow:(fun n ->
            match n.body with Inner _ -> false | Leaf l -> run_continues t l.entries key);
        match l.next with Some nx -> walk key nx ~charged:false acc | None -> acc
      end
      else acc
  in
  List.map
    (fun key ->
      let leaf =
        match !cursor.body with
        | Leaf { entries = es; _ }
          when Array.length es > 0
               && Gom.Value.compare (t.key_of es.(0).tup) key < 0
               && Gom.Value.compare (t.key_of es.(Array.length es - 1).tup) key >= 0 ->
          (* The run for [key], if any, starts in this leaf. *)
          !cursor
        | Leaf _ | Inner _ -> descend_for_key ?stats t key t.root
      in
      (key, List.rev (walk key leaf ~charged:true [])))
    (if ascending keys then keys else List.sort_uniq Gom.Value.compare keys)

let find_entry t tup =
  let key = t.key_of tup in
  let rec walk node =
    match node.body with
    | Inner _ -> None
    | Leaf l ->
      let es = l.entries in
      let i = search t es tup in
      if found es i tup then Some es.(i)
      else if i < Array.length es then None (* an entry past [tup] *)
      else ( match l.next with Some nx -> walk nx | None -> None)
  in
  walk (descend_for_key t key t.root)

let mem t tup = find_entry t tup <> None

let refcount t tup = match find_entry t tup with Some e -> e.count | None -> 0

let iter ?stats t f =
  let rec walk node =
    match node.body with
    | Inner _ -> ()
    | Leaf l ->
      if Array.length l.entries > 0 then begin
        read stats node.page;
        prefetch_chain stats node;
        Array.iter (fun e -> f e.tup) l.entries
      end;
      ( match l.next with Some nx -> walk nx | None -> ())
  in
  walk t.first_leaf

let scan ?stats t =
  let acc = ref [] in
  iter ?stats t (fun tup -> acc := tup :: !acc);
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Geometry                                                            *)
(* ------------------------------------------------------------------ *)

let height t =
  let rec go acc node =
    match node.body with Leaf _ -> acc | Inner i -> go (acc + 1) (snd (List.hd i.children))
  in
  max 1 (go 0 t.root)

let leaf_pages t =
  let n = ref 0 in
  let rec walk node =
    match node.body with
    | Inner _ -> ()
    | Leaf l ->
      if Array.length l.entries > 0 then incr n;
      ( match l.next with Some nx -> walk nx | None -> ())
  in
  walk t.first_leaf;
  max 1 !n

let inner_pages t =
  let rec go node =
    match node.body with
    | Leaf _ -> 0
    | Inner i -> 1 + List.fold_left (fun acc (_, c) -> acc + go c) 0 i.children
  in
  max 1 (go t.root)

(* ------------------------------------------------------------------ *)
(* Invariant checking (test support)                                   *)
(* ------------------------------------------------------------------ *)

let check_invariants t =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  let rec collect_leaves node =
    match node.body with
    | Leaf _ -> [ node ]
    | Inner i -> List.concat_map (fun (_, c) -> collect_leaves c) i.children
  in
  (* [lo] / [hi] bound every entry of the subtree: lo <= e < hi.  The
     first child of each inner node inherits its parent's lower bound
     (its own separator is informative only). *)
  let rec check_node ~lo ~hi node =
    match node.body with
    | Leaf l ->
      let es = l.entries in
      if Array.length es > t.leaf_cap then
        fail "leaf %d over capacity (%d > %d)" node.page (Array.length es) t.leaf_cap
      else
        let in_bounds e =
          (match lo with Some b -> cmp_entry t e.tup b >= 0 | None -> true)
          && (match hi with Some b -> cmp_entry t e.tup b < 0 | None -> true)
        in
        if not (Array.for_all in_bounds es) then
          fail "leaf %d violates separator bounds" node.page
        else
          let rec sorted i =
            i + 1 >= Array.length es || (cmp_entry t es.(i).tup es.(i + 1).tup < 0 && sorted (i + 1))
          in
          if sorted 0 then Ok () else fail "leaf %d entries out of order" node.page
    | Inner i ->
      if i.children = [] then fail "inner %d has no children" node.page
      else if List.length i.children > t.inner_cap then
        fail "inner %d over capacity" node.page
      else
        let rec go ~first ~lo children =
          match children with
          | [] -> Ok ()
          | (sep, child) :: rest ->
            let child_lo = if first then lo else Some sep in
            let child_hi =
              match rest with (next_sep, _) :: _ -> Some next_sep | [] -> hi
            in
            (match check_node ~lo:child_lo ~hi:child_hi child with
            | Error _ as e -> e
            | Ok () -> go ~first:false ~lo rest)
        in
        go ~first:true ~lo i.children
  in
  match check_node ~lo:None ~hi:None t.root with
  | Error _ as e -> e
  | Ok () ->
    (* Leaves reachable from the root must equal the chain. *)
    let tree_leaves = collect_leaves t.root in
    let rec chain node acc =
      match node.body with
      | Inner _ -> List.rev acc
      | Leaf l -> ( match l.next with Some nx -> chain nx (node :: acc) | None -> List.rev (node :: acc))
    in
    let chain_leaves = chain t.first_leaf [] in
    (* [unlink_leaf] relies on the back links and on [first_leaf] being
       the head of the chain. *)
    let rec back_linked prev = function
      | [] -> true
      | node :: rest -> (
        match node.body with
        | Leaf l ->
          (match (l.prev, prev) with
          | None, None -> true
          | Some p, Some q -> p == q
          | Some _, None | None, Some _ -> false)
          && back_linked (Some node) rest
        | Inner _ -> false)
    in
    if not (t.first_leaf == List.hd tree_leaves) then fail "first_leaf is not the leftmost leaf"
    else if List.length tree_leaves <> List.length chain_leaves then
      fail "leaf chain length %d differs from tree leaves %d" (List.length chain_leaves)
        (List.length tree_leaves)
    else if not (List.for_all2 (fun a b -> a == b) tree_leaves chain_leaves) then
      fail "leaf chain order differs from tree order"
    else if not (back_linked None chain_leaves) then fail "leaf prev links differ from the chain"
    else
      let all =
        List.concat_map
          (fun n -> match n.body with Leaf l -> Array.to_list l.entries | Inner _ -> [])
          tree_leaves
      in
      let rec sorted = function
        | a :: (b :: _ as rest) ->
          if cmp_entry t a.tup b.tup >= 0 then fail "entries out of global order"
          else sorted rest
        | [ _ ] | [] -> Ok ()
      in
      (match sorted all with
      | Error _ as e -> e
      | Ok () ->
        if List.length all <> t.cardinal then
          fail "cardinal %d does not match entry count %d" t.cardinal (List.length all)
        else if List.exists (fun e -> e.count <= 0) all then fail "non-positive refcount"
        else Ok ())
