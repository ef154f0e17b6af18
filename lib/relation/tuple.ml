type t = Gom.Value.t array

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la || i >= lb then Int.compare la lb
    else
      let c = Gom.Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let equal a b = compare a b = 0
let width = Array.length
let get (t : t) i = t.(i)

let concat_shared (a : t) (b : t) =
  if Array.length a = 0 || Array.length b = 0 then
    invalid_arg "Tuple.concat_shared: empty tuple";
  let boundary =
    if Gom.Value.is_null a.(Array.length a - 1) then b.(0) else a.(Array.length a - 1)
  in
  let res = Array.make (Array.length a + Array.length b - 1) Gom.Value.Null in
  Array.blit a 0 res 0 (Array.length a - 1);
  res.(Array.length a - 1) <- boundary;
  Array.blit b 1 res (Array.length a) (Array.length b - 1);
  res

let project (t : t) cols = Array.of_list (List.map (fun i -> t.(i)) cols)

let defined_span (t : t) =
  let first = ref (-1) and last = ref (-1) in
  Array.iteri
    (fun i v ->
      if not (Gom.Value.is_null v) then begin
        if !first < 0 then first := i;
        last := i
      end)
    t;
  if !first < 0 then None else Some (!first, !last)

let has_edge (t : t) =
  match defined_span t with Some (first, last) -> last > first | None -> false

let contiguous (t : t) =
  match defined_span t with
  | None -> true
  | Some (first, last) ->
    let ok = ref true in
    for i = first to last do
      if Gom.Value.is_null t.(i) then ok := false
    done;
    !ok

let pp ppf (t : t) =
  Format.fprintf ppf "(%s)"
    (String.concat ", " (Array.to_list (Array.map Gom.Value.to_string t)))

let to_string t = Format.asprintf "%a" pp t
