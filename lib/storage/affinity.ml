module Omap = Map.Make (Gom.Oid)

(* Edges are normalised (min, max) pairs of distinct oids. *)
module Pair = struct
  type t = Gom.Oid.t * Gom.Oid.t

  let compare (a1, b1) (a2, b2) =
    match Gom.Oid.compare a1 a2 with 0 -> Gom.Oid.compare b1 b2 | c -> c

  let hash = Hashtbl.hash
  let equal a b = compare a b = 0
end

module Ptbl = Hashtbl.Make (Pair)

type t = {
  window : int;
  max_edges : int;
  mutable recent : Gom.Oid.t list;  (* most recent first, length <= window *)
  edges : int ref Ptbl.t;
  mutable touches : int;
}

let create ?(window = 2) ?(max_edges = 65536) () =
  {
    window = max 1 window;
    max_edges = max 16 max_edges;
    recent = [];
    edges = Ptbl.create 1024;
    touches = 0;
  }

let norm a b = if Gom.Oid.compare a b <= 0 then (a, b) else (b, a)

let decay t =
  let dead = ref [] in
  Ptbl.iter
    (fun k w ->
      w := !w / 2;
      if !w = 0 then dead := k :: !dead)
    t.edges;
  List.iter (Ptbl.remove t.edges) !dead

let bump t a b =
  if Gom.Oid.compare a b <> 0 then begin
    let k = norm a b in
    (match Ptbl.find_opt t.edges k with
    | Some w -> incr w
    | None ->
      if Ptbl.length t.edges >= t.max_edges then decay t;
      Ptbl.replace t.edges k (ref 1))
  end

let touch t oid =
  t.touches <- t.touches + 1;
  List.iter (fun prev -> bump t prev oid) t.recent;
  let rec take k = function
    | [] -> []
    | x :: tl -> if k = 0 then [] else x :: take (k - 1) tl
  in
  t.recent <- oid :: take (t.window - 1) t.recent

let break_run t = t.recent <- []
let touches t = t.touches

(* Union-find over oids with byte-size tracking, merged hottest-edge
   first under the page-capacity constraint. *)
let clusters t ~size_of ~page_size =
  let parent : Gom.Oid.t Omap.t ref = ref Omap.empty in
  let bytes : int Omap.t ref = ref Omap.empty in
  let heat : int Omap.t ref = ref Omap.empty in
  let rec find o =
    match Omap.find_opt o !parent with
    | None ->
      parent := Omap.add o o !parent;
      bytes := Omap.add o (max 1 (size_of o)) !bytes;
      o
    | Some p when Gom.Oid.compare p o = 0 -> o
    | Some p ->
      let r = find p in
      parent := Omap.add o r !parent;
      r
  in
  let edges =
    Ptbl.fold (fun k w acc -> (k, !w) :: acc) t.edges []
    |> List.sort (fun ((k1 : Pair.t), w1) (k2, w2) ->
           match Int.compare w2 w1 with 0 -> Pair.compare k1 k2 | c -> c)
  in
  List.iter
    (fun ((a, b), w) ->
      let ra = find a and rb = find b in
      if Gom.Oid.compare ra rb <> 0 then begin
        let sa = Omap.find ra !bytes and sb = Omap.find rb !bytes in
        if sa + sb <= page_size then begin
          parent := Omap.add rb ra !parent;
          bytes := Omap.add ra (sa + sb) !bytes;
          let h o = Option.value ~default:0 (Omap.find_opt o !heat) in
          heat := Omap.add ra (h ra + h rb + w) !heat
        end
      end)
    edges;
  (* Group members under their roots, order members deterministically and
     clusters by accumulated heat. *)
  let groups = ref Omap.empty in
  Omap.iter
    (fun o _ ->
      let r = find o in
      let cur = Option.value ~default:[] (Omap.find_opt r !groups) in
      groups := Omap.add r (o :: cur) !groups)
    !parent;
  Omap.fold
    (fun r members acc ->
      match members with
      | [] | [ _ ] -> acc
      | _ ->
        let h = Option.value ~default:0 (Omap.find_opt r !heat) in
        (h, List.sort Gom.Oid.compare members) :: acc)
    !groups []
  |> List.sort (fun (h1, m1) (h2, m2) ->
         match Int.compare h2 h1 with
         | 0 -> Gom.Oid.compare (List.hd m1) (List.hd m2)
         | c -> c)
  |> List.map snd
