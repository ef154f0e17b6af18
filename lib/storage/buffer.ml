type key = int

module Frames = Pager.Tbl

type frame = {
  mutable stamp : int;  (* LRU recency *)
  mutable pins : int;
  mutable prefetched : bool;  (* staged by prefetch, no demand reference yet *)
}

type t = {
  capacity : int;
  frames : frame Frames.t;
  mutable clock : int;
  mutable pinned : int;  (* frames with at least one pin *)
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Buffer.create: capacity must be positive";
  { capacity; frames = Frames.create (2 * capacity); clock = 0; pinned = 0 }

let capacity t = t.capacity
let resident t = Frames.length t.frames
let pinned t = t.pinned
let mem t k = Frames.mem t.frames k

let touch t f =
  t.clock <- t.clock + 1;
  f.stamp <- t.clock

let evict t =
  let victim = ref None in
  Frames.iter
    (fun k f ->
      if f.pins = 0 then
        match !victim with
        | Some (_, s) when s <= f.stamp -> ()
        | _ -> victim := Some (k, f.stamp))
    t.frames;
  match !victim with
  | Some (k, _) ->
    Frames.remove t.frames k;
    true
  | None -> false (* everything pinned: overflow transiently *)

let admit t k ~prefetched =
  let evicted = Frames.length t.frames >= t.capacity && evict t in
  let f = { stamp = 0; pins = 0; prefetched } in
  touch t f;
  Frames.replace t.frames k f;
  evicted

type outcome = Hit | Prefetch_hit | Miss of { evicted : bool }

let reference t k =
  match Frames.find_opt t.frames k with
  | Some f ->
    touch t f;
    if f.prefetched then begin
      f.prefetched <- false;
      Prefetch_hit
    end
    else Hit
  | None -> Miss { evicted = admit t k ~prefetched:false }

let prefetch t k =
  match Frames.find_opt t.frames k with
  | Some f ->
    touch t f;
    `Resident
  | None -> `Admitted (admit t k ~prefetched:true)

let pin t k =
  let f =
    match Frames.find_opt t.frames k with
    | Some f -> f
    | None ->
      (* Admit without eviction: a pin wants the frame present NOW and
         must not victimise the page a caller is standing on. *)
      let f = { stamp = 0; pins = 0; prefetched = false } in
      touch t f;
      Frames.replace t.frames k f;
      f
  in
  if f.pins = 0 then t.pinned <- t.pinned + 1;
  f.pins <- f.pins + 1

let unpin t k =
  match Frames.find_opt t.frames k with
  | Some f when f.pins > 0 ->
    f.pins <- f.pins - 1;
    if f.pins = 0 then t.pinned <- t.pinned - 1
  | Some _ | None -> ()

let reset t =
  Frames.reset t.frames;
  t.clock <- 0;
  t.pinned <- 0
