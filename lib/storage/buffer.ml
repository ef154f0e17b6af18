type policy = Lru | Clock

type key = int

module Frames = Pager.Tbl

type frame = {
  mutable stamp : int;  (* LRU recency *)
  mutable refbit : bool;  (* Clock second chance *)
  mutable pins : int;
  mutable prefetched : bool;  (* staged by prefetch, no demand reference yet *)
}

type t = {
  capacity : int;
  pol : policy;
  frames : frame Frames.t;
  ring : key Queue.t;  (* Clock hand order; may hold stale keys *)
  mutable clock : int;
}

let create ?(policy = Lru) ~capacity () =
  if capacity <= 0 then invalid_arg "Buffer.create: capacity must be positive";
  {
    capacity;
    pol = policy;
    frames = Frames.create (2 * capacity);
    ring = Queue.create ();
    clock = 0;
  }

let capacity t = t.capacity
let policy t = t.pol
let resident t = Frames.length t.frames
let mem t k = Frames.mem t.frames k

let touch t f =
  t.clock <- t.clock + 1;
  f.stamp <- t.clock;
  f.refbit <- true

let evict_lru t =
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

let evict_clock t =
  (* Sweep the ring: stale entries (already evicted) are dropped, pinned
     frames skipped, referenced frames get their second chance.  Bounded
     by twice the live entries — after one full sweep every refbit is
     clear, so the next unpinned frame goes. *)
  let budget = ref (2 * (Queue.length t.ring + 1)) in
  let victim = ref None in
  while !victim = None && !budget > 0 && not (Queue.is_empty t.ring) do
    decr budget;
    let k = Queue.pop t.ring in
    match Frames.find_opt t.frames k with
    | None -> () (* stale: frame already gone *)
    | Some f ->
      if f.pins > 0 then Queue.push k t.ring
      else if f.refbit then begin
        f.refbit <- false;
        Queue.push k t.ring
      end
      else begin
        Frames.remove t.frames k;
        victim := Some k
      end
  done;
  !victim <> None

let evict t = match t.pol with Lru -> evict_lru t | Clock -> evict_clock t

let admit t k ~prefetched =
  let evicted = Frames.length t.frames >= t.capacity && evict t in
  let f = { stamp = 0; refbit = false; pins = 0; prefetched } in
  touch t f;
  Frames.replace t.frames k f;
  if t.pol = Clock then Queue.push k t.ring;
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
      let f = { stamp = 0; refbit = false; pins = 0; prefetched = false } in
      touch t f;
      Frames.replace t.frames k f;
      if t.pol = Clock then Queue.push k t.ring;
      f
  in
  f.pins <- f.pins + 1

let unpin t k =
  match Frames.find_opt t.frames k with
  | Some f when f.pins > 0 -> f.pins <- f.pins - 1
  | Some _ | None -> ()

let reset t =
  Frames.reset t.frames;
  Queue.clear t.ring;
  t.clock <- 0
