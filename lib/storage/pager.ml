type t = { segment : int; name : string; mutable next : int }

let next_segment = Atomic.make 1

(* Segment number -> pager name.  Written once per pager, read once per
   (accountant, segment) pair, so a mutex costs nothing that matters. *)
let registry : (int, string) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()

let create name =
  let segment = Atomic.fetch_and_add next_segment 1 in
  Mutex.protect lock (fun () -> Hashtbl.replace registry segment name);
  { segment; name; next = 0 }

let alloc t =
  let k = t.next in
  t.next <- k + 1;
  (t.segment lsl 32) lor k

let allocated t = t.next
let name t = t.name
let segment page = page lsr 32

let segment_name seg =
  Mutex.protect lock (fun () -> Option.value ~default:"" (Hashtbl.find_opt registry seg))

(* Fold the segment into the low bits, which pick the bucket: the first
   pages of every segment would otherwise share one. *)
module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash p = (p lxor (p lsr 32)) land max_int
end)
