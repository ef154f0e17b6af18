type t = int

let compare = Int.compare
let equal = Int.equal
let hash t = t
let to_int t = t
let of_int i = i
let pp ppf t = Format.fprintf ppf "i%d" t

type gen = { mutable next : int }

let make_gen () = { next = 0 }

let fresh g =
  let id = g.next in
  g.next <- id + 1;
  id

let ensure_above g t = if t >= g.next then g.next <- t + 1
let fork g = { next = g.next }
